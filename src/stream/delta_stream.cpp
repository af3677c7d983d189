#include "stream/delta_stream.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stm::stream {

DeltaStreamer::DeltaStreamer(const Pattern& pattern, const PlanOptions& plan)
    : enumerator_(pattern, [&] {
        STM_CHECK_MSG(plan.count_mode == CountMode::kEmbeddings,
                      "delta streams require kEmbeddings count mode");
        return plan;
      }()) {}

DeltaBatch DeltaStreamer::delta(
    const std::shared_ptr<const GraphSnapshot>& from,
    const DeltaEdges& applied) const {
  STM_CHECK(from != nullptr);
  DeltaBatch out;
  if (applied.empty()) return out;

  const auto collect = [&](std::vector<Embedding>& into) {
    return AnchoredEnumerator::AnchoredVisitor(
        [&into](const std::vector<VertexId>& emb) { into.push_back(emb); });
  };
  for (const bool inserted : {true, false}) {
    GraphEdit edit(from);
    for (const auto& [u, v] : applied.deleted) edit.remove_edge(u, v);
    const auto visit = collect(inserted ? out.added : out.retracted);
    for (const auto& [u, v] : inserted ? applied.inserted : applied.deleted) {
      edit.add_edge(u, v);
      enumerator_.enumerate_containing(edit.view(), u, v, visit,
                                       &out.anchored_runs);
    }
  }
  std::sort(out.added.begin(), out.added.end());
  std::sort(out.retracted.begin(), out.retracted.end());
  return out;
}

}  // namespace stm::stream
