#include "testing/oracle.hpp"

#include <memory>
#include <sstream>

#include "baselines/reference.hpp"
#include "pattern/matching_order.hpp"
#include "testing/lanes.hpp"
#include "util/check.hpp"

namespace stm::harness {

const char* to_string(EngineKind kind) {
  if (kind == EngineKind::kReference) return "reference";
  for (const Lane& lane : lanes())
    if (lane.vote == kind) return lane.name;
  return "unknown";
}

OracleReport run_oracle(const TestCase& c, const OracleOptions& opts) {
  STM_CHECK_MSG(c.pattern.size() >= 1, "test case has an empty pattern");
  std::vector<std::shared_ptr<void>> scopes;
  for (const Lane& lane : lanes())
    if (lane.scope != nullptr) scopes.push_back(lane.scope(c));

  OracleReport report;
  report.expected = reference_count(GraphView(c.graph), c.pattern,
                                    {c.plan.induced, c.plan.count_mode});
  report.counts.push_back({EngineKind::kReference, report.expected});

  const MatchingPlan plan(reorder_for_matching(c.pattern), c.plan);
  for (const Lane& lane : lanes()) {
    if (!lane.vote) continue;
    if (opts.skip.count(*lane.vote) != 0 ||
        (lane.applies != nullptr && !lane.applies(c, report.expected))) {
      report.skipped.push_back(*lane.vote);
    } else {
      lane.check(c, plan, report);
    }
  }
  for (const EngineCount& e : report.counts)
    if (e.count != report.expected) report.agreed = false;
  return report;
}

bool oracle_disagrees(const TestCase& c) { return !run_oracle(c).agreed; }

std::string OracleReport::describe() const {
  std::ostringstream os;
  os << (agreed ? "AGREED" : "DISAGREED") << " expected=" << expected << "\n";
  for (const EngineCount& e : counts) {
    os << "  " << to_string(e.engine) << " = " << e.count
       << (e.count == expected ? "" : "   <-- MISMATCH") << "\n";
  }
  for (const EngineKind k : skipped) os << "  " << to_string(k) << " skipped\n";
  for (const std::string& n : notes) os << "  note: " << n << "\n";
  return os.str();
}

}  // namespace stm::harness
