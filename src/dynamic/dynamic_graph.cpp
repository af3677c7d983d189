#include "dynamic/dynamic_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stm {

namespace {

using EdgePair = std::pair<VertexId, VertexId>;

/// Validates, canonicalizes (u < v) and dedupes one side of a batch.
std::vector<EdgePair> normalize_edges(
    const std::vector<EdgePair>& edges, VertexId n, const char* what) {
  std::vector<EdgePair> out;
  out.reserve(edges.size());
  for (auto [u, v] : edges) {
    STM_CHECK_MSG(u != v, what << " (" << u << "," << v << ") is a self-loop");
    STM_CHECK_MSG(u < n && v < n, what << " (" << u << "," << v
                                       << ") references a vertex >= " << n);
    if (u > v) std::swap(u, v);
    out.emplace_back(u, v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::uint64_t GraphSnapshot::memory_bytes() const {
  std::uint64_t total = store_ != nullptr ? store_->stats().resident_bytes
                                          : base_->memory_bytes();
  total += pages_.capacity() * sizeof(pages_[0]);
  for (const auto& page : pages_)
    if (page != nullptr)
      total += sizeof(AdjPage) + page->adj.capacity() * sizeof(VertexId);
  return total;
}

bool GraphSnapshot::has_edge(VertexId u, VertexId v) const {
  const storage::GraphStore::Lease lease = storage_lease();
  return view().has_edge(u, v);
}

Graph GraphSnapshot::compacted() const {
  // The full sweep reads store-backed adjacency; the lease keeps a
  // concurrent trim_decoded() from freeing decoded lists mid-iteration.
  const storage::GraphStore::Lease lease = storage_lease();
  GraphBuilder builder(num_vertices());
  const GraphView g = view();
  for (VertexId u = 0; u < num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) builder.add_edge(u, v);
  Graph out = builder.build();
  if (base_->is_labeled()) out = out.with_labels(base_->labels());
  return out;
}

MutableGraph::MutableGraph(Graph base, std::uint64_t start_epoch,
                           storage::StoragePolicy storage,
                           const FaultConfig& fault)
    : seed_(std::make_shared<const Graph>(std::move(base))),
      storage_policy_(std::move(storage)),
      page_fault_(fault) {
  auto snap = std::make_shared<GraphSnapshot>(GraphSnapshot{});
  snap->base_ = seed_;
  if (storage_policy_.backend != storage::Backend::kUncompressed)
    snap->store_ =
        storage::GraphStore::build(seed_, storage_policy_, page_fault_);
  snap->epoch_ = start_epoch;
  snap->num_edges_ = seed_->num_edges();
  current_ = std::move(snap);
}

std::shared_ptr<const GraphSnapshot> MutableGraph::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void MutableGraph::set_fault(const FaultConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_.emplace(cfg);
}

std::uint64_t MutableGraph::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injector_.has_value() ? injector_->total_injected() : 0;
}

ApplyResult MutableGraph::apply(
    const UpdateBatch& batch,
    const std::function<void(const ApplyResult&)>& pre_publish) {
  std::lock_guard<std::mutex> lock(mu_);
  const GraphSnapshot& cur = *current_;
  // Redundancy checks below read store-backed adjacency (has_edge); the
  // lease keeps a trim_decoded() racing in from a query-completion thread
  // from freeing decoded lists under us.
  const storage::GraphStore::Lease storage_lease = cur.storage_lease();
  const VertexId n = cur.num_vertices();

  const auto ins = normalize_edges(batch.insertions, n, "inserted edge");
  const auto del = normalize_edges(batch.deletions, n, "deleted edge");
  {
    std::vector<EdgePair> both;
    std::set_intersection(ins.begin(), ins.end(), del.begin(), del.end(),
                          std::back_inserter(both));
    STM_CHECK_MSG(both.empty(),
                  "edge (" << both.front().first << "," << both.front().second
                           << ") is both inserted and deleted in one batch");
  }

  ApplyResult result;
  // Redundancy is resolved against the *current* version, so the effective
  // delta is exactly the symmetric difference this batch causes.
  const GraphView cur_view = cur.view();
  for (const auto& e : ins) {
    if (cur_view.has_edge(e.first, e.second))
      ++result.stats.ignored_existing;
    else
      result.applied.inserted.push_back(e);
  }
  for (const auto& e : del) {
    if (!cur_view.has_edge(e.first, e.second))
      ++result.stats.ignored_missing;
    else
      result.applied.deleted.push_back(e);
  }
  result.stats.inserted = result.applied.inserted.size();
  result.stats.deleted = result.applied.deleted.size();

  if (result.applied.empty()) {
    result.snapshot = current_;  // no-op batch: same version, same epoch
    return result;
  }

  // Build the successor version off to the side; `current_` is published
  // only after the whole batch (and the fault check) succeeded.
  GraphEdit edit(current_);
  for (const auto& [u, v] : result.applied.inserted) edit.add_edge(u, v);
  for (const auto& [u, v] : result.applied.deleted) edit.remove_edge(u, v);
  std::shared_ptr<const GraphSnapshot> next = edit.publish(cur.epoch_ + 1);

  if (injector_.has_value() &&
      injector_->should_fail(FaultSite::kUpdateApply, apply_seq_++)) {
    // The fully built successor is dropped; the published version is
    // untouched, so a failed apply is invisible to readers.
    throw FaultInjectedError("injected fault: update batch apply failed");
  }

  // Write-ahead point: the successor exists but is not yet visible. A hook
  // failure (torn WAL append past its retry budget) propagates and the batch
  // never publishes — memory and durable state cannot diverge.
  result.snapshot = next;
  if (pre_publish) pre_publish(result);

  current_ = std::move(next);
  result.snapshot = current_;
  return result;
}

std::shared_ptr<const GraphSnapshot> MutableGraph::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  const GraphSnapshot& cur = *current_;
  if (cur.is_compact()) return current_;
  auto base = std::make_shared<const Graph>(cur.compacted());
  auto next = std::make_shared<GraphSnapshot>(GraphSnapshot{});
  next->base_ = base;
  if (storage_policy_.backend != storage::Backend::kUncompressed)
    next->store_ =
        storage::GraphStore::build(base, storage_policy_, page_fault_);
  next->epoch_ = cur.epoch_;  // same logical graph, same epoch
  next->num_edges_ = cur.num_edges_;
  current_ = std::move(next);
  return current_;
}

GraphEdit::GraphEdit(std::shared_ptr<const GraphSnapshot> from)
    : from_(std::move(from)),
      lease_(from_->storage_lease()),
      num_edges_(from_->num_edges_),
      pages_(from_->pages_),
      owned_(pages_.size(), nullptr) {}

AdjPage& GraphEdit::own(std::size_t p) {
  if (pages_.empty()) {  // first edit of a compact version
    pages_.resize((from_->num_vertices() + kAdjPageSize - 1) / kAdjPageSize);
    owned_.resize(pages_.size(), nullptr);
  }
  if (owned_[p] == nullptr) {
    auto page = std::make_shared<AdjPage>();
    if (const AdjPage* shared = pages_[p].get()) {
      page->dirty = shared->dirty;
      page->offsets = shared->offsets;
      // Room for a few edits before the flat array has to grow.
      page->adj.reserve(shared->adj.size() + kAdjPageSize);
      page->adj.assign(shared->adj.begin(), shared->adj.end());
    }
    owned_[p] = page.get();
    pages_[p] = std::move(page);
  }
  return *owned_[p];
}

void GraphEdit::update(VertexId v, VertexId w, bool add) {
  AdjPage& page = own(v / kAdjPageSize);
  const VertexId slot = v % kAdjPageSize;
  const bool dirty = page.has(slot);
  const auto cur = dirty ? page.list(slot) : from_->base_view().neighbors(v);
  const auto it = std::lower_bound(cur.begin(), cur.end(), w);
  const bool present = it != cur.end() && *it == w;
  const auto at = it - cur.begin();
  STM_CHECK_MSG(present != add, (add ? "graph edit adds a present edge "
                                      : "graph edit removes an absent edge ")
                                     << v << "-" << w);
  // v's first edit copies its base list into its empty range of the page.
  const EdgeId old_size = dirty ? cur.size() : 0;
  const EdgeId new_size = add ? cur.size() + 1 : cur.size() - 1;
  auto first =
      page.adj.begin() + static_cast<std::ptrdiff_t>(page.offsets[slot]);
  if (!dirty) first = page.adj.insert(first, cur.begin(), cur.end());
  if (add)
    page.adj.insert(first + at, w);
  else
    page.adj.erase(first + at);
  for (VertexId s = slot + 1; s <= kAdjPageSize; ++s)
    page.offsets[s] = page.offsets[s] - old_size + new_size;
  page.dirty |= std::uint64_t{1} << slot;
}

void GraphEdit::add_edge(VertexId u, VertexId v) {
  STM_CHECK(u != v && std::max(u, v) < from_->num_vertices());
  update(u, v, true);
  update(v, u, true);
  ++num_edges_;
}

void GraphEdit::remove_edge(VertexId u, VertexId v) {
  STM_CHECK(u != v && std::max(u, v) < from_->num_vertices());
  update(u, v, false);
  update(v, u, false);
  --num_edges_;
}

std::shared_ptr<const GraphSnapshot> GraphEdit::publish(std::uint64_t epoch) {
  auto next = std::make_shared<GraphSnapshot>(GraphSnapshot{});
  next->base_ = from_->base_;
  next->store_ = from_->store_;  // base unchanged: versions share the backend
  next->epoch_ = epoch;
  next->num_edges_ = num_edges_;
  next->pages_ = pages_;
  // Every page is now part of `next`: the next write to one copies it.
  std::fill(owned_.begin(), owned_.end(), nullptr);
  return next;
}

}  // namespace stm
