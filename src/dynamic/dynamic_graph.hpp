// Dynamic graph subsystem: batched updates over an immutable CSR base.
//
// A MutableGraph layers batched edge insertions/deletions over the loaded
// CSR. Mutation never touches the base arrays: every applied batch publishes
// a fresh immutable GraphSnapshot, the base plus one AdjPage (graph/view.hpp)
// per kAdjPageSize vertices holding the merged, sorted neighbor lists of its
// dirty vertices. A version shares every page its batch did not touch with
// its predecessor. In-flight queries keep the shared_ptr of the snapshot they
// started on and therefore read an epoch-consistent version while writers
// apply the next batch — a page is never written after publication, so
// concurrent readers are race-free by construction. GraphEdit builds every
// version: session batches and the test oracles' prefix graphs.
//
// `compact()` rebuilds the CSR from the current version (folding the pages
// in) without changing the logical graph, so the epoch is kept; `apply()`
// bumps the monotone epoch, which names the version a query ran on. Plans
// read no graph, so a batch leaves every cached plan valid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "storage/store.hpp"

namespace stm {

/// One batch of undirected edge updates. Pairs may be in any order and may
/// contain duplicates; `MutableGraph::apply` normalizes them. An edge listed
/// in both vectors is rejected as kInvalidArgument-class misuse.
struct UpdateBatch {
  std::vector<std::pair<VertexId, VertexId>> insertions;
  std::vector<std::pair<VertexId, VertexId>> deletions;

  bool empty() const { return insertions.empty() && deletions.empty(); }
};

/// What a batch actually changed. Inserting a present edge / deleting an
/// absent one is not an error — redundant updates are a fact of live feeds —
/// but it is reported.
struct UpdateStats {
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
  std::uint64_t ignored_existing = 0;  // insertions of already-present edges
  std::uint64_t ignored_missing = 0;   // deletions of absent edges
};

/// A normalized set of undirected delta edges (u < v, sorted, unique).
struct DeltaEdges {
  std::vector<std::pair<VertexId, VertexId>> inserted;
  std::vector<std::pair<VertexId, VertexId>> deleted;

  bool empty() const { return inserted.empty() && deleted.empty(); }
  std::size_t size() const { return inserted.size() + deleted.size(); }
  bool operator==(const DeltaEdges&) const = default;
};

/// One immutable version of the evolving graph: the CSR base plus merged
/// adjacency pages for the vertices whose neighborhood may differ from it.
/// Create via MutableGraph or GraphEdit; all members are written once during
/// construction and only read afterwards.
class GraphSnapshot {
 public:
  /// The engines' adjacency interface over this version. The view borrows
  /// this snapshot's page table: keep the snapshot (shared_ptr) alive while
  /// any engine run uses the view. When a storage backend is attached, clean
  /// vertices read through it (compressed or spill) and dirty vertices
  /// read their pages — engines can't tell the difference.
  GraphView view() const { return base_view().with_pages(pages_); }

  std::uint64_t epoch() const { return epoch_; }
  VertexId num_vertices() const { return base_->num_vertices(); }
  /// Undirected edge count of this version (base edges + net delta).
  EdgeId num_edges() const { return num_edges_; }

  /// Store-safe point probe: takes its own storage lease, so it is safe to
  /// call without pinning the decode cache first.
  bool has_edge(VertexId u, VertexId v) const;

  /// True when no vertex has a merged list, so every list is read from the
  /// base and view() has no page table (right after construction or
  /// compact()). A batch that nets to nothing still leaves its endpoints
  /// dirty.
  bool is_compact() const { return pages_.empty(); }

  /// The CSR this version layers over.
  const Graph& base() const { return *base_; }

  /// The storage backend serving clean-vertex adjacency (null = raw CSR).
  const std::shared_ptr<const storage::GraphStore>& store() const {
    return store_;
  }

  /// Pins the store's decoded-list cache for the duration of an engine run
  /// over view(); a no-op lease when no store is attached.
  storage::GraphStore::Lease storage_lease() const {
    return store_ != nullptr ? store_->lease() : storage::GraphStore::Lease();
  }

  /// Resident bytes of this version's base representation (store or CSR)
  /// plus its page table and pages (pages shared with other versions
  /// included).
  std::uint64_t memory_bytes() const;

  /// Materializes a standalone CSR Graph equal to this version (labels
  /// preserved). This is the reference side of the differential tests.
  Graph compacted() const;

 private:
  friend class MutableGraph;
  friend class GraphEdit;
  GraphSnapshot() = default;

  GraphView base_view() const {
    return store_ != nullptr ? store_->view() : GraphView(*base_);
  }

  std::shared_ptr<const Graph> base_;
  std::shared_ptr<const storage::GraphStore> store_;  // null = raw CSR base
  std::uint64_t epoch_ = 0;
  EdgeId num_edges_ = 0;
  /// One entry per kAdjPageSize vertices (null = the page is clean); empty
  /// when compact. Pages are immutable and shared between versions.
  std::vector<std::shared_ptr<const AdjPage>> pages_;
};

/// The builder of graph versions: the edge edits on top of `from`, copying a
/// page the first time it writes to it after construction or a publish, so
/// every version it publishes shares its untouched pages with `from` and
/// with each other. Not thread-safe; cheap to create per delta computation.
class GraphEdit {
 public:
  explicit GraphEdit(std::shared_ptr<const GraphSnapshot> from);

  /// Adds/removes an undirected edge. A self-loop, an endpoint outside the
  /// graph, adding a present edge or removing an absent one is a checked
  /// precondition violation.
  void add_edge(VertexId u, VertexId v);
  void remove_edge(VertexId u, VertexId v);

  /// Adjacency view over `from` plus the edits so far. Borrow only between
  /// mutations: add/remove may reallocate a page's lists.
  GraphView view() const { return from_->base_view().with_pages(pages_); }

  /// Freezes the edits so far into an immutable version at `epoch`; later
  /// edits copy the pages they write to and leave it untouched.
  std::shared_ptr<const GraphSnapshot> publish(std::uint64_t epoch);

 private:
  /// Page p, copied unless this edit allocated it since the last publish.
  AdjPage& own(std::size_t p);
  /// Inserts (`add`) or erases w in v's merged list.
  void update(VertexId v, VertexId w, bool add);

  std::shared_ptr<const GraphSnapshot> from_;
  /// Clean vertices read through `from`'s store on every view(); the edit
  /// pins the decode cache for its whole lifetime.
  storage::GraphStore::Lease lease_;
  EdgeId num_edges_ = 0;
  /// `from`'s page table with this edit's pages swapped in (empty until the
  /// first edit of a compact version).
  std::vector<std::shared_ptr<const AdjPage>> pages_;
  /// owned_[p]: page p as allocated by this edit since the last publish,
  /// writable; null when pages_[p] may be shared with another version.
  std::vector<AdjPage*> owned_;
};

struct ApplyResult {
  /// The newly published version.
  std::shared_ptr<const GraphSnapshot> snapshot;
  UpdateStats stats;
  /// The effective (deduplicated, redundancy-stripped) delta this batch
  /// applied — exactly what IncrementalMatcher::count_delta consumes.
  DeltaEdges applied;
};

/// The single-writer mutation front end. Readers call snapshot() (cheap:
/// one mutex-guarded shared_ptr copy) and never block behind a writer for
/// the duration of a query.
class MutableGraph {
 public:
  /// `start_epoch` seeds the version counter; crash recovery constructs the
  /// graph at its checkpointed epoch so replayed batches reproduce the exact
  /// epoch sequence of the uninterrupted run. `storage` selects the backend
  /// serving clean-vertex adjacency (default: raw CSR); compact() re-encodes
  /// the folded graph under the same policy. `fault` drives
  /// FaultSite::kPageRead of every store this graph builds.
  explicit MutableGraph(Graph base, std::uint64_t start_epoch = 0,
                        storage::StoragePolicy storage = {},
                        const FaultConfig& fault = {});

  /// The current version.
  std::shared_ptr<const GraphSnapshot> snapshot() const;

  /// Current epoch (bumped by every non-empty apply, kept by compact).
  std::uint64_t epoch() const { return snapshot()->epoch(); }

  /// The seed CSR this graph started from (alive for the session lifetime).
  const Graph& base() const { return *seed_; }

  /// Applies one batch atomically: the new snapshot is fully built, then
  /// published; a failure (validation or injected kUpdateApply fault) leaves
  /// the current version untouched. Throws check_error on self-loops,
  /// out-of-range vertices, or edges listed as both inserted and deleted.
  ///
  /// `pre_publish`, when set, runs after the successor snapshot is fully
  /// built (result.snapshot points at it) but before it becomes visible —
  /// the write-ahead point of the durability layer: the hook appends the
  /// normalized batch to the WAL, and if it throws, the batch is dropped and
  /// the published version stays untouched. The hook is not invoked for
  /// no-op batches (empty effective delta: no epoch bump, nothing to log).
  ApplyResult apply(const UpdateBatch& batch,
                    const std::function<void(const ApplyResult&)>&
                        pre_publish = nullptr);

  /// Rebuilds the CSR from the current version (a no-op when it is already
  /// compact). The logical graph and epoch are unchanged; the returned
  /// snapshot has no merged lists. Live readers of older snapshots are
  /// unaffected (they share the old base).
  std::shared_ptr<const GraphSnapshot> compact();

  /// Installs a fault-injection schedule (FaultSite::kUpdateApply fires a
  /// FaultInjectedError after batch validation, before publication).
  void set_fault(const FaultConfig& cfg);
  /// kUpdateApply firings so far.
  std::uint64_t faults_injected() const;

 private:
  std::shared_ptr<const Graph> seed_;
  storage::StoragePolicy storage_policy_;
  FaultConfig page_fault_;
  mutable std::mutex mu_;
  std::shared_ptr<const GraphSnapshot> current_;
  std::optional<FaultInjector> injector_;
  std::uint64_t apply_seq_ = 0;  // fault-decision key
};

}  // namespace stm
