// GraphStore: the pluggable storage backend behind the GraphView seam.
//
// A store owns one immutable graph in one of three representations and
// implements AdjacencySource, so a GraphView over it is indistinguishable —
// to every engine — from a view over a raw CSR:
//
//   kUncompressed  the plain Graph (shared), zero overhead
//   kCompressed    delta/varint blob with skip anchors (compressed.hpp)
//   kSpill         the same encoding in a page file on disk; only a
//                  clock-evicted page cache under memory_budget_bytes plus
//                  the index is resident (pagefile.hpp, pager.hpp)
//
// Engines hold neighbor spans across deep recursion, so decoded lists must
// stay stable for a whole engine run: first-touch decode publishes a
// per-vertex heap list (append-only, lock-striped), and the decode cache is
// only reclaimed by trim_decoded() while no Lease is outstanding. The spill
// page cache underneath is strictly budget-bounded at all times (decoded
// lists copy out of page frames); the decode cache is per-run working
// memory, reported separately and reclaimed between runs. On spill it also
// holds each page it decoded from, so a run reads a page from the file at
// most once.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "storage/compressed.hpp"
#include "storage/pager.hpp"

namespace stm::storage {

enum class Backend : std::uint8_t {
  kAuto = 0,  // resolved at build time (see choose_backend)
  kUncompressed,
  kCompressed,
  kSpill,
};

const char* to_string(Backend b);
/// Parses the to_string form ("auto", "uncompressed", "compressed",
/// "spill"); returns false on unknown names.
bool backend_from_string(std::string_view name, Backend& out);

/// Per-graph storage policy, carried in SessionConfig.
struct StoragePolicy {
  Backend backend = Backend::kUncompressed;
  /// Neighbors per skip-anchor block.
  std::uint32_t block_size = kDefaultBlockSize;
  /// Hard bound on the spill tier's resident page cache; 0 = unlimited.
  /// Ignored by non-spill backends.
  std::uint64_t memory_budget_bytes = 0;
  /// Spill page capacity in bytes.
  std::uint32_t page_size = kDefaultPageSize;
  /// Directory for spill files; empty = the system temp directory. The
  /// store deletes its file on destruction.
  std::string spill_dir;
};

/// Deterministic auto selection: empty graphs stay uncompressed, a budget
/// means spill, and anything else is compressed.
Backend choose_backend(const Graph& g, const StoragePolicy& policy);

/// Point-in-time counters/footprint of one store.
struct StorageStats {
  Backend backend = Backend::kUncompressed;
  /// What the uncompressed CSR holds (or would hold).
  std::uint64_t raw_bytes = 0;
  /// Bytes the store keeps resident: CSR (uncompressed), blob + index
  /// (compressed), index + page cache frames (spill). Excludes the decode
  /// cache, reported separately.
  std::uint64_t resident_bytes = 0;
  /// Total encoded representation (resident or on disk): the denominator of
  /// compression_ratio.
  std::uint64_t encoded_bytes = 0;
  /// raw_bytes / encoded_bytes (1.0 for uncompressed).
  double compression_ratio = 1.0;
  /// Lease-scoped decoded-list working memory currently held, spill pages
  /// held for the run included.
  std::uint64_t decoded_cache_bytes = 0;
  std::uint64_t decode_ops = 0;
  /// Spill only.
  std::uint64_t page_faults = 0;
  std::uint64_t page_hits = 0;
  std::uint64_t page_evictions = 0;
  std::uint64_t injected_page_faults = 0;
  std::uint64_t file_bytes = 0;
};

class GraphStore final : public AdjacencySource {
 public:
  /// Encodes `g` under `policy` (kAuto resolved here). For non-uncompressed
  /// backends the store drops its Graph reference after encoding — callers
  /// that also drop theirs get true out-of-core serving. `fault` drives the
  /// spill pager's FaultSite::kPageRead.
  static std::shared_ptr<GraphStore> build(std::shared_ptr<const Graph> g,
                                           const StoragePolicy& policy,
                                           const FaultConfig& fault = {});
  static std::shared_ptr<GraphStore> build(Graph g,
                                           const StoragePolicy& policy,
                                           const FaultConfig& fault = {}) {
    return build(std::make_shared<const Graph>(std::move(g)), policy, fault);
  }

  ~GraphStore() override;
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// A view reading through this store. Hold a Lease for the duration of
  /// any engine run over the view.
  GraphView view() const { return GraphView(*this); }

  /// Blocks trim_decoded() while alive; nestable and movable.
  class Lease {
   public:
    Lease() = default;
    explicit Lease(const GraphStore* store);
    Lease(Lease&& o) noexcept : store_(o.store_) { o.store_ = nullptr; }
    Lease& operator=(Lease&& o) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }
    void release();

   private:
    const GraphStore* store_ = nullptr;
  };
  Lease lease() const { return Lease(this); }

  /// Frees the decoded-list cache and the spill pages it holds. Returns
  /// false (and does nothing) while any Lease is outstanding — spans handed
  /// to a running engine stay valid.
  bool trim_decoded() const;

  StorageStats stats() const;

  // AdjacencySource:
  VertexId source_num_vertices() const override { return n_; }
  std::span<const VertexId> source_neighbors(VertexId v) const override;
  EdgeId source_degree(VertexId v) const override;
  bool source_has_edge(VertexId u, VertexId v) const override;
  EdgeId source_num_adjacency_entries() const override { return m2_; }
  const Label* source_labels() const override;

 private:
  GraphStore() = default;
  /// Caller holds stripe_of(v).
  void decode_vertex(VertexId v, std::vector<VertexId>& out) const;
  /// The lock guarding v's list slot: a spill vertex shares its page's
  /// stripe, so one lock covers the page slot and its vertices' lists.
  std::mutex& stripe_of(VertexId v) const;

  Backend backend_ = Backend::kUncompressed;
  VertexId n_ = 0;
  EdgeId m2_ = 0;
  std::uint64_t raw_bytes_ = 0;

  // kUncompressed.
  std::shared_ptr<const Graph> graph_;

  // kCompressed.
  CompressedGraph comp_;

  // kSpill.
  std::unique_ptr<PageCache> pager_;
  std::string spill_path_;
  bool owns_spill_file_ = false;

  // Decode cache (compressed + spill): per-vertex stable heap lists,
  // published once, freed only via trim_decoded() when no lease is held.
  struct DecodeSlot {
    std::atomic<const std::vector<VertexId>*> list{nullptr};
  };
  static constexpr std::size_t kStripes = 32;
  mutable std::unique_ptr<DecodeSlot[]> slots_;
  // Spill only, one slot per page, guarded by stripe page % kStripes: the
  // validated bytes of each page this run decoded from, so later decodes
  // from it skip the pager. Counted in decoded_bytes_ and dropped by
  // trim_decoded(). The trade: a run holds at most one copy of every page
  // it touched (at most the encoded file) beside its decoded lists, and a
  // sparse run that decodes one list from each of many pages keeps all of
  // them until trim.
  mutable std::vector<std::shared_ptr<const std::string>> held_pages_;
  mutable std::array<std::mutex, kStripes> stripes_;
  mutable std::mutex lease_mu_;
  mutable std::int64_t leases_ = 0;  // guarded by lease_mu_
  mutable std::atomic<std::uint64_t> decoded_bytes_{0};
  mutable std::atomic<std::uint64_t> decode_ops_{0};
};

}  // namespace stm::storage
