#include "storage/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

namespace stm::storage {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kAuto: return "auto";
    case Backend::kUncompressed: return "uncompressed";
    case Backend::kCompressed: return "compressed";
    case Backend::kSpill: return "spill";
  }
  return "unknown";
}

bool backend_from_string(std::string_view name, Backend& out) {
  for (const Backend b :
       {Backend::kAuto, Backend::kUncompressed, Backend::kCompressed,
        Backend::kSpill}) {
    if (name == to_string(b)) {
      out = b;
      return true;
    }
  }
  return false;
}

namespace {

std::uint64_t raw_csr_bytes(VertexId n, EdgeId m2, bool labeled) {
  return (static_cast<std::uint64_t>(n) + 1) * sizeof(EdgeId) +
         static_cast<std::uint64_t>(m2) * sizeof(VertexId) +
         (labeled ? static_cast<std::uint64_t>(n) * sizeof(Label) : 0);
}

std::string make_spill_path(const StoragePolicy& policy) {
  static std::atomic<std::uint64_t> counter{0};
  namespace fs = std::filesystem;
  fs::path dir = policy.spill_dir.empty() ? fs::temp_directory_path()
                                          : fs::path(policy.spill_dir);
  fs::create_directories(dir);
  std::ostringstream name;
  name << "stm-spill-" << ::getpid() << '-'
       << counter.fetch_add(1, std::memory_order_relaxed) << ".pages";
  return (dir / name.str()).string();
}

}  // namespace

Backend choose_backend(const Graph& g, const StoragePolicy& policy) {
  if (g.num_vertices() == 0) return Backend::kUncompressed;
  if (policy.memory_budget_bytes > 0) return Backend::kSpill;
  return Backend::kCompressed;
}

GraphStore::Lease::Lease(const GraphStore* store) : store_(store) {
  if (store_ == nullptr) return;
  std::lock_guard<std::mutex> lock(store_->lease_mu_);
  ++store_->leases_;
}

GraphStore::Lease& GraphStore::Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    release();
    store_ = o.store_;
    o.store_ = nullptr;
  }
  return *this;
}

void GraphStore::Lease::release() {
  if (store_ == nullptr) return;
  std::lock_guard<std::mutex> lock(store_->lease_mu_);
  --store_->leases_;
  store_ = nullptr;
}

std::shared_ptr<GraphStore> GraphStore::build(std::shared_ptr<const Graph> g,
                                              const StoragePolicy& policy) {
  STM_CHECK(g != nullptr);
  auto store = std::shared_ptr<GraphStore>(new GraphStore());
  store->policy_ = policy;
  store->backend_ = policy.backend == Backend::kAuto
                        ? choose_backend(*g, policy)
                        : policy.backend;
  store->n_ = g->num_vertices();
  store->m2_ = g->num_adjacency_entries();
  store->raw_bytes_ = raw_csr_bytes(store->n_, store->m2_, g->is_labeled());
  switch (store->backend_) {
    case Backend::kUncompressed:
      store->graph_ = std::move(g);
      return store;
    case Backend::kCompressed:
      store->comp_ = CompressedGraph(*g, policy.block_size);
      break;
    case Backend::kSpill: {
      store->spill_path_ = make_spill_path(policy);
      store->owns_spill_file_ = true;
      write_page_file(store->spill_path_, *g, policy.page_size,
                      policy.block_size);
      store->pager_ = std::make_unique<PageCache>(
          PageFile::open(store->spill_path_), policy.memory_budget_bytes,
          policy.fault);
      break;
    }
    case Backend::kAuto:
      STM_CHECK_MSG(false, "storage: kAuto must be resolved before build");
  }
  store->slots_ = std::make_unique<DecodeSlot[]>(store->n_);
  // g goes out of scope here: compressed/spill stores never retain the raw
  // CSR.
  return store;
}

GraphStore::~GraphStore() {
  if (slots_ != nullptr) {
    for (VertexId v = 0; v < n_; ++v)
      delete slots_[v].list.load(std::memory_order_relaxed);
  }
  if (owns_spill_file_) {
    pager_.reset();  // close the file before unlinking
    std::error_code ec;
    std::filesystem::remove(spill_path_, ec);
  }
}

void GraphStore::decode_vertex(VertexId v, std::vector<VertexId>& out) const {
  if (backend_ == Backend::kSpill) {
    const PageFile& pf = pager_->file();
    const VertexLocation loc = pf.location(v);
    const auto page = pager_->get_page(loc.page);
    const auto* begin =
        reinterpret_cast<const std::uint8_t*>(page->data()) + loc.offset;
    const auto* end =
        reinterpret_cast<const std::uint8_t*>(page->data()) + page->size();
    STM_CHECK_MSG(loc.offset <= page->size(),
                  "storage: vertex offset past page end");
    out.clear();
    ListCursor c(begin, end, pf.block_size());
    out.reserve(c.degree());
    c.decode_remaining(out);
    return;
  }
  out.clear();
  comp_.decode_into(v, out);
}

std::span<const VertexId> GraphStore::source_neighbors(VertexId v) const {
  STM_CHECK(v < n_);
  if (backend_ == Backend::kUncompressed) return graph_->neighbors(v);
  const auto* published = slots_[v].list.load(std::memory_order_acquire);
  if (published == nullptr) {
    std::lock_guard<std::mutex> lock(stripes_[v % kStripes]);
    published = slots_[v].list.load(std::memory_order_relaxed);
    if (published == nullptr) {
      auto list = std::make_unique<std::vector<VertexId>>();
      decode_vertex(v, *list);
      list->shrink_to_fit();
      decoded_bytes_.fetch_add(
          list->capacity() * sizeof(VertexId) + sizeof(std::vector<VertexId>),
          std::memory_order_relaxed);
      decode_ops_.fetch_add(1, std::memory_order_relaxed);
      published = list.release();
      slots_[v].list.store(published, std::memory_order_release);
    }
  }
  return {published->data(), published->size()};
}

EdgeId GraphStore::source_degree(VertexId v) const {
  STM_CHECK(v < n_);
  switch (backend_) {
    case Backend::kUncompressed: return graph_->degree(v);
    case Backend::kSpill: return pager_->file().degree(v);
    default: return comp_.degree(v);
  }
}

bool GraphStore::source_has_edge(VertexId u, VertexId v) const {
  STM_CHECK(u < n_ && v < n_);
  switch (backend_) {
    case Backend::kUncompressed: return graph_->has_edge(u, v);
    case Backend::kCompressed: {
      // A decoded list answers with binary search without touching the
      // encoded bytes; otherwise the anchored seek avoids materializing
      // anything.
      const auto* listed = slots_[u].list.load(std::memory_order_acquire);
      if (listed != nullptr)
        return std::binary_search(listed->begin(), listed->end(), v);
      return comp_.has_edge(u, v);
    }
    case Backend::kSpill: {
      // Probe the lower-degree endpoint (undirected symmetry).
      const PageFile& pf = pager_->file();
      if (pf.degree(v) < pf.degree(u)) std::swap(u, v);
      const auto* listed = slots_[u].list.load(std::memory_order_acquire);
      if (listed != nullptr)
        return std::binary_search(listed->begin(), listed->end(), v);
      const VertexLocation loc = pf.location(u);
      const auto page = pager_->get_page(loc.page);
      const auto* begin =
          reinterpret_cast<const std::uint8_t*>(page->data()) + loc.offset;
      const auto* end =
          reinterpret_cast<const std::uint8_t*>(page->data()) + page->size();
      ListCursor c(begin, end, pf.block_size());
      c.seek_at_least(v);
      return !c.done() && c.value() == v;
    }
    case Backend::kAuto: break;
  }
  STM_CHECK_MSG(false, "storage: unreachable backend in has_edge");
  return false;
}

const Label* GraphStore::source_labels() const {
  switch (backend_) {
    case Backend::kUncompressed:
      return graph_->is_labeled() ? graph_->labels().data() : nullptr;
    case Backend::kSpill: return pager_->file().labels_data();
    default: return comp_.labels_data();
  }
}

bool GraphStore::trim_decoded() const {
  std::lock_guard<std::mutex> lease_lock(lease_mu_);
  if (leases_ != 0) return false;
  if (slots_ == nullptr) return true;
  // Serialize against in-flight decodes (which must themselves hold a lease,
  // but the stripe locks make the pointer swap safe regardless).
  std::array<std::unique_lock<std::mutex>, kStripes> stripe_locks;
  for (std::size_t s = 0; s < kStripes; ++s)
    stripe_locks[s] = std::unique_lock<std::mutex>(stripes_[s]);
  for (VertexId v = 0; v < n_; ++v) {
    const auto* p = slots_[v].list.exchange(nullptr, std::memory_order_acq_rel);
    delete p;
  }
  decoded_bytes_.store(0, std::memory_order_relaxed);
  return true;
}

StorageStats GraphStore::stats() const {
  StorageStats s;
  s.backend = backend_;
  s.raw_bytes = raw_bytes_;
  s.decoded_cache_bytes = decoded_bytes_.load(std::memory_order_relaxed);
  s.decode_ops = decode_ops_.load(std::memory_order_relaxed);
  switch (backend_) {
    case Backend::kUncompressed:
      s.resident_bytes = graph_->memory_bytes();
      s.encoded_bytes = s.resident_bytes;
      break;
    case Backend::kCompressed: {
      const CompressedStats cs = comp_.stats();
      s.resident_bytes = cs.total_bytes();
      s.encoded_bytes = cs.total_bytes();
      break;
    }
    case Backend::kSpill: {
      const PagerStats ps = pager_->stats();
      const PageFile& pf = pager_->file();
      s.resident_bytes = pf.index_bytes() + ps.resident_bytes;
      s.encoded_bytes = pf.index_bytes() + pf.payload_bytes();
      s.page_faults = ps.faults;
      s.page_hits = ps.hits;
      s.page_evictions = ps.evictions;
      s.injected_page_faults = ps.injected_read_faults;
      s.file_bytes = pf.file_bytes();
      break;
    }
    case Backend::kAuto: break;
  }
  s.compression_ratio =
      s.encoded_bytes == 0 ? 1.0
                           : static_cast<double>(s.raw_bytes) /
                                 static_cast<double>(s.encoded_bytes);
  return s;
}

}  // namespace stm::storage
