// Clock-eviction resident-page cache with fault-injected, fail-closed reads.
//
// The pager is the only component that touches spill-file bytes. Every fetch
// revalidates length + CRC-32 after the (fault-injectable) raw read, so a
// short or garbled read — injected via FaultSite::kPageRead or real — is
// detected before a single byte is decoded. Failed reads retry with a bumped
// attempt key up to FaultConfig::max_unit_attempts (the §9 budget), then
// fail closed with PageReadError: a corrupt page is never served.
//
// Pages are handed out as shared_ptr<const string>, so eviction can drop a
// frame while a reader still decodes from it; the cache's resident
// accounting covers only frames it holds. Eviction is clock (second chance)
// over the page table, strictly bounded by budget_bytes — except that the
// single page being served is always allowed to be resident, so any budget
// (even one smaller than one page) makes progress.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "storage/pagefile.hpp"

namespace stm::storage {

/// A page that failed validation on every read attempt of its budget. The
/// storage, not the request, is at fault, so it is not a check_error: the
/// session reports kInternalError, and its retry and fallback hear of it.
class PageReadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PagerStats {
  std::uint64_t hits = 0;
  std::uint64_t faults = 0;      // page misses served from the file
  std::uint64_t evictions = 0;
  std::uint64_t injected_read_faults = 0;  // kPageRead firings observed
  std::uint64_t resident_bytes = 0;        // frames currently held
};

class PageCache {
 public:
  /// `budget_bytes` of 0 means unlimited (every touched page stays
  /// resident). `fault` carries the kPageRead schedule.
  PageCache(PageFile file, std::uint64_t budget_bytes,
            const FaultConfig& fault);

  const PageFile& file() const { return file_; }
  std::uint64_t budget_bytes() const { return budget_; }

  /// Returns page `page`'s validated payload, faulting it in if needed.
  /// Throws PageReadError, naming the page, after the retry budget is
  /// exhausted.
  std::shared_ptr<const std::string> get_page(std::uint32_t page);

  PagerStats stats() const;

 private:
  void evict_locked(std::uint32_t keep_page);
  std::shared_ptr<const std::string> fetch_validated(std::uint32_t page);

  PageFile file_;
  std::uint64_t budget_;
  FaultInjector injector_;

  mutable std::mutex mu_;
  struct Frame {
    std::shared_ptr<const std::string> data;  // null = not resident
    bool referenced = false;                  // clock second-chance bit
  };
  std::vector<Frame> frames_;
  std::uint32_t clock_hand_ = 0;
  std::uint64_t resident_bytes_ = 0;
  std::size_t resident_frames_ = 0;  // frames whose data is set
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace stm::storage
