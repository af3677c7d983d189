#include "storage/pager.hpp"

#include <sstream>

#include "persist/codec.hpp"
#include "util/check.hpp"

namespace stm::storage {

PageCache::PageCache(PageFile file, std::uint64_t budget_bytes,
                     const FaultConfig& fault)
    : file_(std::move(file)), budget_(budget_bytes), injector_(fault) {
  frames_.resize(file_.num_pages());
}

std::shared_ptr<const std::string> PageCache::fetch_validated(
    std::uint32_t page) {
  const PageEntry& entry = file_.page_entry(page);
  const std::uint32_t attempts = injector_.config().max_unit_attempts;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    std::string bytes;
    const bool io_ok = file_.read_page(page, bytes);
    // The injection point sits between the raw read and validation, exactly
    // where a torn read or bit-rot would land. The key folds the attempt in
    // so a transient fault clears deterministically on retry.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(page) << 8) ^ attempt;
    if (injector_.should_fail(FaultSite::kPageRead, key)) {
      if (key & 1) {
        bytes.resize(bytes.size() / 2);  // short read
      } else if (!bytes.empty()) {
        bytes[bytes.size() / 2] ^= 0x40;  // garbled byte
      }
    }
    if (io_ok && bytes.size() == entry.payload_len &&
        persist::crc32(bytes) == entry.crc) {
      return std::make_shared<const std::string>(std::move(bytes));
    }
  }
  std::ostringstream os;
  os << "storage: page " << page << " failed validation after " << attempts
     << " read attempts (short read or CRC mismatch); failing closed";
  throw check_error(os.str());
}

void PageCache::evict_locked(std::uint32_t keep_page) {
  if (budget_ == 0) return;
  // Clock sweep: clear reference bits until a victim turns up. Bounded by
  // 2 passes over the table per eviction; always keeps `keep_page`.
  while (resident_bytes_ > budget_ && resident_frames_ > 1) {
    for (std::size_t step = 0; step < 2 * frames_.size(); ++step) {
      Frame& f = frames_[clock_hand_];
      const std::uint32_t victim = clock_hand_;
      clock_hand_ = (clock_hand_ + 1) % static_cast<std::uint32_t>(frames_.size());
      if (!f.data || victim == keep_page) continue;
      if (f.referenced) {
        f.referenced = false;
        continue;
      }
      resident_bytes_ -= f.data->size();
      f.data.reset();
      --resident_frames_;
      evictions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
}

std::shared_ptr<const std::string> PageCache::get_page(std::uint32_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[page];
  if (f.data) {
    f.referenced = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return f.data;
  }
  faults_.fetch_add(1, std::memory_order_relaxed);
  auto data = fetch_validated(page);
  f.data = data;
  f.referenced = true;
  resident_bytes_ += data->size();
  ++resident_frames_;
  evict_locked(page);
  return data;
}

PagerStats PageCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PagerStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.injected_read_faults = injector_.injected(FaultSite::kPageRead);
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace stm::storage
