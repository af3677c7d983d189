#include "persist/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "persist/codec.hpp"
#include "util/check.hpp"

namespace stm::persist {

namespace {

constexpr std::size_t kFrameHeaderSize = 8;  // u32 len + u32 crc

void encode_edges(BinaryWriter& w,
                  const std::vector<std::pair<VertexId, VertexId>>& edges) {
  w.u32(static_cast<std::uint32_t>(edges.size()));
  for (const auto& [u, v] : edges) {
    w.u32(u);
    w.u32(v);
  }
}

std::vector<std::pair<VertexId, VertexId>> decode_edges(BinaryReader& r) {
  const std::uint32_t n = r.count(2 * sizeof(VertexId));
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const VertexId u = r.u32();
    const VertexId v = r.u32();
    edges.emplace_back(u, v);
  }
  return edges;
}

void encode_counts(BinaryWriter& w, const StandingCounts& counts) {
  w.u32(static_cast<std::uint32_t>(counts.size()));
  for (const auto& [id, count] : counts) {
    w.u64(id);
    w.u64(count);
  }
}

/// One frame: length + crc + payload.
std::string frame_payload(const std::string& payload) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  std::string out = w.take();
  out += payload;
  return out;
}

void write_all(int fd, const char* data, std::size_t n, std::uint64_t offset,
               const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    STM_CHECK_MSG(w > 0, "WAL write to " << path
                                         << " failed: " << std::strerror(errno));
    data += w;
    n -= static_cast<std::size_t>(w);
    offset += static_cast<std::uint64_t>(w);
  }
}

}  // namespace

void encode_standing(BinaryWriter& w, const StandingEntry& e) {
  w.u64(e.id);
  w.str(e.pattern);
  w.u8(static_cast<std::uint8_t>(e.plan.induced));
  w.u8(e.plan.code_motion ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(e.plan.count_mode));
  w.u8(0);  // delta-engine byte (see wal.hpp)
  w.u64(e.count);
  w.u64(e.epoch);
  w.u64(e.batches);
  w.u64(std::bit_cast<std::uint64_t>(e.full_ms));
}

StandingEntry decode_standing(BinaryReader& r) {
  StandingEntry e;
  e.id = r.u64();
  e.pattern = r.str();
  const std::uint8_t induced = r.u8();
  STM_CHECK_MSG(induced <= 1, "corrupt standing entry: bad induced mode");
  e.plan.induced = static_cast<Induced>(induced);
  e.plan.code_motion = r.u8() != 0;
  const std::uint8_t mode = r.u8();
  STM_CHECK_MSG(mode <= 1, "corrupt standing entry: bad count mode");
  e.plan.count_mode = static_cast<CountMode>(mode);
  STM_CHECK_MSG(r.u8() <= 1, "corrupt standing entry: bad delta engine");
  e.count = r.u64();
  e.epoch = r.u64();
  e.batches = r.u64();
  e.full_ms = std::bit_cast<double>(r.u64());
  return e;
}

const char* to_string(WalRecordType type) {
  switch (type) {
    case WalRecordType::kUpdateBatch: return "update_batch";
    case WalRecordType::kRegisterStanding: return "register_standing";
    case WalRecordType::kUnregisterStanding: return "unregister_standing";
    case WalRecordType::kStandingCounts: return "standing_counts";
  }
  return "unknown";
}

std::string encode_record(const WalRecord& rec) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(rec.type));
  w.u64(rec.lsn);
  w.u64(rec.epoch);
  switch (rec.type) {
    case WalRecordType::kUpdateBatch:
      encode_edges(w, rec.delta.inserted);
      encode_edges(w, rec.delta.deleted);
      break;
    case WalRecordType::kRegisterStanding:
      encode_standing(w, rec.standing);
      break;
    case WalRecordType::kUnregisterStanding:
      w.u64(rec.standing_id);
      break;
    case WalRecordType::kStandingCounts:
      encode_counts(w, rec.counts);
      break;
  }
  return w.take();
}

WalRecord decode_record(std::string_view payload) {
  BinaryReader r(payload);
  WalRecord rec;
  const std::uint8_t type = r.u8();
  STM_CHECK_MSG(type >= 1 && type <= 4, "corrupt WAL record: unknown type "
                                            << static_cast<int>(type));
  rec.type = static_cast<WalRecordType>(type);
  rec.lsn = r.u64();
  rec.epoch = r.u64();
  switch (rec.type) {
    case WalRecordType::kUpdateBatch:
      rec.delta.inserted = decode_edges(r);
      rec.delta.deleted = decode_edges(r);
      break;
    case WalRecordType::kRegisterStanding:
      rec.standing = decode_standing(r);
      break;
    case WalRecordType::kUnregisterStanding:
      rec.standing_id = r.u64();
      break;
    case WalRecordType::kStandingCounts: {
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t id = r.u64();
        rec.counts.emplace_back(id, r.u64());
      }
      break;
    }
  }
  STM_CHECK_MSG(r.done(), "corrupt WAL record: " << r.remaining()
                                                 << " trailing bytes");
  return rec;
}

WalReadResult read_wal(const std::string& path) {
  WalReadResult out;
  const std::optional<std::string> file = read_file(path);
  if (!file.has_value()) return out;  // no log yet: empty
  const std::string& data = *file;
  if (data.empty()) return out;  // created but never written: empty

  STM_CHECK_MSG(data.size() >= kWalMagicSize &&
                    data.compare(0, kWalMagicSize, kWalMagic) == 0,
                "not a WAL file (bad magic): " << path);
  std::size_t pos = kWalMagicSize;
  out.valid_bytes = pos;
  std::uint64_t prev_lsn = 0;
  while (pos + kFrameHeaderSize <= data.size()) {
    BinaryReader hdr(std::string_view(data).substr(pos, kFrameHeaderSize));
    const std::uint32_t len = hdr.u32();
    const std::uint32_t crc = hdr.u32();
    if (pos + kFrameHeaderSize + len > data.size()) break;  // torn: short
    const std::string_view payload =
        std::string_view(data).substr(pos + kFrameHeaderSize, len);
    if (crc32(payload) != crc) break;  // torn or garbled frame
    WalRecord rec;
    try {
      rec = decode_record(payload);
    } catch (const check_error&) {
      break;  // crc collision on garbage: still a torn tail, not fatal
    }
    if (rec.lsn <= prev_lsn) break;  // stale bytes past a reset boundary
    prev_lsn = rec.lsn;
    rec.file_offset = pos;
    rec.frame_size = kFrameHeaderSize + len;
    out.records.push_back(std::move(rec));
    pos += kFrameHeaderSize + len;
    out.valid_bytes = pos;
  }
  out.torn_tail = out.valid_bytes < data.size();
  out.discarded_bytes = data.size() - out.valid_bytes;
  out.next_lsn = prev_lsn + 1;
  return out;
}

WalWriter::WalWriter(std::string path, std::uint64_t next_lsn, bool fsync,
                     std::uint64_t truncate_to, FaultInjector* injector,
                     std::uint32_t max_attempts)
    : path_(std::move(path)),
      next_lsn_(next_lsn),
      fsync_(fsync),
      injector_(injector),
      max_attempts_(max_attempts) {
  STM_CHECK_MSG(max_attempts_ >= 1, "WAL append budget must be >= 1");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  STM_CHECK_MSG(fd_ >= 0,
                "cannot open WAL " << path_ << ": " << std::strerror(errno));
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  STM_CHECK(end >= 0);
  size_ = static_cast<std::uint64_t>(end);
  if (truncate_to > 0 && truncate_to < size_) {
    // Physically discard the torn tail recovery identified, so the next
    // append cannot resurrect stale bytes behind a new frame header.
    STM_CHECK(::ftruncate(fd_, static_cast<off_t>(truncate_to)) == 0);
    size_ = truncate_to;
  }
  if (size_ == 0) {
    write_all(fd_, kWalMagic, kWalMagicSize, 0, path_);
    size_ = kWalMagicSize;
  }
  STM_CHECK_MSG(size_ >= kWalMagicSize, "WAL " << path_ << " shorter than its magic");
  if (fsync_) STM_CHECK(::fsync(fd_) == 0);
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

WalAppendResult WalWriter::append_record(WalRecord rec, bool sync) {
  rec.lsn = next_lsn_;
  const std::string frame = frame_payload(encode_record(rec));
  const std::uint64_t start = size_;

  const bool fsync = fsync_ && sync;
  WalAppendResult res;
  res.lsn = rec.lsn;
  for (std::uint32_t attempt = 0; attempt < max_attempts_; ++attempt) {
    const std::uint64_t key = (rec.lsn << 8) ^ attempt;
    if (injector_ != nullptr &&
        injector_->should_fail(FaultSite::kWalAppend, key)) {
      // The torn bytes actually hit the file: even attempts land a short
      // prefix (crash mid-write), odd attempts a full frame with a garbled
      // payload byte (sector scribble). Repair = truncate back to the
      // record start, exactly what recovery would do to this tail.
      if (attempt % 2 == 0) {
        write_all(fd_, frame.data(), frame.size() / 2, start, path_);
      } else {
        std::string torn = frame;
        torn[torn.size() - 1] = static_cast<char>(torn.back() ^ 0x5A);
        write_all(fd_, torn.data(), torn.size(), start, path_);
      }
      ++faults_injected_;
      STM_CHECK(::ftruncate(fd_, static_cast<off_t>(start)) == 0);
      if (fsync) STM_CHECK(::fsync(fd_) == 0);
      continue;
    }
    write_all(fd_, frame.data(), frame.size(), start, path_);
    if (fsync) STM_CHECK(::fsync(fd_) == 0);
    size_ = start + frame.size();
    ++next_lsn_;
    res.bytes = frame.size();
    appended_bytes_ += frame.size();
    return res;
  }
  // Fail closed: the file is already truncated back to the record start by
  // the last repair, so durable state is exactly the pre-append state and
  // the caller must not acknowledge the mutation.
  std::string msg = "injected fault: WAL append torn ";
  msg += std::to_string(max_attempts_);
  msg += " time(s); record ";
  msg += std::to_string(rec.lsn);
  msg += " not made durable";
  throw FaultInjectedError(msg);
}

WalAppendResult WalWriter::append_update(std::uint64_t epoch,
                                         const DeltaEdges& delta) {
  WalRecord rec;
  rec.type = WalRecordType::kUpdateBatch;
  rec.epoch = epoch;
  rec.delta = delta;
  return append_record(std::move(rec));
}

WalAppendResult WalWriter::append_register(const StandingEntry& entry,
                                           std::uint64_t epoch) {
  WalRecord rec;
  rec.type = WalRecordType::kRegisterStanding;
  rec.epoch = epoch;
  rec.standing = entry;
  return append_record(std::move(rec));
}

WalAppendResult WalWriter::append_unregister(std::uint64_t id,
                                             std::uint64_t epoch) {
  WalRecord rec;
  rec.type = WalRecordType::kUnregisterStanding;
  rec.epoch = epoch;
  rec.standing_id = id;
  return append_record(std::move(rec));
}

WalAppendResult WalWriter::append_counts(std::uint64_t epoch,
                                         const StandingCounts& counts) {
  WalRecord rec;
  rec.type = WalRecordType::kStandingCounts;
  rec.epoch = epoch;
  rec.counts = counts;
  return append_record(std::move(rec), /*sync=*/false);
}

void WalWriter::reset() {
  STM_CHECK(::ftruncate(fd_, static_cast<off_t>(kWalMagicSize)) == 0);
  size_ = kWalMagicSize;
  if (fsync_) STM_CHECK(::fsync(fd_) == 0);
}

}  // namespace stm::persist
