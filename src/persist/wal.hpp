// Write-ahead log of a persistent GraphSession (DESIGN.md §13).
//
// File layout: an 8-byte magic ("STMWAL1\n") followed by frames of
// `u32 payload_len | u32 crc32(payload) | payload`. Each payload starts with
// a record type byte and a monotone LSN; four record types exist:
//
//   kUpdateBatch        the *effective* (normalized, redundancy-stripped)
//                       delta of one applied batch plus the epoch it
//                       produced — exactly what replay feeds back through
//                       MutableGraph::apply
//   kRegisterStanding   a standing-query registration: id, pattern,
//                       semantics, and the baseline count/epoch the
//                       registration-time full enumeration established
//   kUnregisterStanding a standing-query removal by id
//   kStandingCounts     every live registration's (id, cumulative count)
//                       after one batch's walk, so replay can take the
//                       counts instead of walking the batches before it
//
// Mutation records are appended and fsynced *before* the mutation is
// acknowledged (the write-ahead discipline; see GraphSession::do_apply). A
// counts record follows its batch without an fsync of its own: it only
// saves replay work, and the next fsynced append makes it durable.
// The reader accepts any prefix of frames and stops at the first torn or
// garbled frame — a crash mid-append loses at most the unacknowledged
// record, never an acknowledged one.
//
// The writer carries the FaultSite::kWalAppend chaos hook: an injected
// fault makes the torn bytes actually hit the file, after which the writer
// truncates back to the record start and retries with a fresh decision key,
// failing closed (file restored to its pre-append state) on exhaustion.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "pattern/plan.hpp"

namespace stm::persist {

inline constexpr char kWalMagic[] = "STMWAL1\n";
inline constexpr std::size_t kWalMagicSize = 8;

enum class WalRecordType : std::uint8_t {
  kUpdateBatch = 1,
  kRegisterStanding = 2,
  kUnregisterStanding = 3,
  kStandingCounts = 4,
};

/// (registration id, cumulative count) per live standing query, ascending
/// by id: the kStandingCounts payload.
using StandingCounts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

const char* to_string(WalRecordType type);

/// Serializable state of one standing query — what a registration record
/// and a checkpoint manifest entry carry. Subscriber callbacks are process
/// state and deliberately absent: a restored query keeps counting but
/// delivers no notifications until the owner re-attaches.
struct StandingEntry {
  std::uint64_t id = 0;
  /// Pattern::to_string() form (Pattern::parse round-trips it).
  std::string pattern;
  PlanOptions plan;
  /// Cumulative count and the epoch it is valid for.
  std::uint64_t count = 0;
  std::uint64_t epoch = 0;
  std::uint64_t batches = 0;
  /// Registration-time full-enumeration wall time (speedup-gauge baseline),
  /// serialized as IEEE-754 bits.
  double full_ms = 0.0;
};

/// One decoded WAL record plus its frame geometry (file_offset/frame_size
/// are derived from the file, not serialized — the kill-matrix tests use
/// them to cut the file at every boundary).
struct WalRecord {
  WalRecordType type = WalRecordType::kUpdateBatch;
  std::uint64_t lsn = 0;
  /// kUpdateBatch: the epoch the batch produced. Register/unregister: the
  /// epoch the mutation happened at. kStandingCounts: the epoch the counts
  /// are valid for.
  std::uint64_t epoch = 0;
  /// kUpdateBatch payload.
  DeltaEdges delta;
  /// kRegisterStanding payload.
  StandingEntry standing;
  /// kUnregisterStanding payload.
  std::uint64_t standing_id = 0;
  /// kStandingCounts payload.
  StandingCounts counts;

  std::uint64_t file_offset = 0;  // of the frame's length word
  std::uint64_t frame_size = 0;   // 8-byte header + payload
};

std::string encode_record(const WalRecord& rec);
WalRecord decode_record(std::string_view payload);

class BinaryWriter;
class BinaryReader;

/// One StandingEntry's bytes, shared by registration records and checkpoint
/// manifests. The layout keeps a delta-engine byte from when standing
/// queries chose one: it is written as 0, and 0 or 1 is accepted on read,
/// so state directories written with either value still restore.
void encode_standing(BinaryWriter& w, const StandingEntry& e);
StandingEntry decode_standing(BinaryReader& r);

struct WalReadResult {
  std::vector<WalRecord> records;
  /// Byte length of the valid prefix (magic + intact frames). The file may
  /// be longer; the excess is a torn tail.
  std::uint64_t valid_bytes = 0;
  std::uint64_t discarded_bytes = 0;
  bool torn_tail = false;
  /// 1 + the last intact record's LSN (1 when the log is empty).
  std::uint64_t next_lsn = 1;
};

/// Reads every intact frame of a WAL file. A missing file reads as an empty
/// log; a bad magic throws check_error (the path is not a WAL); a torn or
/// garbled tail is reported, not thrown.
WalReadResult read_wal(const std::string& path);

/// Outcome of one append.
struct WalAppendResult {
  std::uint64_t lsn = 0;
  /// Durable frame bytes this append added (excludes torn retries).
  std::uint64_t bytes = 0;
};

/// Appender over an open WAL file. Single-writer (the session serializes
/// appends under its update lock). Every append is flushed — and every
/// mutation record fsynced when the config says so — before it returns.
class WalWriter {
 public:
  /// Opens (creating if absent) the WAL at `path`. `truncate_to` > 0 cuts
  /// the file to that length first — recovery passes the valid-prefix
  /// length so a torn tail is physically discarded before new appends.
  /// `next_lsn` seeds the LSN counter. The injector (nullable) drives the
  /// kWalAppend site with `max_attempts` (>= 1) tries per record.
  WalWriter(std::string path, std::uint64_t next_lsn, bool fsync,
            std::uint64_t truncate_to, FaultInjector* injector,
            std::uint32_t max_attempts);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  WalAppendResult append_update(std::uint64_t epoch, const DeltaEdges& delta);
  WalAppendResult append_register(const StandingEntry& entry,
                                  std::uint64_t epoch);
  WalAppendResult append_unregister(std::uint64_t id, std::uint64_t epoch);
  /// Written without an fsync: fsync flushes the whole file, so the next
  /// mutation record or reset makes it durable, and a power loss before
  /// then loses or tears only this newest record.
  WalAppendResult append_counts(std::uint64_t epoch,
                                const StandingCounts& counts);

  /// Truncates the log back to the bare magic header (after a checkpoint
  /// made every logged record redundant). LSNs keep counting — they are
  /// session-global, not file positions.
  void reset();

  std::uint64_t next_lsn() const { return next_lsn_; }
  std::uint64_t appended_bytes() const { return appended_bytes_; }
  std::uint64_t faults_injected() const { return faults_injected_; }

 private:
  WalAppendResult append_record(WalRecord rec, bool sync = true);

  std::string path_;
  int fd_ = -1;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t size_ = 0;  // current file length (append position)
  bool fsync_ = true;
  FaultInjector* injector_ = nullptr;
  std::uint32_t max_attempts_ = 1;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t faults_injected_ = 0;
};

}  // namespace stm::persist
