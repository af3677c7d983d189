// Durability front end of GraphSession (DESIGN.md §13).
//
// One PersistenceManager owns a state directory holding
//
//   wal.stmwal                      the write-ahead log
//   checkpoint-<seq>.stmckpt        durable snapshots (newest two kept)
//
// and coordinates the two: every acknowledged mutation is WAL-logged first
// (log_update / log_register / log_unregister, called from the session's
// write-ahead hooks), and each batch's standing counts follow its walk
// (log_counts); install_checkpoint atomically persists a compacted
// snapshot + manifest and then truncates the log back to its header, since
// every record with lsn <= checkpoint.last_lsn is now folded in.
//
// Recovery (`recover`, run before the session accepts traffic) loads the
// newest checkpoint that validates — falling back to the previous one on a
// checksum mismatch — reads the WAL, discards the torn tail, and returns
// the records newer than the checkpoint for the session to replay through
// its normal apply path (walking only the batches after the newest counts
// record). The combination is exact: acknowledged mutations survive any
// kill point, unacknowledged ones vanish atomically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace stm::persist {

struct PersistenceConfig {
  /// State directory (created if missing). Empty disables persistence.
  std::string dir;
  /// fsync WAL appends and checkpoint installs. Turning this off trades
  /// power-loss durability for throughput; process-kill durability (the
  /// acceptance property of the kill-matrix tests) is unaffected because
  /// the page cache survives the process.
  bool fsync = true;
  /// Install a checkpoint automatically after this many applied batches;
  /// 0 = only explicit GraphSession::checkpoint() calls.
  std::uint32_t checkpoint_every_batches = 0;
  /// Chaos schedule for FaultSite::kWalAppend / kCheckpointWrite.
  FaultConfig fault;

  bool enabled() const { return !dir.empty(); }
};

/// What recovery did (surfaced through GraphSession::recovery_report()).
struct RecoveryReport {
  /// True when a state directory with prior state was found.
  bool recovered = false;
  bool checkpoint_loaded = false;
  std::uint64_t checkpoint_seq = 0;
  std::uint64_t checkpoint_epoch = 0;
  /// Newer checkpoint files skipped for failing validation.
  std::uint64_t checkpoints_skipped = 0;
  std::uint64_t replayed_batches = 0;
  /// Replayed batches that ran the standing-query walk: those after the
  /// newest standing-counts record, while a registration was live (the
  /// rest take their counts from that record). Filled by the session.
  std::uint64_t walked_batches = 0;
  std::uint64_t replayed_registrations = 0;
  std::uint64_t replayed_unregistrations = 0;
  /// WAL records skipped because the checkpoint already covered them
  /// (crash between checkpoint install and WAL reset).
  std::uint64_t skipped_records = 0;
  bool wal_torn_tail = false;
  std::uint64_t wal_discarded_bytes = 0;
  /// Wall time of the whole recovery (load + replay), ms, from the start of
  /// the session's construction; filled by the session.
  double recovery_ms = 0.0;
};

/// Prior state handed to the session for replay.
struct RecoveredState {
  std::optional<CheckpointData> checkpoint;
  /// WAL records newer than the checkpoint, in LSN order.
  std::vector<WalRecord> tail;
  RecoveryReport report;
  /// Valid-prefix length of the WAL file (the writer truncates to it).
  std::uint64_t wal_valid_bytes = 0;
  /// First LSN the writer hands out.
  std::uint64_t next_lsn = 1;
};

class PersistenceManager {
 public:
  explicit PersistenceManager(PersistenceConfig cfg);

  /// Loads checkpoint + WAL tail. Call once, before open_wal.
  RecoveredState recover();

  /// Opens the WAL for appending, truncating the torn tail first. Must be
  /// called (with RecoveredState::next_lsn / wal_valid_bytes) before any
  /// log_* call.
  void open_wal(std::uint64_t next_lsn, std::uint64_t truncate_to);

  WalAppendResult log_update(std::uint64_t epoch, const DeltaEdges& delta);
  WalAppendResult log_register(const StandingEntry& entry, std::uint64_t epoch);
  WalAppendResult log_unregister(std::uint64_t id, std::uint64_t epoch);
  /// Not fsynced on its own (WalWriter::append_counts).
  WalAppendResult log_counts(std::uint64_t epoch, const StandingCounts& counts);

  /// Atomically installs `data` and truncates the WAL it covers. Throws
  /// FaultInjectedError on an exhausted kCheckpointWrite budget — the WAL
  /// and previous checkpoints still hold everything, so the session keeps
  /// running un-checkpointed.
  void install_checkpoint(CheckpointData data);

  /// LSN of the last durable record (0 when none since the last reset).
  std::uint64_t last_lsn() const {
    return wal_ != nullptr ? wal_->next_lsn() - 1 : 0;
  }
  std::uint64_t faults_injected() const {
    return (wal_ != nullptr ? wal_->faults_injected() : 0) +
           store_.faults_injected();
  }

  const PersistenceConfig& config() const { return cfg_; }
  std::string wal_path() const;

 private:
  PersistenceConfig cfg_;
  std::unique_ptr<FaultInjector> injector_;  // non-movable (atomic counters)
  CheckpointStore store_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t next_checkpoint_seq_ = 1;
};

}  // namespace stm::persist
