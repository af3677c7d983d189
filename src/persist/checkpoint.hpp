// Durable checkpoints of a GraphSession (DESIGN.md §13).
//
// A checkpoint is one self-contained file: the compacted CSR of the current
// graph version, the epoch it represents, the last WAL LSN it covers, and
// the session manifest (standing queries with their cumulative counts, the
// next standing id). Installation is atomic: the bytes are written to a
// temp file, fsynced, renamed into place, and the directory entry fsynced —
// a crash at any point leaves either the previous checkpoint set or the
// previous set plus one complete new file, never a half-written one that
// would be mistaken for valid (the whole payload is crc-framed, so a torn
// rename target is detected and skipped at load).
//
// The store keeps the newest two checkpoints: if the newest fails its crc
// (torn by a crashed writer that somehow completed the rename, or by disk
// corruption), load falls back to the previous one, and the WAL — which is
// only reset after a successful install — still carries every record the
// older checkpoint misses.
//
// FaultSite::kCheckpointWrite chaos: an injected fault garbles the temp
// file's bytes; the writer deletes it and retries, failing closed (no new
// checkpoint, previous set untouched, WAL intact) on exhaustion.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "graph/graph.hpp"
#include "persist/wal.hpp"

namespace stm::persist {

inline constexpr char kCheckpointMagic[] = "STMCKPT1";
inline constexpr std::size_t kCheckpointMagicSize = 8;

struct CheckpointData {
  /// Monotone checkpoint sequence number (also the filename key).
  std::uint64_t seq = 0;
  /// Graph epoch of `graph`.
  std::uint64_t epoch = 0;
  /// Every WAL record with lsn <= last_lsn is folded into this checkpoint;
  /// recovery replays only newer records (covers a crash between the
  /// checkpoint rename and the WAL reset).
  std::uint64_t last_lsn = 0;
  std::uint64_t next_standing_id = 1;
  /// Compacted CSR of the checkpointed version (labels included).
  Graph graph;
  /// Standing-query manifest with cumulative counts — restored without
  /// re-enumeration.
  std::vector<StandingEntry> standing;
};

std::string encode_checkpoint(const CheckpointData& data);
/// Throws check_error on a torn or garbled file.
CheckpointData decode_checkpoint(std::string_view bytes);

struct CheckpointLoadResult {
  std::optional<CheckpointData> data;
  /// Newer checkpoint files skipped because they failed validation.
  std::uint64_t skipped_corrupt = 0;
};

/// Filesystem backend for checkpoint files in one directory.
class CheckpointStore {
 public:
  /// `injector` (nullable) drives FaultSite::kCheckpointWrite with
  /// `max_attempts` tries per install.
  CheckpointStore(std::string dir, bool fsync, FaultInjector* injector,
                  std::uint32_t max_attempts);

  /// Atomically installs `data` (temp + fsync + rename + dir fsync) and
  /// prunes all but the newest two checkpoints. Throws FaultInjectedError
  /// when the chaos budget is exhausted; the previous set is untouched.
  void write(const CheckpointData& data);

  /// Loads the newest checkpoint that validates, skipping corrupt ones.
  CheckpointLoadResult load_newest() const;

  /// Checkpoint sequence numbers present (sorted ascending), valid or not.
  std::vector<std::uint64_t> list() const;

  std::string path_for(std::uint64_t seq) const;
  const std::string& dir() const { return dir_; }
  std::uint64_t faults_injected() const { return faults_injected_; }

 private:
  std::string dir_;
  bool fsync_ = true;
  FaultInjector* injector_ = nullptr;
  std::uint32_t max_attempts_ = 1;
  std::uint64_t faults_injected_ = 0;
};

}  // namespace stm::persist
