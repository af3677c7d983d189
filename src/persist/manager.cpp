#include "persist/manager.hpp"

#include <algorithm>
#include <filesystem>

#include "util/check.hpp"

namespace stm::persist {

namespace {
constexpr char kWalFileName[] = "wal.stmwal";
}  // namespace

PersistenceManager::PersistenceManager(PersistenceConfig cfg,
                                       const FaultConfig& fault)
    : cfg_(std::move(cfg)),
      injector_(fault),
      store_(cfg_.dir, cfg_.fsync, &injector_, fault.max_unit_attempts) {
  STM_CHECK_MSG(cfg_.enabled(),
                "PersistenceManager requires a non-empty state directory");
}

std::string PersistenceManager::wal_path() const {
  return (std::filesystem::path(cfg_.dir) / kWalFileName).string();
}

RecoveredState PersistenceManager::recover() {
  RecoveredState out;

  const CheckpointLoadResult ckpt = store_.load_newest();
  out.report.checkpoints_skipped = ckpt.skipped_corrupt;
  std::uint64_t covered_lsn = 0;
  if (ckpt.data.has_value()) {
    out.report.recovered = true;
    out.report.checkpoint_loaded = true;
    out.report.checkpoint_seq = ckpt.data->seq;
    out.report.checkpoint_epoch = ckpt.data->epoch;
    covered_lsn = ckpt.data->last_lsn;
    next_checkpoint_seq_ = ckpt.data->seq + 1;
    out.checkpoint = std::move(ckpt.data);
  }

  const WalReadResult wal = read_wal(wal_path());
  out.wal_valid_bytes = wal.valid_bytes;
  out.next_lsn = std::max(wal.next_lsn, covered_lsn + 1);
  out.report.wal_torn_tail = wal.torn_tail;
  out.report.wal_discarded_bytes = wal.discarded_bytes;
  for (const WalRecord& rec : wal.records) {
    if (rec.lsn <= covered_lsn) {
      // The checkpoint already folded this record in; the crash happened
      // between its install and the WAL reset.
      ++out.report.skipped_records;
      continue;
    }
    switch (rec.type) {
      case WalRecordType::kUpdateBatch: ++out.report.replayed_batches; break;
      case WalRecordType::kRegisterStanding:
        ++out.report.replayed_registrations;
        break;
      case WalRecordType::kUnregisterStanding:
        ++out.report.replayed_unregistrations;
        break;
      case WalRecordType::kStandingCounts: break;
    }
    out.tail.push_back(rec);
  }
  if (!wal.records.empty()) out.report.recovered = true;
  return out;
}

void PersistenceManager::open_wal(std::uint64_t next_lsn,
                                  std::uint64_t truncate_to) {
  STM_CHECK_MSG(wal_ == nullptr, "WAL opened twice");
  wal_ = std::make_unique<WalWriter>(wal_path(), next_lsn, cfg_.fsync,
                                     truncate_to, &injector_,
                                     injector_.config().max_unit_attempts);
}

WalAppendResult PersistenceManager::log_update(std::uint64_t epoch,
                                               const DeltaEdges& delta) {
  STM_CHECK_MSG(wal_ != nullptr, "log_update before open_wal");
  return wal_->append_update(epoch, delta);
}

WalAppendResult PersistenceManager::log_register(const StandingEntry& entry,
                                                 std::uint64_t epoch) {
  STM_CHECK_MSG(wal_ != nullptr, "log_register before open_wal");
  return wal_->append_register(entry, epoch);
}

WalAppendResult PersistenceManager::log_unregister(std::uint64_t id,
                                                   std::uint64_t epoch) {
  STM_CHECK_MSG(wal_ != nullptr, "log_unregister before open_wal");
  return wal_->append_unregister(id, epoch);
}

WalAppendResult PersistenceManager::log_counts(std::uint64_t epoch,
                                               const StandingCounts& counts) {
  STM_CHECK_MSG(wal_ != nullptr, "log_counts before open_wal");
  return wal_->append_counts(epoch, counts);
}

void PersistenceManager::install_checkpoint(CheckpointData data) {
  STM_CHECK_MSG(wal_ != nullptr, "install_checkpoint before open_wal");
  data.seq = next_checkpoint_seq_;
  data.last_lsn = last_lsn();
  store_.write(data);  // throws on exhausted chaos budget; WAL untouched
  ++next_checkpoint_seq_;
  // Every logged record is now folded into the installed checkpoint; a
  // crash right here (before the reset) is covered by the lsn <= last_lsn
  // skip rule in recover().
  wal_->reset();
}

}  // namespace stm::persist
