// WAL / checkpoint inspector: the operator's view of a persistence state
// directory (DESIGN.md §13).
//
// Lists the checkpoint files (sequence, epoch, covered LSN, graph size,
// standing-query manifest) and walks the write-ahead log frame by frame,
// printing each record and flagging a torn tail — the first thing to reach
// for when deciding whether a crashed session's directory is recoverable
// and how much replay it implies.
//
//   wal_inspect /var/lib/stmatch/state
//   wal_inspect --wal-only /var/lib/stmatch/state
//   wal_inspect --selftest        # writes + inspects a scratch directory
//
// Exit status: 0 when the directory is recoverable (any valid checkpoint or
// WAL prefix, torn tail or not), 1 on unusable input.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "persist/checkpoint.hpp"
#include "persist/manager.hpp"
#include "persist/wal.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

namespace {

using namespace stm;

void print_usage() {
  std::cout <<
      "usage: wal_inspect [options] <state-dir>\n"
      "  --wal-only         skip the checkpoint listing\n"
      "  --checkpoints-only skip the WAL walk\n"
      "  --selftest         write a scratch state dir, inspect it, verify\n";
}

void print_standing(const persist::StandingEntry& e, const char* indent) {
  std::cout << indent << "standing #" << e.id << " pattern=\"" << e.pattern
            << "\" count=" << e.count << " epoch=" << e.epoch
            << " batches=" << e.batches << '\n';
}

int inspect_checkpoints(const std::string& dir) {
  const persist::CheckpointStore store(dir, /*fsync=*/false, nullptr, 1);
  const std::vector<std::uint64_t> seqs = store.list();
  if (seqs.empty()) {
    std::cout << "checkpoints: none\n";
    return 0;
  }
  for (const std::uint64_t seq : seqs) {
    const std::string path = store.path_for(seq);
    try {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      const persist::CheckpointData d = persist::decode_checkpoint(buf.str());
      std::cout << "checkpoint " << std::filesystem::path(path).filename().string()
                << ": seq=" << d.seq << " epoch=" << d.epoch
                << " last_lsn=" << d.last_lsn << " vertices="
                << d.graph.num_vertices() << " adjacency="
                << d.graph.num_adjacency_entries() << " standing="
                << d.standing.size() << '\n';
      for (const persist::StandingEntry& e : d.standing)
        print_standing(e, "  ");
    } catch (const check_error& e) {
      std::cout << "checkpoint " << std::filesystem::path(path).filename().string()
                << ": INVALID (" << e.what() << ")\n";
    }
  }
  return 0;
}

int inspect_wal(const std::string& dir) {
  const std::string path =
      (std::filesystem::path(dir) / "wal.stmwal").string();
  persist::WalReadResult wal;
  try {
    wal = persist::read_wal(path);
  } catch (const check_error& e) {
    std::cout << "wal: UNREADABLE (" << e.what() << ")\n";
    return 1;
  }
  std::cout << "wal: " << wal.records.size() << " record(s), valid prefix "
            << wal.valid_bytes << " bytes, next lsn " << wal.next_lsn << '\n';
  for (const persist::WalRecord& rec : wal.records) {
    std::cout << "  lsn=" << rec.lsn << " offset=" << rec.file_offset
              << " size=" << rec.frame_size << " " << to_string(rec.type)
              << " epoch=" << rec.epoch;
    switch (rec.type) {
      case persist::WalRecordType::kUpdateBatch:
        std::cout << " inserted=" << rec.delta.inserted.size()
                  << " deleted=" << rec.delta.deleted.size() << '\n';
        break;
      case persist::WalRecordType::kRegisterStanding:
        std::cout << '\n';
        print_standing(rec.standing, "    ");
        break;
      case persist::WalRecordType::kUnregisterStanding:
        std::cout << " standing_id=" << rec.standing_id << '\n';
        break;
      case persist::WalRecordType::kStandingCounts:
        std::cout << " n=" << rec.counts.size();
        for (const auto& [id, count] : rec.counts)
          std::cout << ' ' << id << ':' << count;
        std::cout << '\n';
        break;
    }
  }
  if (wal.torn_tail) {
    std::cout << "  TORN TAIL: " << wal.discarded_bytes
              << " byte(s) past the valid prefix will be discarded by "
                 "recovery (an unacknowledged append interrupted by a "
                 "crash — expected, not corruption)\n";
  }
  return 0;
}

/// Writes a scratch directory through the real WalWriter/CheckpointStore,
/// tears the WAL tail by hand, and asserts the inspector's source data
/// (read_wal / decode_checkpoint) reports exactly what was written.
int selftest() {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "stmatch-wal-inspect-selftest";
  fs::remove_all(dir);
  fs::create_directories(dir);

  {
    persist::WalWriter w((dir / "wal.stmwal").string(), /*next_lsn=*/1,
                         /*fsync=*/false, /*truncate_to=*/0, nullptr, 1);
    DeltaEdges d;
    d.inserted = {{0, 1}, {1, 2}};
    w.append_update(1, d);
    persist::StandingEntry e;
    e.id = 1;
    e.pattern = "0-1,1-2,2-0";
    e.count = 42;
    e.epoch = 1;
    w.append_register(e, 1);
    w.append_counts(1, {{1, 42}});
    w.append_unregister(1, 1);
  }
  // Torn tail: half a frame of garbage past the valid prefix.
  {
    std::ofstream out(dir / "wal.stmwal",
                      std::ios::binary | std::ios::app);
    out << "\x10\x00\x00\x00garb";
  }
  const persist::WalReadResult wal =
      persist::read_wal((dir / "wal.stmwal").string());
  STM_CHECK_MSG(wal.records.size() == 4, "selftest: expected 4 records, got "
                                             << wal.records.size());
  STM_CHECK(wal.torn_tail);
  STM_CHECK(wal.records[0].type == persist::WalRecordType::kUpdateBatch);
  STM_CHECK(wal.records[1].standing.count == 42);
  STM_CHECK(wal.records[2].type == persist::WalRecordType::kStandingCounts);
  STM_CHECK(wal.records[2].counts == persist::StandingCounts({{1, 42}}));
  STM_CHECK(wal.records[3].standing_id == 1);

  persist::CheckpointStore store(dir.string(), /*fsync=*/false, nullptr, 1);
  persist::CheckpointData ckpt;
  ckpt.seq = 1;
  ckpt.epoch = 1;
  ckpt.last_lsn = 4;
  ckpt.graph = Graph({0, 1, 2}, {1, 0}, {});
  store.write(ckpt);
  const persist::CheckpointLoadResult loaded = store.load_newest();
  STM_CHECK(loaded.data.has_value() && loaded.data->epoch == 1);

  std::cout << "--- selftest state dir " << dir.string() << " ---\n";
  inspect_checkpoints(dir.string());
  inspect_wal(dir.string());
  fs::remove_all(dir);
  std::cout << "selftest ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts(argc, argv);
    opts.allow_only({"wal-only", "checkpoints-only", "selftest", "help"});
    if (opts.get_bool("help", false)) {
      print_usage();
      return 0;
    }
    if (opts.get_bool("selftest", false)) return selftest();
    if (opts.positional().size() != 1) {
      print_usage();
      return 1;
    }
    const std::string dir = opts.positional()[0];
    if (!std::filesystem::is_directory(dir)) {
      std::cerr << "wal_inspect: not a directory: " << dir << '\n';
      return 1;
    }
    int rc = 0;
    if (!opts.get_bool("wal-only", false)) rc |= inspect_checkpoints(dir);
    if (!opts.get_bool("checkpoints-only", false)) rc |= inspect_wal(dir);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "wal_inspect: " << e.what() << '\n';
    return 1;
  }
}
