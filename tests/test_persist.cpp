// Tests for the durability subsystem (DESIGN.md §13): CRC-32 kernel
// conformance, WAL framing and torn-tail semantics, checkpoint atomicity and
// fallback, session crash recovery, the kill-point matrix, and
// chaos-injected durability.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "mqo/pattern_index.hpp"
#include "persist/checkpoint.hpp"
#include "persist/codec.hpp"
#include "persist/manager.hpp"
#include "persist/wal.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

namespace fs = std::filesystem;

/// A unique scratch directory, removed on scope exit.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = fs::temp_directory_path() /
            ("stmatch-persist-" + tag + "-" +
             std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedDir() { fs::remove_all(path_); }
  const std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

Pattern triangle() { return Pattern::parse("0-1,1-2,2-0"); }

Graph seed_graph() { return make_barabasi_albert(60, 3, 17); }

/// Deterministic batch stream: batch k inserts a few spread-out edges and
/// deletes one of a previous batch's, with occasional redundancy.
UpdateBatch make_batch(int k, VertexId n) {
  UpdateBatch b;
  const auto v = [&](std::uint64_t x) {
    return static_cast<VertexId>((x * 2654435761ull + 7) % n);
  };
  const std::uint64_t base = static_cast<std::uint64_t>(k) * 13;
  for (int i = 0; i < 4; ++i) {
    VertexId a = v(base + i), c = v(base + i + 101);
    if (a == c) c = (c + 1) % n;
    b.insertions.emplace_back(a, c);
  }
  if (k > 0) {
    VertexId a = v(base - 13), c = v(base - 13 + 101);
    if (a == c) c = (c + 1) % n;
    b.deletions.emplace_back(a, c);
  }
  return b;
}

std::string wal_file(const std::string& dir) {
  return (fs::path(dir) / "wal.stmwal").string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

SessionConfig persist_cfg(const std::string& dir) {
  SessionConfig cfg;
  cfg.persistence.dir = dir;
  cfg.persistence.fsync = false;  // process-kill durability is what we test
  return cfg;
}

std::uint64_t count_matches(GraphSession& s, const Pattern& pattern) {
  QueryRequest req;
  req.pattern = pattern;
  QueryResult r = s.run(req);
  EXPECT_TRUE(r.ok()) << r.error;
  return r.count;
}

std::uint64_t count_triangles(GraphSession& s) {
  return count_matches(s, triangle());
}

// ---------------------------------------------------------------------------
// CRC-32 codec
// ---------------------------------------------------------------------------

/// Bit-at-a-time CRC-32 straight from the reflected polynomial; shares no
/// table or kernel with the code under test.
std::uint32_t reference_crc32(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k)
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(PersistCodec, CheckValueAndEmptyInput) {
  EXPECT_EQ(persist::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(persist::crc32(""), 0u);
  EXPECT_EQ(persist::detail::crc32_bytewise(0, "123456789"), 0xCBF43926u);
  const persist::detail::Crc32Kernel pclmul = persist::detail::crc32_pclmul();
  EXPECT_STREQ(persist::crc32_kernel(), pclmul ? "pclmul" : "bytewise");
  if (pclmul) {
    EXPECT_EQ(pclmul(0, "123456789"), 0xCBF43926u);
    EXPECT_EQ(pclmul(0, ""), 0u);
  }
}

TEST(PersistCodec, CountIsBoundedByTheBytesLeft) {
  persist::BinaryWriter w;
  w.u32(3);
  for (int i = 0; i < 3; ++i) w.u64(0);
  const std::string bytes = w.take();
  // Three 8-byte elements fit the 24 bytes left; three 9-byte ones do not.
  EXPECT_EQ(persist::BinaryReader(bytes).count(8), 3u);
  EXPECT_THROW(persist::BinaryReader(bytes).count(9), check_error);
}

TEST(PersistCodec, KernelsMatchBitwiseReferenceAtEveryOffsetAndLength) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n : {4095, 4096, 4097, 16383, 16384, 16385, 65543})
    lengths.push_back(n);
  // Compared only where the build and the CPU both support it.
  const persist::detail::Crc32Kernel pclmul = persist::detail::crc32_pclmul();
  Rng rng(15);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (const std::size_t n : lengths) {
      // Exactly sized heap buffer: a kernel reading past data + n is an
      // ASan heap-buffer-overflow.
      const auto buf = std::make_unique<char[]>(offset + n);
      for (std::size_t i = 0; i < offset + n; ++i)
        buf[i] = static_cast<char>(rng());
      const std::string_view data(buf.get() + offset, n);
      const std::uint32_t want = reference_crc32(data);
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(n));
      ASSERT_EQ(persist::crc32(data), want);
      ASSERT_EQ(persist::detail::crc32_bytewise(0, data), want);
      if (pclmul) {
        ASSERT_EQ(pclmul(0, data), want);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(PersistWal, AppendAndReadBackAllRecordTypes) {
  ScopedDir dir("wal-roundtrip");
  const std::string path = wal_file(dir.str());
  {
    persist::WalWriter w(path, 1, /*fsync=*/false, 0, nullptr, 1);
    DeltaEdges d;
    d.inserted = {{1, 2}, {3, 4}};
    d.deleted = {{5, 6}};
    EXPECT_EQ(w.append_update(7, d).lsn, 1u);
    persist::StandingEntry e;
    e.id = 3;
    e.pattern = triangle().to_string();
    e.plan.count_mode = CountMode::kEmbeddings;
    e.count = 99;
    e.epoch = 7;
    e.batches = 2;
    e.full_ms = 1.5;
    EXPECT_EQ(w.append_register(e, 7).lsn, 2u);
    EXPECT_EQ(w.append_unregister(3, 8).lsn, 3u);
    EXPECT_EQ(w.append_counts(8, {{1, 40}, {4, 0}}).lsn, 4u);
  }
  const persist::WalReadResult r = persist::read_wal(path);
  ASSERT_EQ(r.records.size(), 4u);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.next_lsn, 5u);
  EXPECT_EQ(r.records[0].type, persist::WalRecordType::kUpdateBatch);
  EXPECT_EQ(r.records[0].epoch, 7u);
  EXPECT_EQ(r.records[0].delta.inserted,
            (std::vector<std::pair<VertexId, VertexId>>{{1, 2}, {3, 4}}));
  EXPECT_EQ(r.records[0].delta.deleted,
            (std::vector<std::pair<VertexId, VertexId>>{{5, 6}}));
  EXPECT_EQ(r.records[1].standing.id, 3u);
  EXPECT_EQ(r.records[1].standing.pattern, triangle().to_string());
  EXPECT_EQ(r.records[1].standing.count, 99u);
  EXPECT_EQ(r.records[1].standing.batches, 2u);
  EXPECT_DOUBLE_EQ(r.records[1].standing.full_ms, 1.5);
  EXPECT_EQ(r.records[2].standing_id, 3u);
  EXPECT_EQ(r.records[2].epoch, 8u);
  EXPECT_EQ(r.records[3].type, persist::WalRecordType::kStandingCounts);
  EXPECT_EQ(r.records[3].epoch, 8u);
  EXPECT_EQ(r.records[3].counts, (persist::StandingCounts{{1, 40}, {4, 0}}));
}

TEST(PersistWal, TornTailIsReportedAndTruncatedOnReopen) {
  ScopedDir dir("wal-torn");
  const std::string path = wal_file(dir.str());
  {
    persist::WalWriter w(path, 1, false, 0, nullptr, 1);
    DeltaEdges d;
    d.inserted = {{0, 1}};
    w.append_update(1, d);
  }
  const std::uint64_t intact = fs::file_size(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char garbage[] = {0x20, 0x00, 0x00, 0x00, 'x', 'y'};
    out.write(garbage, sizeof(garbage));
  }
  persist::WalReadResult r = persist::read_wal(path);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.valid_bytes, intact);
  EXPECT_EQ(r.discarded_bytes, 6u);

  // Reopening through the writer with truncate_to physically discards the
  // tail; the next append lands where the torn frame began.
  {
    persist::WalWriter w(path, r.next_lsn, false, r.valid_bytes, nullptr, 1);
    DeltaEdges d;
    d.deleted = {{0, 1}};
    w.append_update(2, d);
  }
  r = persist::read_wal(path);
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[1].lsn, 2u);
}

TEST(PersistWal, ResetTruncatesButLsnsKeepCounting) {
  ScopedDir dir("wal-reset");
  const std::string path = wal_file(dir.str());
  persist::WalWriter w(path, 1, false, 0, nullptr, 1);
  DeltaEdges d;
  d.inserted = {{0, 1}};
  w.append_update(1, d);
  w.append_update(2, d);
  w.reset();
  EXPECT_EQ(fs::file_size(path), persist::kWalMagicSize);
  EXPECT_EQ(w.append_update(3, d).lsn, 3u);
  const persist::WalReadResult r = persist::read_wal(path);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].lsn, 3u);
}

TEST(PersistWal, NotAWalThrows) {
  ScopedDir dir("wal-magic");
  const std::string path = wal_file(dir.str());
  write_file(path, "definitely not a wal file");
  EXPECT_THROW(persist::read_wal(path), check_error);
}

TEST(PersistWal, MissingFileReadsAsEmptyLog) {
  ScopedDir dir("wal-missing");
  const persist::WalReadResult r = persist::read_wal(wal_file(dir.str()));
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.next_lsn, 1u);
  EXPECT_FALSE(r.torn_tail);
}

TEST(PersistWal, InjectedTearsRepairAndRetryDeterministically) {
  ScopedDir dir("wal-inject");
  const std::string path = wal_file(dir.str());
  FaultConfig fc;
  fc.seed = 42;
  fc.set_rate(FaultSite::kWalAppend, 0.5);
  fc.max_unit_attempts = 16;
  FaultInjector injector(fc);
  std::uint64_t faults = 0;
  {
    persist::WalWriter w(path, 1, false, 0, &injector, fc.max_unit_attempts);
    for (int i = 0; i < 20; ++i) {
      DeltaEdges d;
      d.inserted = {{static_cast<VertexId>(i), static_cast<VertexId>(i + 1)}};
      w.append_update(static_cast<std::uint64_t>(i + 1), d);
    }
    faults = w.faults_injected();
  }
  EXPECT_GT(faults, 0u);  // the 50% schedule must actually fire
  const persist::WalReadResult r = persist::read_wal(path);
  EXPECT_FALSE(r.torn_tail);  // every tear was repaired before the next frame
  ASSERT_EQ(r.records.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(r.records[static_cast<std::size_t>(i)].lsn,
              static_cast<std::uint64_t>(i + 1));
}

TEST(PersistWal, ExhaustedInjectionBudgetFailsClosed) {
  ScopedDir dir("wal-exhaust");
  const std::string path = wal_file(dir.str());
  FaultConfig fc;
  fc.set_rate(FaultSite::kWalAppend, 1.0);  // every attempt tears
  fc.max_unit_attempts = 3;
  FaultInjector injector(fc);
  persist::WalWriter w(path, 1, false, 0, &injector, fc.max_unit_attempts);
  DeltaEdges d;
  d.inserted = {{0, 1}};
  EXPECT_THROW(w.append_update(1, d), FaultInjectedError);
  // Fail closed: the file holds no trace of the failed append.
  EXPECT_EQ(fs::file_size(path), persist::kWalMagicSize);
  const persist::WalReadResult r = persist::read_wal(path);
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

persist::CheckpointData sample_checkpoint(std::uint64_t seq) {
  persist::CheckpointData d;
  d.seq = seq;
  d.epoch = seq * 10;
  d.last_lsn = seq * 100;
  d.next_standing_id = 5;
  d.graph = make_barabasi_albert(30, 2, static_cast<std::uint64_t>(seq));
  persist::StandingEntry e;
  e.id = 4;
  e.pattern = triangle().to_string();
  e.count = 12;
  e.epoch = d.epoch;
  d.standing.push_back(e);
  return d;
}

TEST(PersistCheckpoint, EncodeDecodeRoundTrip) {
  const persist::CheckpointData d = sample_checkpoint(3);
  const persist::CheckpointData back =
      persist::decode_checkpoint(persist::encode_checkpoint(d));
  EXPECT_EQ(back.seq, d.seq);
  EXPECT_EQ(back.epoch, d.epoch);
  EXPECT_EQ(back.last_lsn, d.last_lsn);
  EXPECT_EQ(back.next_standing_id, d.next_standing_id);
  EXPECT_TRUE(graphs_equal(back.graph, d.graph));
  ASSERT_EQ(back.standing.size(), 1u);
  EXPECT_EQ(back.standing[0].id, 4u);
  EXPECT_EQ(back.standing[0].pattern, d.standing[0].pattern);
  EXPECT_EQ(back.standing[0].count, 12u);
}

TEST(PersistCheckpoint, GarbledBytesFailDecode) {
  std::string bytes = persist::encode_checkpoint(sample_checkpoint(1));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  EXPECT_THROW(persist::decode_checkpoint(bytes), check_error);
  std::string truncated =
      persist::encode_checkpoint(sample_checkpoint(1));
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW(persist::decode_checkpoint(truncated), check_error);
}

TEST(PersistCheckpoint, LoadFallsBackPastCorruptNewest) {
  ScopedDir dir("ckpt-fallback");
  persist::CheckpointStore store(dir.str(), false, nullptr, 1);
  store.write(sample_checkpoint(1));
  store.write(sample_checkpoint(2));
  // Corrupt the newest file in place (a torn rename target / disk fault).
  const std::string newest = store.path_for(2);
  std::string bytes = read_file(newest);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0xFF);
  write_file(newest, bytes);

  const persist::CheckpointLoadResult r = store.load_newest();
  ASSERT_TRUE(r.data.has_value());
  EXPECT_EQ(r.data->seq, 1u);
  EXPECT_EQ(r.skipped_corrupt, 1u);
}

TEST(PersistCheckpoint, OverstatedCountsFailAsCorrupt) {
  // A crc-valid payload whose counts overstate its bytes fails like any
  // corrupt checkpoint, with check_error, so load_newest falls back; a
  // reservation sized by the count would throw length_error or bad_alloc.
  const persist::CheckpointData sample = sample_checkpoint(2);
  const std::string good = persist::encode_checkpoint(sample);
  const std::size_t body = persist::kCheckpointMagicSize + 8;
  const auto patched = [&](std::size_t at, std::string value) {
    std::string bytes = good;
    bytes.replace(body + at, value.size(), value);
    persist::BinaryWriter crc;
    crc.u32(persist::crc32(std::string_view(bytes).substr(body)));
    bytes.replace(body - 4, 4, crc.take());
    return bytes;
  };
  // Body: four u64s, the format byte, u32 vertices, u64 adjacency entries,
  // the CSR, the label flag, then the u32 standing count.
  const Graph& g = sample.graph;
  const std::size_t standing_at = 45 + (g.num_vertices() + 1) * 8 +
                                  g.num_adjacency_entries() * 4 + 1;
  ASSERT_EQ(good.substr(body + standing_at, 4), std::string("\x01\0\0\0", 4));
  persist::BinaryWriter vertices, entries, standing;
  vertices.u32(0xFFFFFFFFu);
  entries.u64(std::uint64_t{1} << 62);
  standing.u32(0xFFFFFFFFu);
  const std::string bad_entries = patched(37, entries.take());
  for (const std::string& bad :
       {patched(33, vertices.take()), bad_entries,
        patched(standing_at, standing.take())})
    EXPECT_THROW(persist::decode_checkpoint(bad), check_error);

  ScopedDir dir("ckpt-counts");
  persist::CheckpointStore store(dir.str(), false, nullptr, 1);
  store.write(sample_checkpoint(1));
  store.write(sample);
  write_file(store.path_for(2), bad_entries);
  const persist::CheckpointLoadResult r = store.load_newest();
  ASSERT_TRUE(r.data.has_value());
  EXPECT_EQ(r.data->seq, 1u);
  EXPECT_EQ(r.skipped_corrupt, 1u);
}

TEST(PersistCheckpoint, RetentionKeepsNewestTwo) {
  ScopedDir dir("ckpt-retention");
  persist::CheckpointStore store(dir.str(), false, nullptr, 1);
  store.write(sample_checkpoint(1));
  store.write(sample_checkpoint(2));
  store.write(sample_checkpoint(3));
  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{2, 3}));
}

TEST(PersistCheckpoint, ExhaustedInjectionBudgetLeavesPreviousSet) {
  ScopedDir dir("ckpt-exhaust");
  {
    persist::CheckpointStore ok(dir.str(), false, nullptr, 1);
    ok.write(sample_checkpoint(1));
  }
  FaultConfig fc;
  fc.set_rate(FaultSite::kCheckpointWrite, 1.0);
  fc.max_unit_attempts = 2;
  FaultInjector injector(fc);
  persist::CheckpointStore store(dir.str(), false, &injector,
                                 fc.max_unit_attempts);
  EXPECT_THROW(store.write(sample_checkpoint(2)), FaultInjectedError);
  EXPECT_EQ(store.faults_injected(), 2u);
  // No new checkpoint, no stray temp file, previous set intact.
  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{1}));
  for (const auto& entry : fs::directory_iterator(dir.str()))
    EXPECT_EQ(entry.path().extension(), ".stmckpt") << entry.path();
  const persist::CheckpointLoadResult r = store.load_newest();
  ASSERT_TRUE(r.data.has_value());
  EXPECT_EQ(r.data->seq, 1u);
}

// ---------------------------------------------------------------------------
// Session recovery
// ---------------------------------------------------------------------------

TEST(PersistSession, FreshBootInstallsCheckpointAndRestoreWorks) {
  ScopedDir dir("boot");
  std::uint64_t triangles = 0;
  {
    GraphSession s(seed_graph(), persist_cfg(dir.str()));
    EXPECT_FALSE(s.recovery_report().recovered);
    triangles = count_triangles(s);
  }
  persist::CheckpointStore store(dir.str(), false, nullptr, 1);
  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{1}));

  // restore() needs no seed graph: the bootstrap checkpoint carries it.
  auto s = GraphSession::restore(persist_cfg(dir.str()));
  EXPECT_TRUE(s->recovery_report().checkpoint_loaded);
  EXPECT_EQ(s->epoch(), 0u);
  EXPECT_EQ(count_triangles(*s), triangles);
}

TEST(PersistSession, RestoreWithoutStateThrows) {
  ScopedDir dir("restore-empty");
  EXPECT_THROW(GraphSession::restore(persist_cfg(dir.str())), check_error);
  SessionConfig no_persist;
  EXPECT_THROW(GraphSession::restore(no_persist), check_error);
}

TEST(PersistSession, ReopenReplaysWalTail) {
  ScopedDir dir("replay");
  const Graph g = seed_graph();
  std::uint64_t epoch = 0, triangles = 0;
  {
    GraphSession s(g, persist_cfg(dir.str()));
    for (int k = 0; k < 5; ++k) {
      const UpdateOutcome out = s.apply_updates(make_batch(k, 60));
      ASSERT_TRUE(out.ok()) << out.error;
      epoch = out.epoch;
    }
    triangles = count_triangles(s);
  }
  GraphSession s(g, persist_cfg(dir.str()));
  EXPECT_TRUE(s.recovery_report().recovered);
  EXPECT_EQ(s.recovery_report().replayed_batches, 5u);
  EXPECT_EQ(s.epoch(), epoch);
  EXPECT_EQ(count_triangles(s), triangles);
  EXPECT_EQ(s.metrics().counter("recovery_replayed_batches").value(), 5u);

  // The reopened session keeps appending where the log left off.
  const UpdateOutcome out = s.apply_updates(make_batch(5, 60));
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.epoch, epoch + 1);
}

TEST(PersistSession, CheckpointTruncatesWalAndShortensRecovery) {
  ScopedDir dir("ckpt-truncate");
  const Graph g = seed_graph();
  std::uint64_t epoch = 0, triangles = 0;
  {
    GraphSession s(g, persist_cfg(dir.str()));
    for (int k = 0; k < 4; ++k) s.apply_updates(make_batch(k, 60));
    ASSERT_TRUE(s.checkpoint());
    // Covered records are gone from the log...
    EXPECT_TRUE(persist::read_wal(wal_file(dir.str())).records.empty());
    const UpdateOutcome out = s.apply_updates(make_batch(4, 60));
    ASSERT_TRUE(out.ok());
    epoch = out.epoch;
    triangles = count_triangles(s);
  }
  GraphSession s(g, persist_cfg(dir.str()));
  // ...so recovery loads the checkpoint and replays only the one batch
  // after it.
  EXPECT_TRUE(s.recovery_report().checkpoint_loaded);
  EXPECT_EQ(s.recovery_report().checkpoint_epoch, 4u);
  EXPECT_EQ(s.recovery_report().replayed_batches, 1u);
  EXPECT_EQ(s.epoch(), epoch);
  EXPECT_EQ(count_triangles(s), triangles);
}

TEST(PersistSession, AutoCheckpointEveryNBatches) {
  ScopedDir dir("auto-ckpt");
  SessionConfig cfg = persist_cfg(dir.str());
  cfg.persistence.checkpoint_every_batches = 2;
  GraphSession s(seed_graph(), cfg);
  for (int k = 0; k < 5; ++k) s.apply_updates(make_batch(k, 60));
  // Bootstrap checkpoint + installs after batches 2 and 4.
  EXPECT_EQ(s.metrics().counter("checkpoints_written").value(), 3u);
  // Only batch 5 is left in the log.
  EXPECT_EQ(persist::read_wal(wal_file(dir.str())).records.size(), 1u);
}

TEST(PersistSession, StandingQueriesSurviveRestartWithCountsIntact) {
  ScopedDir dir("standing");
  const Graph g = seed_graph();
  std::uint64_t id = 0, doomed = 0, count = 0, epoch = 0;
  {
    GraphSession s(g, persist_cfg(dir.str()));
    StandingQueryConfig sq;
    sq.pattern = triangle();
    sq.plan.count_mode = CountMode::kEmbeddings;
    id = s.register_standing_query(sq);
    doomed = s.register_standing_query(sq);
    for (int k = 0; k < 3; ++k) s.apply_updates(make_batch(k, 60));
    ASSERT_TRUE(s.unregister_standing_query(doomed));
    for (int k = 3; k < 5; ++k) s.apply_updates(make_batch(k, 60));
    const auto info = s.standing_query(id);
    ASSERT_TRUE(info.has_value());
    count = info->count;
    epoch = info->epoch;
  }
  GraphSession s(g, persist_cfg(dir.str()));
  EXPECT_EQ(s.recovery_report().replayed_registrations, 2u);
  EXPECT_EQ(s.recovery_report().replayed_unregistrations, 1u);
  const auto info = s.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->count, count);
  EXPECT_EQ(info->epoch, epoch);
  EXPECT_EQ(info->batches_observed, 5u);
  EXPECT_FALSE(s.standing_query(doomed).has_value());
  // The restored count is the ground truth: it must equal a from-scratch
  // full enumeration of the recovered graph.
  EXPECT_EQ(info->count, count_triangles(s));
  // And it keeps advancing exactly through post-recovery batches.
  const UpdateOutcome out = s.apply_updates(make_batch(5, 60));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(s.standing_query(id)->count, count_triangles(s));
}

TEST(PersistSession, IndexedStandingStateSurvivesRestart) {
  ScopedDir dir("standing-indexed");
  const Graph g = seed_graph();
  std::uint64_t id = 0, dup = 0, doomed = 0, count = 0;
  {
    GraphSession s(g, persist_cfg(dir.str()));
    StandingQueryConfig sq;
    sq.pattern = triangle();
    id = s.register_standing_query(sq);
    StandingQueryConfig relabeled;
    relabeled.pattern = triangle().relabeled({1, 2, 0});
    dup = s.register_standing_query(relabeled);
    StandingQueryConfig path;
    path.pattern = Pattern::parse("0-1,1-2");
    doomed = s.register_standing_query(path);
    for (int k = 0; k < 3; ++k) s.apply_updates(make_batch(k, 60));
    ASSERT_TRUE(s.unregister_standing_query(doomed));
    for (int k = 3; k < 5; ++k) s.apply_updates(make_batch(k, 60));
    count = s.standing_query(id)->count;
  }
  GraphSession s(g, persist_cfg(dir.str()));
  EXPECT_EQ(s.standing_query(id)->count, count);
  EXPECT_EQ(s.standing_query(dup)->count, count);
  EXPECT_FALSE(s.standing_query(doomed).has_value());
  EXPECT_EQ(s.standing_query(id)->count, count_triangles(s));

  // The rebuilt trie must be bit-identical to a never-crashed index holding
  // the surviving registrations.
  const mqo::IndexStats st = s.standing_index_stats();
  EXPECT_EQ(st.registrations, 2u);
  EXPECT_EQ(st.groups, 1u);
  mqo::PatternIndex twin;
  twin.add(id, triangle(), {}, false);
  twin.add(dup, triangle().relabeled({1, 2, 0}), {}, false);
  EXPECT_EQ(st.trie.nodes, twin.stats().trie.nodes);
  EXPECT_EQ(st.trie.terminals, twin.stats().trie.terminals);
  EXPECT_EQ(st.trie.plan_positions, twin.stats().trie.plan_positions);

  // And the recovered index keeps advancing exactly.
  const UpdateOutcome out = s.apply_updates(make_batch(5, 60));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(s.standing_query(id)->count, count_triangles(s));
  EXPECT_EQ(s.standing_query(dup)->count, count_triangles(s));
}

TEST(PersistSession, ResumeTokenSurvivesRestart) {
  ScopedDir dir("resume");
  const Graph g = seed_graph();

  // Collect the full stream once for reference.
  std::vector<Embedding> all;
  {
    GraphSession ref(g);
    StreamRequest req;
    req.query.pattern = triangle();
    auto stream = ref.open_stream(std::move(req));
    Embedding e;
    while (stream->next(&e)) all.push_back(e);
    ASSERT_TRUE(stream->result().ok());
  }
  ASSERT_GT(all.size(), 10u);

  // First page against the persistent session, then kill the process state
  // (destroy the session) and resume against a recovered one.
  std::string token;
  std::vector<Embedding> got;
  {
    GraphSession s(g, persist_cfg(dir.str()));
    s.apply_updates(make_batch(0, 60));  // make the directory non-trivial
    StreamRequest req;
    req.query.pattern = triangle();
    req.stream.limit = 5;
    auto stream = s.open_stream(std::move(req));
    Embedding e;
    while (stream->next(&e)) got.push_back(e);
    ASSERT_TRUE(stream->result().ok()) << stream->result().error;
    token = stream->resume_token();
    ASSERT_FALSE(token.empty());
  }
  {
    auto s = GraphSession::restore(persist_cfg(dir.str()));
    StreamRequest req;
    req.query.pattern = triangle();
    req.stream.resume_token = token;
    auto stream = s->open_stream(std::move(req));
    Embedding e;
    while (stream->next(&e)) got.push_back(e);
    ASSERT_TRUE(stream->result().ok()) << stream->result().error;
  }

  // The pre-kill prefix plus the post-restart drain is exactly the stream
  // of the updated graph (which differs from `all`, so rebuild it).
  std::vector<Embedding> expect;
  {
    GraphSession ref(g);
    ref.apply_updates(make_batch(0, 60));
    StreamRequest req;
    req.query.pattern = triangle();
    auto stream = ref.open_stream(std::move(req));
    Embedding e;
    while (stream->next(&e)) expect.push_back(e);
  }
  EXPECT_EQ(got, expect);
}

TEST(PersistSession, NoopAndFailedBatchesAreNotLogged) {
  ScopedDir dir("noop");
  const Graph g = seed_graph();
  {
    GraphSession s(g, persist_cfg(dir.str()));
    ASSERT_TRUE(s.apply_updates(make_batch(0, 60)).ok());
    // No-op: empty batch and an all-redundant batch bump nothing.
    ASSERT_TRUE(s.apply_updates(UpdateBatch{}).ok());
    UpdateBatch redundant;
    redundant.insertions = make_batch(0, 60).insertions;  // already present
    const UpdateOutcome out = s.apply_updates(redundant);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.applied.empty());
    // Invalid: rejected before the WAL hook.
    UpdateBatch bad;
    bad.insertions = {{0, 200}};  // out of range
    EXPECT_EQ(s.apply_updates(bad).status, QueryStatus::kInvalidArgument);
  }
  EXPECT_EQ(persist::read_wal(wal_file(dir.str())).records.size(), 1u);

  // Injected kUpdateApply failures never reach the log either.
  ScopedDir dir2("fault-apply");
  SessionConfig cfg = persist_cfg(dir2.str());
  cfg.fault.set_rate(FaultSite::kUpdateApply, 1.0);
  cfg.fault.max_unit_attempts = 1;
  GraphSession s(g, cfg);
  const UpdateOutcome out = s.apply_updates(make_batch(0, 60));
  EXPECT_EQ(out.status, QueryStatus::kInternalError);
  EXPECT_EQ(s.epoch(), 0u);
  EXPECT_TRUE(persist::read_wal(wal_file(dir2.str())).records.empty());
}

/// Rewrites the delta-engine byte of the StandingEntry that ends at
/// `entry_end` to 1 (kSimt) — what state directories written when standing
/// queries chose a delta engine may carry — and re-seals the crc stored at
/// `crc_at`, which covers bytes [payload_begin, payload_end).
void mark_entry_simt(std::string* bytes, std::size_t entry_end,
                     std::size_t crc_at, std::size_t payload_begin,
                     std::size_t payload_end) {
  // engine u8, then count/epoch/batches/full_ms as four u64s.
  const std::size_t engine_at = entry_end - 1 - 4 * 8;
  ASSERT_EQ((*bytes)[engine_at], '\0') << "engine byte is written as 0";
  (*bytes)[engine_at] = '\1';
  const std::string_view payload =
      std::string_view(*bytes).substr(payload_begin, payload_end - payload_begin);
  persist::BinaryWriter crc;
  crc.u32(persist::crc32(payload));
  bytes->replace(crc_at, 4, crc.take());
}

TEST(PersistSession, LegacySimtEngineByteStillRestores) {
  ScopedDir dir("legacy-engine");
  const Graph g = seed_graph();
  std::uint64_t in_manifest = 0, in_wal = 0, epoch = 0;
  std::uint64_t manifest_count = 0, wal_count = 0;
  {
    GraphSession s(g, persist_cfg(dir.str()));
    StandingQueryConfig sq;
    sq.pattern = triangle();
    in_manifest = s.register_standing_query(sq);
    for (int k = 0; k < 2; ++k) s.apply_updates(make_batch(k, 60));
    ASSERT_TRUE(s.checkpoint());
    StandingQueryConfig path;
    path.pattern = Pattern::parse("0-1,1-2");
    in_wal = s.register_standing_query(path);
    for (int k = 2; k < 4; ++k) s.apply_updates(make_batch(k, 60));
    manifest_count = s.standing_query(in_manifest)->count;
    wal_count = s.standing_query(in_wal)->count;
    epoch = s.epoch();
  }

  // The newest checkpoint's manifest ends with the triangle's entry...
  const persist::CheckpointStore store(dir.str(), false, nullptr, 1);
  const std::string ckpt_path = store.path_for(store.list().back());
  std::string ckpt = read_file(ckpt_path);
  mark_entry_simt(&ckpt, ckpt.size(), persist::kCheckpointMagicSize + 4,
                  persist::kCheckpointMagicSize + 8, ckpt.size());
  write_file(ckpt_path, ckpt);
  // ...and the path's registration record ends with its entry.
  std::string wal = read_file(wal_file(dir.str()));
  const std::vector<persist::WalRecord> records =
      persist::read_wal(wal_file(dir.str())).records;
  ASSERT_EQ(records.front().type, persist::WalRecordType::kRegisterStanding);
  const auto frame = static_cast<std::size_t>(records.front().file_offset);
  const auto end = frame + static_cast<std::size_t>(records.front().frame_size);
  mark_entry_simt(&wal, end, frame + 4, frame + 8, end);
  write_file(wal_file(dir.str()), wal);

  GraphSession s(g, persist_cfg(dir.str()));
  EXPECT_TRUE(s.recovery_report().checkpoint_loaded);
  EXPECT_EQ(s.recovery_report().replayed_registrations, 1u);
  EXPECT_EQ(s.epoch(), epoch);
  EXPECT_EQ(s.standing_query(in_manifest)->count, manifest_count);
  EXPECT_EQ(s.standing_query(in_wal)->count, wal_count);
  EXPECT_EQ(manifest_count, count_triangles(s));
  EXPECT_EQ(s.standing_index_stats().registrations, 2u);
  // Both keep advancing through the one standing-query path.
  ASSERT_TRUE(s.apply_updates(make_batch(4, 60)).ok());
  EXPECT_EQ(s.standing_query(in_manifest)->count, count_triangles(s));
}

TEST(PersistSession, WalExhaustionFailsTheBatchClosed) {
  ScopedDir dir("wal-closed");
  SessionConfig cfg = persist_cfg(dir.str());
  cfg.fault.set_rate(FaultSite::kWalAppend, 1.0);
  cfg.fault.max_unit_attempts = 2;
  GraphSession s(seed_graph(), cfg);
  const UpdateOutcome out = s.apply_updates(make_batch(0, 60));
  EXPECT_EQ(out.status, QueryStatus::kInternalError);
  // Not acknowledged, not published, not on disk: epoch unchanged and the
  // log clean (the torn attempts were truncated away).
  EXPECT_EQ(s.epoch(), 0u);
  const persist::WalReadResult wal = persist::read_wal(wal_file(dir.str()));
  EXPECT_TRUE(wal.records.empty());
  EXPECT_FALSE(wal.torn_tail);

  StandingQueryConfig sq;
  sq.pattern = triangle();
  EXPECT_THROW(s.register_standing_query(sq), FaultInjectedError);
  EXPECT_FALSE(s.standing_query(1).has_value());
}

TEST(PersistSession, WalWithoutCountsRecordsWalksEveryBatch) {
  // A state directory written before counts records existed: registrations
  // and batches only, built here by hand from a live session's outcomes.
  ScopedDir dir("no-counts");
  const Graph g = seed_graph();
  const Pattern path = Pattern::parse("0-1,1-2");
  GraphSession live(g);
  std::vector<std::uint64_t> ids;
  {
    persist::WalWriter w(wal_file(dir.str()), 1, /*fsync=*/false, 0, nullptr,
                         1);
    for (const Pattern& p : {triangle(), path}) {
      StandingQueryConfig sq;
      sq.pattern = p;
      ids.push_back(live.register_standing_query(sq));
      const StandingQueryInfo info = *live.standing_query(ids.back());
      persist::StandingEntry e;
      e.id = ids.back();
      e.pattern = p.to_string();
      e.count = info.count;
      e.epoch = info.epoch;
      e.full_ms = info.full_ms;
      w.append_register(e, live.epoch());
    }
    for (int k = 0; k < 6; ++k) {
      const UpdateOutcome out = live.apply_updates(make_batch(k, 60));
      ASSERT_TRUE(out.ok()) << out.error;
      w.append_update(out.epoch, out.applied);
    }
  }
  GraphSession s(g, persist_cfg(dir.str()));
  const persist::RecoveryReport& rep = s.recovery_report();
  EXPECT_EQ(rep.replayed_registrations, 2u);
  EXPECT_EQ(rep.replayed_batches, 6u);
  EXPECT_EQ(rep.walked_batches, rep.replayed_batches);
  EXPECT_EQ(s.epoch(), live.epoch());
  EXPECT_EQ(s.standing_query(ids[0])->count,
            live.standing_query(ids[0])->count);
  EXPECT_EQ(s.standing_query(ids[0])->count, count_triangles(s));
  EXPECT_EQ(s.standing_query(ids[1])->count, count_matches(s, path));
  EXPECT_EQ(s.standing_query(ids[1])->batches_observed, 6u);
}

TEST(PersistSession, RecoveryWalksAtMostOneBatchWhateverTheTail) {
  // Complexity guard: the walks recovery runs do not grow with the WAL
  // tail. Auto-checkpoints are off, so every batch stays in the log.
  const Pattern path = Pattern::parse("0-1,1-2");
  for (const int batches : {8, 64}) {
    SCOPED_TRACE(std::to_string(batches) + " batches");
    ScopedDir dir("walk-bound");
    const Graph g = seed_graph();
    std::uint64_t epoch = 0;
    {
      GraphSession s(g, persist_cfg(dir.str()));
      for (const Pattern& p : {triangle(), path}) {
        StandingQueryConfig sq;
        sq.pattern = p;
        s.register_standing_query(sq);
      }
      for (int k = 0; k < batches; ++k)
        ASSERT_TRUE(s.apply_updates(make_batch(k, 60)).ok());
      epoch = s.epoch();
    }
    const persist::WalReadResult wal = persist::read_wal(wal_file(dir.str()));
    ASSERT_EQ(wal.records.back().type,
              persist::WalRecordType::kStandingCounts);
    const std::string bytes = read_file(wal_file(dir.str()));
    // The log as written ends in a counts record; a crash between the last
    // batch record and its counts record cuts that record off.
    const std::size_t cuts[] = {
        bytes.size(),
        static_cast<std::size_t>(wal.records.back().file_offset)};
    for (std::size_t walked = 0; walked < 2; ++walked) {
      write_file(wal_file(dir.str()), bytes.substr(0, cuts[walked]));
      GraphSession s(g, persist_cfg(dir.str()));
      EXPECT_EQ(s.recovery_report().replayed_batches, epoch);
      EXPECT_EQ(s.recovery_report().walked_batches, walked);
      EXPECT_EQ(s.epoch(), epoch);
      EXPECT_EQ(s.standing_query(1)->count, count_triangles(s));
      EXPECT_EQ(s.standing_query(2)->count, count_matches(s, path));
    }
  }
}

// ---------------------------------------------------------------------------
// Kill-point matrix: recovery from every WAL prefix
// ---------------------------------------------------------------------------

struct KillScenario {
  ScopedDir dir{"kill-matrix"};
  Graph g = seed_graph();
  std::uint64_t standing_id = 0;
  /// expected[k]: (epoch, standing count if registered, batches recovery
  /// walks) after the first k WAL records took effect. Record 1 is the
  /// registration; then each batch record is followed by its counts record.
  struct Expect {
    std::uint64_t epoch = 0;
    bool has_standing = false;
    std::uint64_t standing_count = 0;
    std::uint64_t walked = 0;
  };
  std::vector<Expect> expected;
  std::vector<persist::WalRecord> records;
  std::string wal_bytes;

  KillScenario() {
    // Acknowledged states: after the registration, then after each batch.
    std::vector<Expect> acked;
    {
      GraphSession s(g, persist_cfg(dir.str()));
      StandingQueryConfig sq;
      sq.pattern = triangle();
      sq.plan.count_mode = CountMode::kEmbeddings;
      standing_id = s.register_standing_query(sq);
      acked.push_back({0, true, s.standing_query(standing_id)->count, 0});
      for (int k = 0; k < 6; ++k) {
        const UpdateOutcome out = s.apply_updates(make_batch(k, 60));
        EXPECT_TRUE(out.ok()) << out.error;
        acked.push_back(
            {out.epoch, true, s.standing_query(standing_id)->count, 0});
      }
      // Session destroyed cleanly here; the cuts below simulate the kills.
    }
    const persist::WalReadResult wal =
        persist::read_wal(wal_file(dir.str()));
    records = wal.records;
    wal_bytes = read_file(wal_file(dir.str()));
    // A registration or batch record moves the prefix to the next
    // acknowledged state. A counts record leaves the state as it is, but
    // recovery then walks nothing; a batch after it is walked.
    expected.push_back({0, false, 0, 0});
    std::size_t mutations = 0;
    for (const persist::WalRecord& rec : records) {
      Expect e = rec.type == persist::WalRecordType::kStandingCounts
                     ? expected.back()
                     : acked.at(mutations++);
      e.walked = rec.type == persist::WalRecordType::kUpdateBatch ? 1 : 0;
      expected.push_back(e);
    }
    EXPECT_EQ(mutations, acked.size());
  }

  /// Reopens from a copy of the state dir whose WAL is replaced by
  /// `bytes`, and asserts the recovered state matches expected[prefix].
  /// `then`, if given, runs last on the recovered session.
  void check_cut(const std::string& bytes, std::size_t prefix,
                 const std::string& what,
                 const std::function<void(GraphSession&, const Expect&)>&
                     then = nullptr) {
    ScopedDir scratch("kill-cut");
    for (const auto& entry : fs::directory_iterator(dir.str()))
      fs::copy(entry.path(), fs::path(scratch.str()) / entry.path().filename());
    write_file(wal_file(scratch.str()), bytes);

    GraphSession s(g, persist_cfg(scratch.str()));
    const Expect& e = expected[prefix];
    EXPECT_EQ(s.epoch(), e.epoch) << what;
    EXPECT_EQ(s.recovery_report().walked_batches, e.walked) << what;
    EXPECT_EQ(s.metrics().counter("recovery_walked_batches").value(), e.walked)
        << what;
    const auto info = s.standing_query(standing_id);
    EXPECT_EQ(info.has_value(), e.has_standing) << what;
    if (info.has_value() && e.has_standing) {
      EXPECT_EQ(info->count, e.standing_count) << what;
      // The recovered count must equal a from-scratch enumeration of the
      // recovered graph — the differential oracle for every cut point.
      EXPECT_EQ(info->count, count_triangles(s)) << what;
    }
    // The trie must be rebuilt bit-identically to the acknowledged
    // registration prefix: either exactly the triangle's plans or empty.
    const mqo::IndexStats st = s.standing_index_stats();
    EXPECT_EQ(st.registrations, e.has_standing ? 1u : 0u) << what;
    mqo::PatternIndex twin;
    if (e.has_standing) twin.add(standing_id, triangle(), {}, false);
    EXPECT_EQ(st.trie.nodes, twin.stats().trie.nodes) << what;
    EXPECT_EQ(st.trie.terminals, twin.stats().trie.terminals) << what;
    EXPECT_EQ(st.trie.flipped_terminals, twin.stats().trie.flipped_terminals)
        << what;
    EXPECT_EQ(st.trie.max_depth, twin.stats().trie.max_depth) << what;
    if (then) then(s, e);
  }
};

TEST(PersistKillMatrix, IndexedTrieRebuildAtEveryBoundary) {
  KillScenario sc;
  ASSERT_EQ(sc.records.size(), 13u);  // 1 registration + 6 (batch, counts)
  // Beyond its shape (checked in every cut), the rebuilt trie must stay
  // live: a registration sharing the triangle's edge prefix merges into it,
  // and the next batch advances both queries to a full recount.
  const Pattern path = Pattern::parse("0-1,1-2");
  const auto extend = [&](GraphSession& s, const KillScenario::Expect& e) {
    StandingQueryConfig sq;
    sq.pattern = path;
    const std::uint64_t path_id = s.register_standing_query(sq);
    mqo::PatternIndex twin;
    if (e.has_standing) twin.add(sc.standing_id, triangle(), {}, false);
    twin.add(path_id, path, {}, false);
    const mqo::IndexStats st = s.standing_index_stats();
    EXPECT_EQ(st.registrations, e.has_standing ? 2u : 1u);
    EXPECT_EQ(st.trie.nodes, twin.stats().trie.nodes);
    EXPECT_EQ(st.trie.terminals, twin.stats().trie.terminals);
    EXPECT_EQ(st.trie.flipped_terminals, twin.stats().trie.flipped_terminals);
    const UpdateOutcome out = s.apply_updates(make_batch(6, 60));
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(s.standing_query(path_id)->count, count_matches(s, path));
    if (e.has_standing) {
      EXPECT_EQ(s.standing_query(sc.standing_id)->count, count_triangles(s));
    }
  };
  const auto cut = [&](std::size_t end, std::size_t prefix,
                       const std::string& what) {
    SCOPED_TRACE(what);
    sc.check_cut(sc.wal_bytes.substr(0, end), prefix, what, extend);
  };
  cut(persist::kWalMagicSize, 0, "indexed cut after magic");
  for (std::size_t i = 0; i < sc.records.size(); ++i) {
    const auto& rec = sc.records[i];
    cut(static_cast<std::size_t>(rec.file_offset + rec.frame_size), i + 1,
        "indexed cut after record " + std::to_string(i + 1));
  }
}

TEST(PersistKillMatrix, EveryRecordBoundary) {
  KillScenario sc;
  ASSERT_EQ(sc.records.size(), 13u);  // 1 registration + 6 (batch, counts)
  sc.check_cut(sc.wal_bytes.substr(0, persist::kWalMagicSize), 0,
               "cut after magic");
  for (std::size_t i = 0; i < sc.records.size(); ++i) {
    const auto& rec = sc.records[i];
    const std::size_t end =
        static_cast<std::size_t>(rec.file_offset + rec.frame_size);
    sc.check_cut(sc.wal_bytes.substr(0, end), i + 1,
                 "cut after record " + std::to_string(i + 1));
  }
}

TEST(PersistKillMatrix, MidRecordTearsLoseOnlyTheTornRecord) {
  KillScenario sc;
  for (std::size_t i = 0; i < sc.records.size(); ++i) {
    const auto& rec = sc.records[i];
    const std::string what = "record " + std::to_string(i + 1);
    // Torn mid-header: the length word itself is incomplete.
    sc.check_cut(
        sc.wal_bytes.substr(0, static_cast<std::size_t>(rec.file_offset) + 4),
        i, what + " torn mid-header");
    // Torn mid-payload.
    sc.check_cut(sc.wal_bytes.substr(
                     0, static_cast<std::size_t>(rec.file_offset) +
                            static_cast<std::size_t>(rec.frame_size) / 2),
                 i, what + " torn mid-payload");
  }
}

TEST(PersistKillMatrix, GarbledRecordStopsReplayBeforeIt) {
  KillScenario sc;
  for (std::size_t i = 0; i < sc.records.size(); ++i) {
    const auto& rec = sc.records[i];
    std::string bytes = sc.wal_bytes;
    const std::size_t victim = static_cast<std::size_t>(
        rec.file_offset + rec.frame_size - 1);  // last payload byte
    bytes[victim] = static_cast<char>(bytes[victim] ^ 0x5A);
    // A garbled frame fails its crc; replay keeps the prefix before it and
    // discards it plus everything after (order is only defined by the log).
    sc.check_cut(bytes, i, "record " + std::to_string(i + 1) + " garbled");
  }
}

// ---------------------------------------------------------------------------
// Chaos tier: live durability under >= 10% injection on both sites
// ---------------------------------------------------------------------------

TEST(PersistChaos, DurabilityHoldsUnderInjectedTornWrites) {
  ScopedDir dir("chaos");
  const Graph g = seed_graph();

  SessionConfig cfg = persist_cfg(dir.str());
  cfg.persistence.checkpoint_every_batches = 3;
  cfg.fault.seed = 11;
  cfg.fault.set_rate(FaultSite::kWalAppend, 0.15);
  cfg.fault.set_rate(FaultSite::kCheckpointWrite, 0.25);
  cfg.fault.max_unit_attempts = 16;

  // No-injection oracle advanced in lockstep.
  GraphSession oracle(g);
  StandingQueryConfig osq;
  osq.pattern = triangle();
  osq.plan.count_mode = CountMode::kEmbeddings;
  const std::uint64_t oracle_id = oracle.register_standing_query(osq);

  std::uint64_t id = 0;
  {
    GraphSession s(g, cfg);
    StandingQueryConfig sq;
    sq.pattern = triangle();
    sq.plan.count_mode = CountMode::kEmbeddings;
    id = s.register_standing_query(sq);
    for (int k = 0; k < 12; ++k) {
      const UpdateOutcome out = s.apply_updates(make_batch(k, 60));
      ASSERT_TRUE(out.ok()) << "batch " << k << ": " << out.error;
      const UpdateOutcome oout = oracle.apply_updates(make_batch(k, 60));
      ASSERT_TRUE(oout.ok());
      ASSERT_EQ(out.epoch, oout.epoch);
      ASSERT_EQ(out.applied, oout.applied);
    }
    // The schedule must actually have fired for this test to mean anything.
    EXPECT_GT(s.metrics().counter("faults_injected_total").value(), 0u);
    EXPECT_EQ(s.standing_query(id)->count,
              oracle.standing_query(oracle_id)->count);
  }

  // Reopen after the chaos run: bit-identical epoch and counts.
  auto s = GraphSession::restore(cfg);
  EXPECT_EQ(s->epoch(), oracle.epoch());
  ASSERT_TRUE(s->standing_query(id).has_value());
  EXPECT_EQ(s->standing_query(id)->count,
            oracle.standing_query(oracle_id)->count);
  EXPECT_EQ(count_triangles(*s), count_triangles(oracle));

  // And the recovered session still advances in lockstep.
  const UpdateOutcome out = s->apply_updates(make_batch(12, 60));
  const UpdateOutcome oout = oracle.apply_updates(make_batch(12, 60));
  ASSERT_TRUE(out.ok()) << out.error;
  ASSERT_TRUE(oout.ok());
  EXPECT_EQ(out.epoch, oout.epoch);
  EXPECT_EQ(s->standing_query(id)->count,
            oracle.standing_query(oracle_id)->count);
}

TEST(PersistChaos, LostCountsRecordStillAcknowledgesItsBatch) {
  // One attempt per append: a torn batch record fails its batch, but a torn
  // counts record must not, because its batch is already durable and
  // published. Recovery then walks from the previous counts record.
  const Pattern path = Pattern::parse("0-1,1-2");
  const Graph g = seed_graph();
  int lost_counts = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    ScopedDir dir("chaos-counts");
    SessionConfig cfg = persist_cfg(dir.str());
    cfg.fault.seed = seed;
    cfg.fault.set_rate(FaultSite::kWalAppend, 0.3);
    cfg.fault.max_unit_attempts = 1;

    GraphSession oracle(g);
    std::vector<std::uint64_t> lost_epochs;
    {
      GraphSession s(g, cfg);
      try {
        for (const Pattern& p : {triangle(), path}) {
          StandingQueryConfig sq;
          sq.pattern = p;
          s.register_standing_query(sq);
          oracle.register_standing_query(sq);
        }
      } catch (const FaultInjectedError&) {
        continue;  // a torn registration: nothing for this seed to show
      }
      Counter& faults = s.metrics().counter("faults_injected_total");
      for (int k = 0; k < 8; ++k) {
        const std::uint64_t faults_before = faults.value();
        const UpdateOutcome out = s.apply_updates(make_batch(k, 60));
        if (!out.ok()) {
          EXPECT_EQ(out.status, QueryStatus::kInternalError);
          continue;
        }
        ASSERT_TRUE(oracle.apply_updates(make_batch(k, 60)).ok());
        // Its batch record landed on the one attempt, so a fault here tore
        // the counts record.
        if (faults.value() > faults_before) lost_epochs.push_back(out.epoch);
      }
    }
    const persist::WalReadResult wal = persist::read_wal(wal_file(dir.str()));
    for (const std::uint64_t epoch : lost_epochs) {
      for (const persist::WalRecord& rec : wal.records)
        EXPECT_FALSE(rec.type == persist::WalRecordType::kStandingCounts &&
                     rec.epoch == epoch);
    }
    lost_counts += static_cast<int>(lost_epochs.size());

    auto s = GraphSession::restore(cfg);
    EXPECT_EQ(s->epoch(), oracle.epoch());
    EXPECT_EQ(s->recovery_report().walked_batches, lost_epochs.size());
    for (const std::uint64_t id : {1, 2})
      EXPECT_EQ(s->standing_query(id)->count,
                oracle.standing_query(id)->count);
    EXPECT_EQ(s->standing_query(1)->count, count_triangles(*s));
  }
  EXPECT_GT(lost_counts, 0);  // the schedule must tear a counts record
}

TEST(PersistChaos, ExhaustedWalBudgetReachesTheFaultCounter) {
  // Every attempt tears: each failed write burns max_unit_attempts faults,
  // and the counter must see them although the append throws.
  ScopedDir dir("chaos-wal-counter");
  SessionConfig cfg = persist_cfg(dir.str());
  cfg.fault.set_rate(FaultSite::kWalAppend, 1.0);
  cfg.fault.max_unit_attempts = 2;
  GraphSession s(seed_graph(), cfg);
  const Counter& faults = s.metrics().counter("faults_injected_total");

  const UpdateOutcome out = s.apply_updates(make_batch(0, 60));
  EXPECT_EQ(out.status, QueryStatus::kInternalError);
  EXPECT_EQ(faults.value(), 2u);

  StandingQueryConfig sq;
  sq.pattern = triangle();
  EXPECT_THROW(s.register_standing_query(sq), FaultInjectedError);
  EXPECT_EQ(faults.value(), 4u);
}

TEST(PersistChaos, CheckpointExhaustionDegradesToWalOnly) {
  ScopedDir dir("chaos-ckpt");
  SessionConfig cfg = persist_cfg(dir.str());
  cfg.persistence.checkpoint_every_batches = 2;
  cfg.fault.set_rate(FaultSite::kCheckpointWrite, 1.0);
  cfg.fault.max_unit_attempts = 2;

  std::uint64_t epoch = 0, triangles = 0;
  {
    GraphSession s(seed_graph(), cfg);
    for (int k = 0; k < 4; ++k) {
      const UpdateOutcome out = s.apply_updates(make_batch(k, 60));
      ASSERT_TRUE(out.ok()) << out.error;  // updates survive failed installs
      epoch = out.epoch;
    }
    EXPECT_EQ(s.metrics().counter("checkpoints_written").value(), 0u);
    EXPECT_GE(s.metrics().counter("checkpoint_failures").value(), 2u);
    triangles = count_triangles(s);
  }
  // No checkpoint was ever installed, so the whole history is in the WAL;
  // recovery replays it from the seed.
  GraphSession s(seed_graph(), cfg);
  EXPECT_FALSE(s.recovery_report().checkpoint_loaded);
  EXPECT_EQ(s.recovery_report().replayed_batches, 4u);
  EXPECT_EQ(s.epoch(), epoch);
  EXPECT_EQ(count_triangles(s), triangles);
}

}  // namespace
}  // namespace stm
