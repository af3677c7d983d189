// Micro-benchmarks of the durability subsystem: apply-path throughput with
// the WAL off / on (buffered) / on (fsync), checkpoint install cost,
// recovery replay speed, and CRC-32 throughput per kernel. The WAL-off vs.
// WAL-on buffered gap is the write-ahead overhead itself (encode + crc +
// write); fsync adds the device's flush latency per batch. Baselines
// recorded in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "persist/codec.hpp"
#include "persist/wal.hpp"
#include "service/service.hpp"

namespace {

using namespace stm;
using bench::random_batch;
using bench::scratch_dir;

namespace fs = std::filesystem;

const Graph& bench_base() {
  static const Graph g = make_barabasi_albert(2000, 6, 77);
  return g;
}

/// Apply throughput: state.range(0) = edges per batch, range(1) selects
/// 0 = no persistence, 1 = WAL buffered, 2 = WAL + fsync.
void BM_ApplyWithWal(benchmark::State& state) {
  const int batch_edges = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  SessionConfig cfg;
  std::string dir;
  if (mode > 0) {
    dir = scratch_dir("micro-persist");
    cfg.persistence.dir = dir;
    cfg.persistence.fsync = mode == 2;
  }
  GraphSession session(bench_base(), cfg);
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    UpdateBatch batch =
        random_batch(*session.snapshot(), rng, batch_edges);
    state.ResumeTiming();
    const UpdateOutcome out = session.apply_updates(std::move(batch));
    benchmark::DoNotOptimize(out.epoch);
  }
  if (mode > 0) {
    state.counters["wal_bytes"] = static_cast<double>(
        session.metrics().counter("wal_appended_bytes_total").value());
  }
  state.SetLabel(mode == 0 ? "wal_off" : (mode == 1 ? "wal_buffered"
                                                    : "wal_fsync"));
  if (!dir.empty()) fs::remove_all(dir);
}
BENCHMARK(BM_ApplyWithWal)
    ->ArgsProduct({{10, 100}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

/// Checkpoint install: compacted-CSR serialization + crc + atomic rename.
void BM_Checkpoint(benchmark::State& state) {
  const std::string dir = scratch_dir("micro-persist");
  SessionConfig cfg;
  cfg.persistence.dir = dir;
  cfg.persistence.fsync = false;
  GraphSession session(bench_base(), cfg);
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    session.apply_updates(random_batch(*session.snapshot(), rng, 50));
    state.ResumeTiming();
    benchmark::DoNotOptimize(session.checkpoint());
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_Checkpoint)->Unit(benchmark::kMillisecond);

/// Recovery: construction cost against a directory holding range(0)
/// WAL batches past the checkpoint, with range(1) standing registrations
/// live: 0, or the first range(1) of update_standing's 8 shapes. `walked`
/// counts the batches recovery walked for standing counts.
void BM_RecoveryReplay(benchmark::State& state) {
  const int batches = static_cast<int>(state.range(0));
  const auto shapes = static_cast<std::size_t>(state.range(1));
  const std::string dir = scratch_dir("micro-persist");
  SessionConfig cfg;
  cfg.persistence.dir = dir;
  cfg.persistence.fsync = false;
  {
    GraphSession session(bench_base(), cfg);
    for (std::size_t k = 0; k < shapes; ++k) {
      StandingQueryConfig sq;
      sq.pattern = bench::standing_shapes().at(k).second;
      session.register_standing_query(std::move(sq));
    }
    Rng rng(7);
    for (int i = 0; i < batches; ++i)
      session.apply_updates(random_batch(*session.snapshot(), rng, 50));
  }
  persist::RecoveryReport report;
  for (auto _ : state) {
    auto session = GraphSession::restore(cfg);
    benchmark::DoNotOptimize(session->epoch());
    report = session->recovery_report();
  }
  state.counters["replayed"] = static_cast<double>(report.replayed_batches);
  state.counters["walked"] = static_cast<double>(report.walked_batches);
  state.counters["recovery_ms"] = report.recovery_ms;
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoveryReplay)
    ->ArgsProduct({{0, 16, 64}, {0, 8}})
    ->Unit(benchmark::kMillisecond);

/// Raw WAL append cost (no session, no graph work): the floor of the
/// write-ahead overhead per record.
void BM_WalAppendRaw(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const std::string dir = scratch_dir("micro-persist");
  persist::WalWriter w((fs::path(dir) / "wal.stmwal").string(), 1,
                       /*fsync=*/false, 0, nullptr, 1);
  DeltaEdges d;
  for (int i = 0; i < edges; ++i)
    d.inserted.emplace_back(static_cast<VertexId>(i),
                            static_cast<VertexId>(i + 1));
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.append_update(++epoch, d).bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(w.appended_bytes()));
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppendRaw)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);

/// CRC-32 throughput over range(0) bytes of random data (64 B is a small WAL
/// record, 4-64 KiB the page sizes); range(1) selects 0 = the dispatched
/// crc32(), 1 = the byte loop.
void BM_Crc32(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const bool bytewise = state.range(1) == 1;
  std::string buf(bytes, '\0');
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  for (char& c : buf) c = static_cast<char>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.data());
    const std::uint32_t crc = bytewise
                                  ? persist::detail::crc32_bytewise(0, buf)
                                  : persist::crc32(buf);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(bytewise ? "bytewise" : persist::crc32_kernel());
}
BENCHMARK(BM_Crc32)->ArgsProduct({{64, 4096, 16384, 65536}, {0, 1}});

}  // namespace
