// Micro-benchmarks of the streaming results subsystem: the cost of emitting
// embeddings vs. counting them, stream throughput as a function of the
// backpressure buffer, the producer stall fraction a slow consumer causes,
// and the cost of a resumed page by stream position (EXPERIMENTS.md records
// the baseline expectations).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"

namespace {

using namespace stm;

const Graph& stream_base() {
  // Power-law proxy: skewed degrees give large per-vertex buckets, the
  // worst case for the sequencer's pending map.
  static const Graph g = make_barabasi_albert(2000, 6, 77);
  return g;
}

GraphSession& shared_session() {
  static GraphSession session{Graph(stream_base())};
  return session;
}

StreamRequest triangle_stream(std::size_t threads, std::size_t max_buffered) {
  StreamRequest req;
  req.query.pattern = Pattern::parse("0-1,1-2,2-0");
  req.query.host.num_threads = threads;
  req.stream.max_buffered = max_buffered;
  return req;
}

/// Count-only baseline: the same enumeration with no emission pipeline.
void BM_CountOnly(benchmark::State& state) {
  GraphSession& session = shared_session();
  std::uint64_t count = 0;
  for (auto _ : state) {
    QueryRequest req;
    req.pattern = Pattern::parse("0-1,1-2,2-0");
    req.host.num_threads = static_cast<std::size_t>(state.range(0));
    const QueryResult r = session.run(std::move(req));
    count = r.count;
    benchmark::DoNotOptimize(count);
  }
  state.counters["matches"] = static_cast<double>(count);
}
BENCHMARK(BM_CountOnly)->Arg(1)->Arg(4);

/// Full drain: every embedding through sequencer + consumer. The ratio to
/// BM_CountOnly is the emission overhead.
void BM_StreamDrain(benchmark::State& state) {
  GraphSession& session = shared_session();
  std::uint64_t drained = 0;
  for (auto _ : state) {
    auto s = session.open_stream(
        triangle_stream(static_cast<std::size_t>(state.range(0)), 4096));
    Embedding e;
    drained = 0;
    while (s->next(&e)) {
      ++drained;
      benchmark::DoNotOptimize(e);
    }
  }
  state.counters["embeddings"] = static_cast<double>(drained);
  state.counters["emb_per_s"] = benchmark::Counter(
      static_cast<double>(drained), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_StreamDrain)->Arg(1)->Arg(4);

/// Throughput vs. backpressure bound: tiny buffers serialize producers on
/// the consumer, large ones decouple them.
void BM_StreamBufferSweep(benchmark::State& state) {
  GraphSession& session = shared_session();
  const auto before =
      session.metrics().histogram("stream_backpressure_ms").snapshot().sum;
  std::uint64_t drained = 0;
  for (auto _ : state) {
    auto s = session.open_stream(
        triangle_stream(4, static_cast<std::size_t>(state.range(0))));
    Embedding e;
    drained = 0;
    while (s->next(&e)) ++drained;
  }
  const auto after =
      session.metrics().histogram("stream_backpressure_ms").snapshot().sum;
  state.counters["embeddings"] = static_cast<double>(drained);
  state.counters["stall_ms_per_iter"] =
      (after - before) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_StreamBufferSweep)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

/// One 1,000-embedding page resumed at Arg(0) percent of the stream, its
/// token minted before the timed loop. A resumed page seeks to its position,
/// so its cost follows what it delivers and how many outer vertices that
/// spans, not how much of the stream lies before it.
void BM_ResumedPage(benchmark::State& state) {
  GraphSession& session = shared_session();
  constexpr std::uint64_t kPage = 1000;
  std::uint64_t total = 0;
  {
    auto s = session.open_stream(triangle_stream(1, 4096));
    Embedding e;
    while (s->next(&e)) ++total;
  }
  const std::uint64_t position =
      total * static_cast<std::uint64_t>(state.range(0)) / 100;
  std::string token;
  if (position > 0) {
    StreamRequest req = triangle_stream(1, 4096);
    req.stream.limit = position;
    auto s = session.open_stream(std::move(req));
    Embedding e;
    while (s->next(&e)) {
    }
    token = s->resume_token();
  }
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    StreamRequest req = triangle_stream(1, 4096);
    req.stream.limit = kPage;
    req.stream.resume_token = token;
    auto s = session.open_stream(std::move(req));
    Embedding e;
    delivered = 0;
    while (s->next(&e)) {
      ++delivered;
      benchmark::DoNotOptimize(e);
    }
    benchmark::DoNotOptimize(s->result());
  }
  state.counters["position"] = static_cast<double>(position);
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_ResumedPage)->Arg(0)->Arg(25)->Arg(50)->Arg(75)->UseRealTime();

/// Top-k keeps a bounded heap instead of materializing the stream.
void BM_TopK(benchmark::State& state) {
  GraphSession& session = shared_session();
  TopKOptions opts;
  opts.k = static_cast<std::size_t>(state.range(0));
  opts.score = [](const Embedding& e) {
    double s = 0.0;
    for (VertexId v : e) s += static_cast<double>(v);
    return s;
  };
  for (auto _ : state) {
    QueryRequest req;
    req.pattern = Pattern::parse("0-1,1-2,2-0");
    const TopKResult r = session.top_k(req, opts);
    benchmark::DoNotOptimize(r.top);
  }
}
BENCHMARK(BM_TopK)->Arg(10)->Arg(1000);

}  // namespace
