#include "core/run.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "core/engine.hpp"
#include "core/recursive.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSimt:
      return "simt";
    case EngineKind::kHost:
      return "host";
    case EngineKind::kReference:
      return "reference";
  }
  return "unknown";
}

namespace {

bool expired(const CancelToken* cancel) {
  return cancel != nullptr && cancel->expired();
}

/// The stream's reference lane: the sequential recursive executor, one
/// bucket per outer-loop vertex, posted in order until the buckets hold the
/// sink's budget (the last one cut at it). Shares the plan (hence the order)
/// with the optimized engines but none of their scheduling — the oracle
/// compares the engines' drained streams against this one.
EngineRun run_reference_stream(GraphView g, const MatchingPlan& plan,
                               VertexId start, const CancelToken* cancel,
                               EmbeddingSink& sink) {
  const VertexId n = g.num_vertices();
  const VertexId begin = std::min(start, n);
  sink.begin(n - begin);
  EngineRun run;
  RecursiveCounters counters;
  Timer engine_timer;
  std::uint64_t room = sink.budget();
  for (VertexId v0 = begin; v0 < n && room > 0; ++v0) {
    EmbeddingBatch staged;
    run.count += recursive_enumerate_range(
        g, plan, v0, v0 + 1, AppendToBatch{staged, room}, &counters, cancel);
    // A fired token may have cut the bucket short; an incomplete bucket is
    // never posted (the stream ends at the previous, complete one).
    if (expired(cancel)) break;
    if (!sink.post(v0 - begin, std::move(staged))) break;
  }
  run.stats.engine_ms = engine_timer.elapsed_ms();
  run.stats.scalar_ops = counters.scalar_ops;
  run.stats.sets_built = counters.sets_built;
  if (expired(cancel)) run.stats.status = cancel->status();
  return run;
}

}  // namespace

EngineRun run_engine(EngineKind kind, GraphView g, const MatchingPlan& plan,
                     const HostEngineConfig& host, const EngineConfig& simt,
                     std::uint64_t attempt, const CancelToken* cancel,
                     EmbeddingSink* sink, VertexId start) {
  STM_CHECK_MSG(start == 0 || sink != nullptr,
                "only a stream starts the outer loop past vertex 0");
  // A fresh fault incarnation per attempt: the injected-failure schedule is
  // a pure function of (seed, incarnation, site, key), so transient faults
  // clear deterministically on retry instead of repeating forever.
  EngineRun run;
  switch (kind) {
    case EngineKind::kSimt: {
      EngineConfig cfg = simt;
      cfg.fault.incarnation += attempt;
      const MatchResult r =
          stmatch_match(g, plan, cfg, cancel, sink, OuterRange{start});
      run.count = r.count;
      run.stats = r.query;
      break;
    }
    case EngineKind::kHost: {
      HostEngineConfig cfg = host;
      cfg.fault.incarnation += attempt;
      const HostMatchResult r = host_match(g, plan, cfg, cancel, sink, start);
      run.count = r.count;
      run.stats = r.stats;
      break;
    }
    case EngineKind::kReference: {
      if (sink != nullptr)
        return run_reference_stream(g, plan, start, cancel, *sink);
      // Last-resort path: shares no candidate-set machinery with the
      // optimized engines, so faults rooted there cannot follow us here. It
      // reorders the pattern itself, so the plan's pattern counts the same
      // as the caller's.
      Timer engine_timer;
      run.count = reference_count(
          g, plan.pattern(),
          {plan.options().induced, plan.options().count_mode}, cancel);
      run.stats.engine_ms = engine_timer.elapsed_ms();
      if (expired(cancel)) run.stats.status = cancel->status();
      break;
    }
  }
  return run;
}

}  // namespace stm
