#include "dist/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "dist/scheduler.hpp"
#include "mqo/evaluator.hpp"
#include "pattern/matching_order.hpp"
#include "storage/pager.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace stm::dist {

namespace {

/// Unit-identity bits of a kShardFailure fault key: (kind, index, attempt).
constexpr std::uint64_t unit_key(std::uint64_t kind, std::uint64_t index,
                                 std::uint64_t attempt) {
  return (kind << 40) | (index << 16) | attempt;
}
constexpr std::uint64_t kLocalUnit = 0;
constexpr std::uint64_t kChunkUnit = 1;

/// Cut edges per schedulable anchor chunk: the unit the scheduler steals.
constexpr std::size_t kCutChunkSize = 16;

/// The shard-local term of one shard, in the requested count mode.
struct LocalOutcome {
  std::uint64_t count = 0;
  QueryStats query;
  std::uint32_t attempts = 0;
};

/// One cut-edge chunk's contribution (always embeddings).
struct ChunkOutcome {
  std::uint64_t embeddings = 0;
  std::uint64_t units_recovered = 0;
  QueryStatus status = QueryStatus::kOk;
  std::string error;  // the last failed attempt's storage error
};

}  // namespace

ShardedMatcher::ShardedMatcher(const Pattern& pattern,
                               const ShardedOptions& opts)
    : pattern_(pattern), opts_(opts) {
  STM_CHECK_MSG(pattern_.size() >= 1, "pattern must have at least one vertex");
  // Default PlanOptions: edge-induced, counting embeddings.
  if (opts_.plan.induced == Induced::kEdge && pattern_.size() >= 2)
    cut_index_.add(kCutQuery, pattern_, PlanOptions{}, false);
}

ShardedResult ShardedMatcher::match(GraphView g, const Partition& partition,
                                    const MatchingPlan& local_plan,
                                    const HostEngineConfig& host,
                                    const EngineConfig& simt,
                                    std::uint64_t attempt,
                                    const CancelToken* cancel) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t num_shards = partition.num_shards();
  STM_CHECK_MSG(!partition.shards.empty(),
                "sharded matching requires a materialized partition");
  STM_CHECK(g.num_vertices() == partition.num_vertices);
  STM_CHECK_MSG(opts_.plan.induced == Induced::kEdge || num_shards == 1,
                "vertex-induced matching cannot be sharded: an induced match "
                "can cross shards without containing a cut edge");
  // The shard-local engines would throw this inside a pool task, and the
  // cut-term walk would match nothing.
  STM_CHECK_MSG(!pattern_.is_labeled() || g.is_labeled(),
                "labeled pattern requires a labeled data graph");

  ShardedResult result;
  result.cut_edges = partition.cut_edges.size();
  if (partition.num_edges > 0)
    result.cut_fraction = static_cast<double>(result.cut_edges) /
                          static_cast<double>(partition.num_edges);
  VertexId max_owned = 0;
  for (const auto& shard : partition.shards)
    max_owned = std::max(max_owned, shard->num_owned());
  if (partition.num_vertices > 0)
    result.vertex_imbalance =
        static_cast<double>(max_owned) * num_shards / partition.num_vertices;

  // Fault schedule of this call: the caller's retry attempt shifts the
  // incarnation so a transient shard failure clears deterministically.
  FaultConfig fault_cfg = opts_.fault;
  fault_cfg.incarnation += attempt;
  FaultInjector injector(fault_cfg);
  std::atomic<bool> exhausted{false};

  // A chunk walks its cut edges over `g` itself under the edge order of
  // sharded.hpp, so chunks are independent: they only read the index and `g`.
  const auto& cut = partition.cut_edges;
  const mqo::MultiQueryEvaluator evaluator(cut_index_);
  const std::size_t num_chunks =
      cut_index_.empty() ? 0 : (cut.size() + kCutChunkSize - 1) / kCutChunkSize;
  std::vector<ChunkOutcome> chunks(num_chunks);

  // --- Shard-local units -------------------------------------------------
  std::vector<LocalOutcome> locals(num_shards);
  const CostModel& cost = simt.cost;
  ShardScheduler scheduler(num_shards);

  auto run_local = [&](std::uint32_t s) {
    const Shard& shard = *partition.shards[s];
    LocalOutcome& out = locals[s];
    for (std::uint32_t a = 0; a < fault_cfg.max_unit_attempts; ++a) {
      ++out.attempts;
      if (cancel != nullptr && cancel->expired()) {
        out.query.status = cancel->status();
        return;
      }
      if (injector.should_fail(FaultSite::kShardFailure,
                               unit_key(kLocalUnit, s, a)))
        continue;  // the unit died before completing; re-run it
      EngineRun r;
      try {
        r = run_engine(opts_.engine, shard.local, local_plan, host, simt,
                       attempt + a, cancel);
      } catch (const FaultInjectedError&) {
        // The engine call itself threw (FaultSite::kEngineThrow).
        r.stats.status = QueryStatus::kInternalError;
        r.stats.faults_injected = 1;
      }
      if (r.stats.status == QueryStatus::kInternalError) {
        // The inner engine failed or its own recovery budget ran out; treat
        // the whole shard run as a failed unit and re-run with a new
        // incarnation.
        out.query.faults_injected += r.stats.faults_injected;
        continue;
      }
      out.count = r.count;
      out.query += r.stats;
      if (a > 0) ++out.query.units_recovered;
      return;
    }
    out.query.status = QueryStatus::kInternalError;
    exhausted.store(true, std::memory_order_relaxed);
  };

  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const Shard& shard = *partition.shards[s];
    if (shard.num_owned() == 0) continue;
    // LPT proxy from the SIMT cost model: a shard's enumeration scans each
    // vertex's neighborhood against its neighbors' lists (~Σ deg²).
    double est = static_cast<double>(cost.kernel_launch);
    for (VertexId v = 0; v < shard.local.num_vertices(); ++v) {
      const double d = static_cast<double>(shard.local.degree(v));
      est += d * d * static_cast<double>(cost.wave_overhead);
    }
    scheduler.add({s, est, [&run_local, s] { run_local(s); }});
  }

  auto run_chunk = [&](std::size_t c) {
    ChunkOutcome& out = chunks[c];
    const std::size_t lo = c * kCutChunkSize;
    const std::size_t hi = std::min(cut.size(), lo + kCutChunkSize);
    for (std::uint32_t a = 0; a < fault_cfg.max_unit_attempts; ++a) {
      if (cancel != nullptr && cancel->expired()) {
        out.status = cancel->status();
        return;
      }
      if (injector.should_fail(FaultSite::kShardFailure,
                               unit_key(kChunkUnit, c, a)))
        continue;
      try {
        mqo::EvalResult walk;
        walk.groups.resize(cut_index_.num_group_slots());
        for (std::size_t i = lo; i < hi; ++i)
          evaluator.accumulate(g, cut[i].first, cut[i].second, &walk,
                               partition.owner);
        out.embeddings =
            static_cast<std::uint64_t>(walk.groups[0].embeddings);
      } catch (const storage::PageReadError& e) {
        // `g` may read a spill store, and a pool task must not throw: the
        // attempt failed like an injected unit failure.
        out.error = e.what();
        continue;
      }
      if (a > 0) ++out.units_recovered;
      return;
    }
    out.status = QueryStatus::kInternalError;
    exhausted.store(true, std::memory_order_relaxed);
  };

  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t lo = c * kCutChunkSize;
    const std::size_t hi = std::min(cut.size(), lo + kCutChunkSize);
    // Anchored work per cut edge scales with the endpoint degrees, the
    // anchor count (one per pattern edge), and both seed orientations.
    double est = static_cast<double>(cost.kernel_launch);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& [u, v] = cut[i];
      est += static_cast<double>(g.degree(u) + g.degree(v)) *
             static_cast<double>(2 * pattern_.num_edges()) *
             static_cast<double>(cost.wave_overhead);
    }
    scheduler.add({partition.cut_owner(cut[lo].first, cut[lo].second), est,
                   [&run_chunk, c] { run_chunk(c); }});
  }

  // --- Execute and aggregate ---------------------------------------------
  const std::uint32_t num_workers =
      opts_.num_workers > 0 ? opts_.num_workers : num_shards;
  ThreadPool pool(num_workers);
  const SchedulerStats sched = scheduler.run(pool, num_workers);
  result.chunk_steals = sched.steals;

  result.shards.resize(num_shards);
  QueryStats merged;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    ShardStats& st = result.shards[s];
    st.shard = s;
    st.owned_vertices = partition.shards[s]->num_owned();
    st.local_count = locals[s].count;
    st.cut_edges_owned = partition.shards[s]->cut_edges.size();
    st.attempts = locals[s].attempts;
    st.query = locals[s].query;
    merged += st.query;
    result.local_total += locals[s].count;
  }
  std::uint64_t cut_embeddings = 0;
  std::string chunk_error;
  for (const ChunkOutcome& c : chunks) {
    if (c.status != QueryStatus::kOk && chunk_error.empty())
      chunk_error = c.error;
    cut_embeddings += c.embeddings;
    result.units_recovered += c.units_recovered;
    if (c.status != QueryStatus::kOk && merged.status == QueryStatus::kOk)
      merged.status = c.status;
  }
  result.units_recovered += merged.units_recovered;
  result.faults_injected +=
      merged.faults_injected + injector.total_injected();

  result.cut_total = cut_embeddings;
  if (opts_.plan.count_mode == CountMode::kUniqueSubgraphs &&
      cut_embeddings > 0) {
    const std::uint64_t aut = automorphisms();
    STM_CHECK_MSG(cut_embeddings % aut == 0,
                  "cut-edge embedding total " << cut_embeddings
                                              << " not divisible by |Aut| "
                                              << aut);
    result.cut_total = cut_embeddings / aut;
  }
  result.count = result.local_total + result.cut_total;

  result.status = merged.status;
  if (exhausted.load(std::memory_order_relaxed)) {
    result.status = QueryStatus::kInternalError;
    result.error = "a sharded unit exhausted its recovery budget";
    if (!chunk_error.empty()) result.error.append(": ").append(chunk_error);
  } else if (result.status != QueryStatus::kOk) {
    result.error.assign("sharded units stopped: ")
        .append(to_string(result.status))
        .append(" (count is partial)");
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

ShardedResult sharded_match(const Graph& g, const Pattern& pattern,
                            const PartitionConfig& partition,
                            const ShardedOptions& opts,
                            const HostEngineConfig& host,
                            const EngineConfig& simt) {
  const Partition p = partition_graph(g, partition);
  ShardedMatcher matcher(pattern, opts);
  const MatchingPlan plan(reorder_for_matching(pattern), opts.plan);
  return matcher.match(g, p, plan, host, simt);
}

}  // namespace stm::dist
