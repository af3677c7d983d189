#include "core/host_engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/recursive.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

namespace {

/// A chunk whose task failed: its partial count was discarded, so re-running
/// it from scratch keeps the total exact. `attempts` counts failures of this
/// unit; decisions are keyed by (begin, attempts), so a retry can succeed.
struct RetryChunk {
  VertexId begin = 0;
  VertexId end = 0;
  std::uint32_t attempts = 0;
};

}  // namespace

HostMatchResult host_match(GraphView g, const MatchingPlan& plan,
                           const HostEngineConfig& cfg,
                           const CancelToken* cancel, EmbeddingSink* sink,
                           VertexId v_begin) {
  STM_CHECK(cfg.chunk_size >= 1);
  std::optional<FaultInjector> injector;
  if (cfg.fault.enabled()) {
    injector.emplace(cfg.fault);
    if (injector->should_fail(FaultSite::kEngineThrow, 0)) {
      throw FaultInjectedError("injected fault: host engine call failed");
    }
  }
  std::size_t threads = cfg.num_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const VertexId n = g.num_vertices();
  std::atomic<VertexId> cursor{v_begin};
  // An emitting run claims one outer vertex per grab, so a bucket is posted
  // as soon as its vertex is done and is never staged beside its neighbours.
  const VertexId grab = sink != nullptr ? 1 : cfg.chunk_size;
  const std::size_t k = plan.size();
  const std::uint64_t budget =
      sink != nullptr ? sink->budget() : kUnlimitedBudget;
  // Emission is disabled for the rest of the run once the sink reports the
  // stream aborted/failed; counting continues unaffected.
  std::atomic<bool> emit_stop{false};
  if (sink != nullptr) sink->begin(v_begin >= n ? 0 : n - v_begin);
  std::atomic<bool> interrupted{false};
  std::atomic<bool> budget_exhausted{false};
  std::atomic<std::size_t> active_chunks{0};
  std::atomic<std::uint64_t> units_recovered{0};
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<RecursiveCounters> counters(threads);

  // Failed chunks waiting for re-execution. Only touched on the chaos path;
  // the fault-free fast path never takes the lock.
  std::mutex retry_mu;
  std::deque<RetryChunk> retry;

  // A worker that throws (e.g. a fail-closed storage decode: an exhausted
  // spill-page retry budget surfaces as check_error from neighbors()) must
  // not take the process down. The first exception is captured, every other
  // worker is stopped, and the caller's thread rethrows after the join — so
  // the service's engine-call boundary sees it like any single-threaded
  // engine throw.
  std::mutex error_mu;
  std::exception_ptr first_error;

  Timer timer;
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        try {
        // Dynamic chunk claiming is the host-side analogue of the warp-level
        // chunk grabbing in the SIMT engine.
        CancelPoller poller(cancel);
        // Completed buckets not yet accepted by the sink. A worker parks on
        // backpressure only to post the release head, whose admission waits
        // on the consumer alone; any other bucket that does not fit waits
        // here while the worker keeps computing (a parked worker could be
        // the only one able to run the retry chunk that holds the release
        // head). It blocking-flushes on exit, in ascending bucket order.
        std::vector<std::pair<std::uint64_t, EmbeddingBatch>> pending;
        // Embeddings this worker has staged. Once they hold the page budget
        // the worker claims no further vertex. Its fresh claims ascend, so
        // by the end of the last one (cut at the budget) the consumer has
        // read all it staged, at least the budget: the page ends inside that
        // bucket. Retry chunks still run, staged whole.
        std::uint64_t staged_total = 0;
        auto flush_pending = [&](bool blocking) {
          if (pending.empty()) return;
          if (emit_stop.load(std::memory_order_relaxed)) {
            pending.clear();
            return;
          }
          std::sort(pending.begin(), pending.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
          std::size_t done = 0;
          for (; done < pending.size(); ++done) {
            auto& [bucket, batch] = pending[done];
            if (blocking) {
              if (!sink->post(bucket, std::move(batch))) {
                emit_stop.store(true, std::memory_order_relaxed);
                pending.clear();
                return;
              }
            } else {
              const auto r = sink->try_post(bucket, batch);
              if (r == EmbeddingSink::TryPost::kWouldBlock) break;
              if (r == EmbeddingSink::TryPost::kAborted) {
                emit_stop.store(true, std::memory_order_relaxed);
                pending.clear();
                return;
              }
            }
          }
          pending.erase(pending.begin(),
                        pending.begin() + static_cast<std::ptrdiff_t>(done));
        };
        for (;;) {
          if (poller.fired_now()) {
            // Fired while this worker still had the loop to run: the count
            // is (potentially) partial. A token that only expires after the
            // cursor is exhausted and all recursions returned never trips
            // this, so complete runs stay kOk.
            interrupted.store(true, std::memory_order_relaxed);
            break;
          }
          if (budget_exhausted.load(std::memory_order_relaxed)) break;
          RetryChunk chunk;
          bool have = false;
          if (injector.has_value()) {
            std::lock_guard<std::mutex> lock(retry_mu);
            if (!retry.empty()) {
              chunk = retry.front();
              retry.pop_front();
              have = true;
            }
          }
          if (!have && staged_total < budget) {
            const VertexId begin =
                cursor.fetch_add(grab, std::memory_order_relaxed);
            if (begin < n) {
              chunk = {begin, std::min<VertexId>(n, begin + grab), 0};
              have = true;
            }
          }
          if (!have) {
            if (!injector.has_value()) break;
            // Chunks still in flight elsewhere may fail and feed the retry
            // queue; spin until everything is settled.
            if (active_chunks.load(std::memory_order_acquire) == 0) {
              std::lock_guard<std::mutex> lock(retry_mu);
              if (retry.empty()) break;
            }
            if (sink != nullptr) flush_pending(/*blocking=*/false);
            std::this_thread::yield();
            continue;
          }
          active_chunks.fetch_add(1, std::memory_order_acq_rel);
          const bool emitting =
              sink != nullptr && !emit_stop.load(std::memory_order_relaxed);
          EmbeddingBatch staged;
          std::uint64_t found = 0;
          if (emitting) {
            std::uint64_t room =
                chunk.attempts > 0 ? kUnlimitedBudget : budget - staged_total;
            found = recursive_enumerate_range(g, plan, chunk.begin, chunk.end,
                                              AppendToBatch{staged, room},
                                              &counters[t], cancel);
          } else {
            found = recursive_count_range(g, plan, chunk.begin, chunk.end,
                                          &counters[t], cancel);
          }
          if (injector.has_value() &&
              injector->should_fail(
                  FaultSite::kHostTask,
                  (static_cast<std::uint64_t>(chunk.begin) << 16) |
                      chunk.attempts)) {
            // The task died mid-chunk: its partial count (and any staged
            // embeddings) are discarded and the whole chunk re-enqueued, so
            // the final total and the stream both stay exact.
            const std::uint32_t attempts = chunk.attempts + 1;
            if (attempts >= cfg.fault.max_unit_attempts) {
              budget_exhausted.store(true, std::memory_order_relaxed);
            } else {
              std::lock_guard<std::mutex> lock(retry_mu);
              retry.push_back({chunk.begin, chunk.end, attempts});
            }
          } else {
            counts[t] += found;
            if (chunk.attempts > 0)
              units_recovered.fetch_add(1, std::memory_order_relaxed);
            // Post only chunks that enumerated to completion or to the page
            // budget: a token that fired mid-chunk leaves `staged` a prefix
            // of the bucket, which must not enter the stream (the drained
            // prefix would no longer be bucket-aligned and thus not
            // reproducible).
            if (emitting && (cancel == nullptr || !cancel->expired())) {
              staged_total += staged.size() / k;
              pending.emplace_back(chunk.begin - v_begin,
                                   std::move(staged));
              flush_pending(/*blocking=*/false);
            }
          }
          active_chunks.fetch_sub(1, std::memory_order_acq_rel);
          if (cancel != nullptr) cancel->report_progress();
        }
        if (sink != nullptr) flush_pending(/*blocking=*/true);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
          // Stop the other workers promptly (same fast-path flag the
          // attempt-budget exhaustion uses) and disable emission so their
          // exit flushes drop instead of blocking on a stream that can no
          // longer complete.
          budget_exhausted.store(true, std::memory_order_relaxed);
          emit_stop.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  HostMatchResult result;
  result.stats.engine_ms = timer.elapsed_ms();
  if (budget_exhausted.load(std::memory_order_relaxed)) {
    result.stats.status = QueryStatus::kInternalError;
  } else if (interrupted.load(std::memory_order_relaxed)) {
    result.stats.status = cancel->status();
  }
  for (std::size_t t = 0; t < threads; ++t) {
    result.count += counts[t];
    result.stats.scalar_ops += counters[t].scalar_ops;
    result.stats.sets_built += counters[t].sets_built;
  }
  if (injector.has_value()) {
    result.stats.faults_injected = injector->total_injected();
    result.stats.units_recovered =
        units_recovered.load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace stm
