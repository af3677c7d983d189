// Service-layer micro-benchmark: plan-cache speedup, deadline overshoot, and
// throughput/latency under concurrent mixed query load.
//
//   ./micro_service [--scale=S] [--quick]
//
// Three sections, matching the service layer's acceptance criteria:
//   1. plan cache — end-to-end latency of repeated small queries, cold
//      (cache cleared before each run) vs warm (plan reused); the warm path
//      must be >= 5x faster where plan compilation dominates;
//   2. deadlines — a deliberately tight budget on a heavy size-7 query over
//      a skewed proxy must come back kDeadlineExceeded within 2x the budget;
//   3. mixed load — q1..q24 submitted concurrently under a per-query
//      deadline: completed-query qps and p50/p95/p99 latency (queries cut
//      off at the deadline are reported as a share, not timed), cache hit
//      rate, status mix.
// Ends by printing the session metrics as JSON and Prometheus text.
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "pattern/queries.hpp"
#include "service/service.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace stm {
namespace {

QueryRequest make_request(const Pattern& p, double deadline_ms,
                          const PlanOptions& plan = {}) {
  QueryRequest req;
  req.pattern = p;
  req.plan = plan;
  req.deadline_ms = deadline_ms;
  return req;
}

// Section 1: cold (cache cleared) vs warm (plan reused) end-to-end latency.
// Small graph + symmetry-broken counting keeps execution cheap relative to
// plan compilation, which is the repeated-small-query regime the cache is
// for.
void bench_plan_cache(int reps) {
  std::printf("== plan cache: cold vs warm (end-to-end, host engine) ==\n");
  GraphSession session(make_barabasi_albert(64, 3, 11));
  PlanOptions unique;
  unique.count_mode = CountMode::kUniqueSubgraphs;

  Table table({"query", "cold_ms", "warm_ms", "speedup"});
  double cold_total = 0.0, warm_total = 0.0;
  for (int q : {16, 23, 24}) {
    std::vector<double> cold_ms, warm_ms;
    for (int rep = 0; rep < reps; ++rep) {
      session.plan_cache().clear();
      cold_ms.push_back(session.run(make_request(query(q), -1.0, unique)).total_ms);
      // First warm run after the cold one primes nothing new; measure it.
      warm_ms.push_back(session.run(make_request(query(q), -1.0, unique)).total_ms);
    }
    const double cold = percentile(cold_ms, 50.0);
    const double warm = percentile(warm_ms, 50.0);
    cold_total += cold;
    warm_total += warm;
    table.add_row({query_name(q), Table::fmt(cold, 3), Table::fmt(warm, 3),
                   Table::fmt(cold / warm, 1) + "x"});
  }
  table.add_separator();
  table.add_row({"all", Table::fmt(cold_total, 3), Table::fmt(warm_total, 3),
                 Table::fmt(cold_total / warm_total, 1) + "x"});
  table.print(std::cout);
  std::printf("(acceptance: warm >= 5x faster overall)\n\n");
}

// Section 2: tight deadline on a heavy size-7 query over a skewed proxy.
void bench_deadline(double scale) {
  std::printf("== deadline overshoot (q17 on enron proxy, host engine) ==\n");
  GraphSession session(make_skewed_dataset("enron", scale));
  Table table({"deadline_ms", "status", "wall_ms", "wall/deadline", "partial_count"});
  for (double deadline : {50.0, 100.0, 250.0}) {
    const QueryResult r = session.run(make_request(query(17), deadline));
    table.add_row({Table::fmt(deadline, 0), to_string(r.status),
                   Table::fmt(r.total_ms, 2),
                   Table::fmt(r.total_ms / deadline, 3) + "x",
                   std::to_string(r.count)});
  }
  table.print(std::cout);
  std::printf("(acceptance: deadline_exceeded within 2x the deadline)\n\n");
}

// Section 3: concurrent mixed q1..q24 load with a per-query deadline.
// Closed-loop clients (each submits its next query when the previous one
// finishes) keep queue wait bounded, so the deadline budget is spent in the
// engine, not in the queue. A query cut off at the deadline returns after
// roughly the deadline whatever its real cost, so timing it would pull the
// percentiles toward the budget: qps and latency count completed queries,
// and the cut-off ones are reported as a share.
void bench_mixed_load(double scale, int rounds) {
  const int num_clients = 4;
  std::printf("== mixed load: %d clients x q1..q24 x %d passes ==\n",
              num_clients, rounds);
  SessionConfig cfg;
  cfg.max_concurrent_queries = 4;
  cfg.max_queued_queries = 256;
  cfg.default_deadline_ms = 100.0;  // heavy queries are cut, light ones finish
  GraphSession session(make_skewed_dataset("enron", scale), cfg);

  std::mutex mu;
  std::size_t deadline = 0, other = 0;
  std::vector<double> ok_ms;
  Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < rounds; ++round) {
        for (int q = 1; q <= num_queries(); ++q) {
          const QueryResult r = session.run(make_request(query(q), 0.0));
          std::lock_guard<std::mutex> lock(mu);
          if (r.status == QueryStatus::kOk) ok_ms.push_back(r.total_ms);
          else if (r.status == QueryStatus::kDeadlineExceeded) ++deadline;
          else ++other;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double total_s = wall.elapsed_ms() / 1000.0;
  const std::size_t ok = ok_ms.size();
  const std::size_t n = ok + deadline + other;
  std::printf("%zu queries in %.2f s -> %.1f completed qps\n", n, total_s,
              static_cast<double>(ok) / total_s);
  std::printf("status: %zu ok, %zu deadline_exceeded (%.1f%% hit the %.0f ms "
              "deadline), %zu other\n",
              ok, deadline, 100.0 * static_cast<double>(deadline) / n,
              cfg.default_deadline_ms, other);
  if (ok > 0) {
    std::printf("ok-query latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                percentile(ok_ms, 50.0), percentile(ok_ms, 95.0),
                percentile(ok_ms, 99.0));
  }
  std::printf("plan cache hit rate: %.0f%%\n\n",
              100.0 * session.plan_cache().stats().hit_rate());

  std::printf("--- session metrics (JSON) ---\n%s\n",
              session.metrics().to_json().c_str());
  std::printf("--- session metrics (Prometheus) ---\n%s",
              session.metrics().to_prometheus().c_str());
}

}  // namespace
}  // namespace stm

int main(int argc, char** argv) {
  using namespace stm;
  const bench::BenchArgs args = bench::parse_args(argc, argv, /*default_scale=*/0.25);
  const int reps = args.quick ? 10 : 30;
  const int rounds = args.quick ? 1 : 3;
  bench_plan_cache(reps);
  bench_deadline(args.scale);
  bench_mixed_load(args.scale, rounds);
  return 0;
}
