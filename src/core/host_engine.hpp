// Host-parallel execution path: real std::thread workers with dynamic
// chunk distribution over the outermost loop.
//
// This is the execution mode a CPU-only downstream user runs in production;
// the SIMT engine (engine.hpp) is the paper-faithful simulated-GPU path.
// Both consume the same MatchingPlan and must produce identical counts.
#pragma once

#include <cstddef>

#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/emit.hpp"
#include "core/fault.hpp"
#include "core/query_stats.hpp"
#include "graph/view.hpp"
#include "pattern/plan.hpp"

namespace stm {

struct HostEngineConfig {
  /// Worker threads (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Outer-loop vertices claimed per work grab by a counting run (a run
  /// with a sink claims one vertex per grab, see host_match).
  VertexId chunk_size = 16;
  /// Deterministic fault-injection schedule (off by default). Sites
  /// interpreted here: kHostTask (a chunk's partial work is discarded and
  /// the chunk re-enqueued, bounded by max_unit_attempts) and kEngineThrow
  /// (the host_match call itself throws FaultInjectedError).
  FaultConfig fault;
};

struct HostMatchResult {
  /// Match count; partial when stats.status != kOk.
  std::uint64_t count = 0;
  /// Unified per-query statistics (engine_ms = wall-clock of the parallel
  /// section, scalar_ops = aggregate scalar set-operation work).
  QueryStats stats;
};

/// Counts matches of the plan on real threads over outer-loop vertices
/// v_begin and up (a resumed stream starts after its cursor's vertex, see
/// service/stream.hpp). A non-null `cancel` token is polled cooperatively by
/// every worker; when it fires, the run returns early with the partial count
/// and stats.status = kDeadlineExceeded / kCancelled.
///
/// With a non-null `sink` the engine also emits every matched embedding.
/// Such a run claims one outer vertex per grab (chunk_size then only governs
/// counting runs), so bucket id = v - v_begin: dense, ascending in outer-loop
/// vertex, and the same bucket space as the SIMT and reference producers.
/// The sequenced stream is the plan's DFS order. A vertex's bucket is posted
/// only after it enumerated exactly (interrupted or kHostTask-failed units
/// are never posted, keeping the stream exact; a retried unit posts on its
/// successful attempt). A worker whose staged buckets hold the sink's page
/// budget claims no further vertex, its last bucket cut at the budget.
/// Workers block on backpressure only to post the release head, which waits
/// on the consumer alone — other completed buckets park in a per-worker
/// pending list and are flushed opportunistically, with a final blocking
/// flush at exit.
HostMatchResult host_match(GraphView g, const MatchingPlan& plan,
                           const HostEngineConfig& cfg = {},
                           const CancelToken* cancel = nullptr,
                           EmbeddingSink* sink = nullptr,
                           VertexId v_begin = 0);

}  // namespace stm
