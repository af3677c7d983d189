// The one engine call site.
//
// Every count the service serves, every stream producer, every standing-
// query baseline and every shard-local unit of a sharded count runs through
// run_engine, which picks the engine and applies the retry attempt's fault
// incarnation. The outer-loop range is not a request setting: only a
// resumed stream starts past vertex 0, and the multi-device facade and the
// engine tests slice the loop by calling the SIMT engine directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/emit.hpp"
#include "core/host_engine.hpp"
#include "core/query_stats.hpp"
#include "graph/view.hpp"
#include "pattern/plan.hpp"

namespace stm {

/// Which execution path serves a query. The order doubles as the service's
/// degradation order: fallback moves strictly to the right.
enum class EngineKind : std::uint8_t {
  kSimt = 0,   // simulated-GPU STMatch engine
  kHost,       // real threads (production CPU path)
  kReference,  // single-threaded brute-force enumerator (last resort)
};
inline constexpr std::size_t kNumEngineKinds = 3;

const char* to_string(EngineKind kind);

struct EngineRun {
  /// Match count; partial when stats.status != kOk.
  std::uint64_t count = 0;
  QueryStats stats;
};

/// Runs `plan` on `g` with the engine `kind`: kSimt calls stmatch_match with
/// `simt`, kHost calls host_match with `host` (num_threads = 0 means hardware
/// concurrency here), and kReference counts with reference_count on
/// plan.pattern() and plan.options(), or, with a sink, runs the sequential
/// recursive executor one bucket per outer vertex. `attempt` is added to
/// both fault incarnations, so a retried attempt sees a fresh, deterministic
/// fault schedule. `cancel` and `sink` are passed to the engine. With a
/// sink, the outer loop starts at `start` (a resumed stream's next vertex);
/// a count always covers every vertex (check_error otherwise).
EngineRun run_engine(EngineKind kind, GraphView g, const MatchingPlan& plan,
                     const HostEngineConfig& host, const EngineConfig& simt,
                     std::uint64_t attempt = 0,
                     const CancelToken* cancel = nullptr,
                     EmbeddingSink* sink = nullptr, VertexId start = 0);

}  // namespace stm
