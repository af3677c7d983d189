// GraphSession: the long-lived, multi-query serving core.
//
// A session owns one data graph plus everything derived from it that should
// outlive a single query: a plan cache (matching order / symmetry / code
// motion analysis done once per distinct pattern), an admission controller
// (bounded concurrent execution, priority FIFO queueing, load shedding), a
// metrics registry (latency/queue-wait histograms, cache hit rate, engine
// op counters — exportable as JSON and Prometheus text) and a resilience
// stack (retry policy, per-engine circuit breakers, graceful-degradation
// fallback chain, progress watchdog).
//
// Request lifecycle:
//
//   submit(req) ──► admission ──► [queue] ──► plan cache ──► engine ──► result
//        │             │                          │             │        │
//        │   kOverloaded when full        hit: reuse plan   CancelToken  │
//        │             ▼                  miss: compile     (deadline)   ▼
//        └──────► metrics ◄───────────────────────┴─────────────────► future
//
// Every query gets a CancelToken armed at submission; the engines poll it
// cooperatively, so a query past its deadline returns kDeadlineExceeded with
// the partial count instead of running unbounded.
//
// Fault handling (DESIGN.md §9): an engine call that fails transiently
// (kInternalError, or an escaped exception) is retried under the session's
// RetryPolicy with a fresh fault incarnation, then — if still failing — the
// dispatcher walks the engine's fallback chain (kSimt → kHost → kReference;
// kHost → kReference) and marks the result `degraded`. A per-engine circuit
// breaker skips engines that keep failing; the watchdog force-fails queries
// whose progress counter stalls.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/emit.hpp"
#include "core/fault.hpp"
#include "core/host_engine.hpp"
#include "core/query_stats.hpp"
#include "core/run.hpp"
#include "dist/partition.hpp"
#include "dist/sharded.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "mqo/evaluator.hpp"
#include "pattern/pattern.hpp"
#include "persist/manager.hpp"
#include "service/admission.hpp"
#include "service/metrics.hpp"
#include "service/plan_cache.hpp"
#include "service/resilience.hpp"
#include "service/watchdog.hpp"
#include "storage/store.hpp"
#include "util/timer.hpp"

namespace stm {

// Streaming endpoints (service/stream.hpp).
class EmbeddingStream;
struct StreamRequest;
struct TopKOptions;
struct TopKResult;

struct QueryRequest {
  Pattern pattern;
  PlanOptions plan;
  EngineKind engine = EngineKind::kHost;
  QueryPriority priority = QueryPriority::kNormal;
  /// Wall-clock budget in ms, measured from submission (queue wait counts).
  /// 0 uses the session default; < 0 means no deadline.
  double deadline_ms = 0.0;
  /// Host-path execution knobs (num_threads=0 is clamped to the session's
  /// host_threads_per_query, not hardware concurrency — concurrency across
  /// queries comes from the dispatcher).
  HostEngineConfig host;
  /// SIMT-path device configuration.
  EngineConfig simt;
};

struct QueryResult {
  QueryStatus status = QueryStatus::kOk;
  /// Match count; partial when status is kDeadlineExceeded/kCancelled.
  std::uint64_t count = 0;
  /// Engine-side statistics (status mirrored into stats.status).
  QueryStats stats;
  bool plan_cache_hit = false;
  /// Milliseconds spent queued before execution started.
  double queue_ms = 0.0;
  /// Submission-to-completion wall clock, ms.
  double total_ms = 0.0;
  /// The engine that actually produced the result — may differ from
  /// QueryRequest::engine after fallback.
  EngineKind served_by = EngineKind::kHost;
  /// True when served_by != the requested engine (graceful degradation).
  bool degraded = false;
  /// Engine calls issued for this query across retries and fallbacks.
  std::uint32_t attempts = 1;
  /// Graph epoch the query executed against (its snapshot's version).
  std::uint64_t graph_epoch = 0;
  /// Human-readable detail; populated for every non-kOk status.
  std::string error;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// Delivered to a standing query's subscriber (and collected into the
/// UpdateOutcome) once per applied batch.
struct StandingQueryUpdate {
  std::uint64_t query_id = 0;
  /// Epoch after the batch.
  std::uint64_t epoch = 0;
  /// Exact match-count change caused by the batch.
  std::int64_t delta = 0;
  /// Cumulative match count after the batch.
  std::uint64_t count = 0;
  /// Wall time of this query's delta computation, ms.
  double delta_ms = 0.0;
};

/// Delivered to a standing query's on_delta subscriber once per applied
/// batch: the exact embedding-level change the batch caused. Embeddings are
/// in original-pattern vertex order, lexicographically sorted within each
/// list; added and retracted are disjoint (an effective delta never both
/// deletes and inserts the same edge).
struct StandingQueryDelta {
  std::uint64_t query_id = 0;
  /// Epoch after the batch.
  std::uint64_t epoch = 0;
  /// Matches of the post-batch graph that did not exist before.
  std::vector<Embedding> added;
  /// Pre-batch matches destroyed by the batch.
  std::vector<Embedding> retracted;
  /// Wall time of this query's embedding-delta computation, ms.
  double delta_ms = 0.0;
};

struct StandingQueryConfig {
  Pattern pattern;
  /// Count semantics (induced must be kEdge: a vertex-induced match can
  /// change without containing a delta edge).
  PlanOptions plan;
  /// Optional subscriber, invoked synchronously per applied batch from the
  /// update path (keep it cheap; it runs under the writer lock).
  std::function<void(const StandingQueryUpdate&)> on_update;
  /// Optional embedding-level subscriber: the added/retracted embeddings of
  /// each batch, not just the count delta. Requires count_mode ==
  /// kEmbeddings (registration throws check_error otherwise — "a subgraph
  /// was retracted" is ill-defined at embedding granularity). Invoked
  /// synchronously from the update path, after on_update.
  std::function<void(const StandingQueryDelta&)> on_delta;
};

struct StandingQueryInfo {
  std::uint64_t id = 0;
  Pattern pattern;
  /// Current cumulative count (initial full enumeration + batch deltas).
  std::uint64_t count = 0;
  /// Epoch the count is valid for.
  std::uint64_t epoch = 0;
  std::uint64_t batches_observed = 0;
  /// Wall time of the registration-time full enumeration, ms — the baseline
  /// of the delta-vs-full speedup gauge.
  double full_ms = 0.0;
};

/// Result of one apply_updates call.
struct UpdateOutcome {
  QueryStatus status = QueryStatus::kOk;
  std::string error;
  /// Epoch after the batch (unchanged when the batch failed or was a no-op).
  std::uint64_t epoch = 0;
  UpdateStats stats;
  /// The effective delta the batch applied.
  DeltaEdges applied;
  /// Wall time of the whole update (apply + standing-query deltas), ms.
  double update_ms = 0.0;
  /// Wall time of the standing-query delta computations, ms.
  double incremental_ms = 0.0;
  /// Per-standing-query count deltas delivered for this batch.
  std::vector<StandingQueryUpdate> updates;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// Resilience policy knobs (see service/resilience.hpp, service/watchdog.hpp).
struct ResilienceConfig {
  RetryPolicy retry;
  /// Walk the degradation chain when the requested engine keeps failing.
  bool enable_fallback = true;
  CircuitBreaker::Config breaker;
  /// Kill queries whose progress stalls this long; <= 0 disables.
  double watchdog_stall_ms = 0.0;
  double watchdog_poll_ms = 10.0;
};

/// Sharded execution mode of a session (DESIGN.md §11). With num_shards > 0
/// the session partitions the graph at construction, keeps the partition in
/// sync with applied update batches (rebuilding the shards that own a delta
/// endpoint), and serves edge-induced kSimt/kHost queries through the
/// cross-shard coordinator; other queries (vertex-induced, kReference,
/// 1-vertex-graph corner cases) transparently use the unsharded path.
struct ShardingConfig {
  /// 0 disables sharded execution.
  std::uint32_t num_shards = 0;
  dist::PartitionStrategy strategy = dist::PartitionStrategy::kContiguous;
  std::uint64_t hash_salt = 0;
  /// Shard-scheduler workers (0 = one per shard).
  std::uint32_t num_workers = 0;

  bool enabled() const { return num_shards > 0; }
};

struct SessionConfig {
  /// Queries executing concurrently (dispatcher workers).
  std::size_t max_concurrent_queries = 4;
  /// Queries waiting beyond the concurrent ones before kOverloaded.
  std::size_t max_queued_queries = 32;
  std::size_t plan_cache_capacity = 64;
  /// Default per-query wall-clock budget (ms); 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// Engine threads each host-path query runs on.
  std::size_t host_threads_per_query = 1;
  ResilienceConfig resilience;
  /// Chaos schedule of the session's own sites (DESIGN.md §9): kPoolTask,
  /// kUpdateApply (armed after WAL replay), kShardFailure, kWalAppend,
  /// kCheckpointWrite and kPageRead. max_unit_attempts must be >= 1. A rate
  /// on an engine or stream site fails construction: the request's
  /// simt/host configs and StreamOptions::emit_fault carry those.
  FaultConfig fault;
  /// Sharded execution mode (off by default).
  ShardingConfig sharding;
  /// Embedding streams open concurrently before open_stream sheds with
  /// kOverloaded. Streams are long-lived (each holds a producer thread and
  /// a pinned snapshot until closed), so they are admitted against this
  /// bound rather than the dispatcher pool. 0 = uncapped.
  std::size_t max_open_streams = 8;
  /// Durability (DESIGN.md §13): with a non-empty state directory, every
  /// applied batch and standing-query (de)registration is WAL-logged before
  /// acknowledgement, checkpoints snapshot the compacted graph + session
  /// manifest, and construction runs crash recovery against whatever the
  /// directory holds (checkpoint load + WAL tail replay).
  persist::PersistenceConfig persistence;
  /// Graph-storage backend (DESIGN.md §14): kUncompressed serves the raw
  /// CSR; compressed backends re-encode the base graph (and every compacted
  /// successor) behind the GraphView seam, so engines never know which one
  /// they read. kAuto picks by degree histogram; a non-zero
  /// memory_budget_bytes selects the mmap/spill tier. Applied updates layer
  /// over the backend unchanged.
  storage::StoragePolicy storage;
};

class GraphSession {
 public:
  /// With SessionConfig::persistence enabled and prior state in the
  /// directory, `graph` is only the bootstrap seed: recovery loads the
  /// newest valid checkpoint (falling back to the previous one on a
  /// checksum mismatch) and replays the WAL tail batch-by-batch through the
  /// regular apply path, arriving at the exact pre-crash epoch and
  /// standing-query counts before the session accepts traffic. Standing
  /// counts come from the newest counts record; only the batches after it
  /// are walked.
  explicit GraphSession(Graph graph, SessionConfig cfg = {});
  ~GraphSession();

  /// Reopens a session purely from its persistence directory — no seed
  /// graph needed, because bootstrap installs checkpoint 1 immediately.
  /// Throws check_error when the directory holds no loadable checkpoint
  /// (construct with the seed graph instead; that path replays any WAL).
  static std::unique_ptr<GraphSession> restore(SessionConfig cfg);

  GraphSession(const GraphSession&) = delete;
  GraphSession& operator=(const GraphSession&) = delete;

  /// The seed CSR the session was created with (stable address; does not
  /// reflect applied updates — use snapshot() for the live version).
  const Graph& graph() const { return dyn_.base(); }
  const SessionConfig& config() const { return cfg_; }

  /// The current graph version. Queries submitted after this call may run
  /// on a newer version; a held snapshot stays valid and consistent.
  std::shared_ptr<const GraphSnapshot> snapshot() const {
    return dyn_.snapshot();
  }
  /// Current graph epoch (bumped per applied batch).
  std::uint64_t epoch() const { return dyn_.epoch(); }

  /// Asynchronous entry point. The future is always fulfilled — with
  /// kOverloaded immediately when admission rejects, with the query result
  /// otherwise.
  std::future<QueryResult> submit(QueryRequest req);

  /// Synchronous convenience wrapper: submit + wait.
  QueryResult run(QueryRequest req);

  /// Submits an update batch through admission (updates share the dispatcher
  /// pool with queries and are shed with kOverloaded under the same bounds).
  /// Batches are serialized by a writer lock; each applied batch bumps the
  /// epoch, publishes a new snapshot, and delivers count deltas to every
  /// standing query. A failed batch (validation or injected fault) leaves
  /// the graph untouched.
  std::future<UpdateOutcome> submit_updates(UpdateBatch batch);

  /// Synchronous convenience wrapper: submit_updates + wait.
  UpdateOutcome apply_updates(UpdateBatch batch);

  /// Rebuilds the CSR from the current version (same logical graph, same
  /// epoch). Serialized with updates.
  void compact();

  /// Installs a durable checkpoint of the current state (compacted CSR +
  /// epoch + standing-query manifest) and truncates the WAL it covers.
  /// Serialized with updates. Returns false when an injected
  /// kCheckpointWrite budget was exhausted — the session keeps running on
  /// WAL durability alone. Requires SessionConfig::persistence.
  bool checkpoint();

  /// What crash recovery did at construction (all-default when persistence
  /// is off or the state directory was fresh).
  const persist::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

  /// Opens an embedding stream (service/stream.hpp): the query's matched
  /// embeddings, delivered in the deterministic global order, pulled by the
  /// caller. Never blocks: admission failure (max_open_streams), an invalid
  /// resume token, or a plan-compilation error yield a handle whose stream
  /// is already terminal with the corresponding status. Streams execute a
  /// single attempt on the requested engine and bypass sharded execution.
  std::unique_ptr<EmbeddingStream> open_stream(StreamRequest req);

  /// Runs the query as a full embedding stream and keeps the k best
  /// embeddings under opts.score (ties broken by stream order, so the
  /// result is deterministic). Blocks until the enumeration completes.
  TopKResult top_k(const QueryRequest& req, const TopKOptions& opts);

  /// Registers a pattern for per-batch count deltas. Registrations land in
  /// a shared-prefix plan trie (src/mqo/, DESIGN.md §16), and each applied
  /// batch runs ONE anchored walk per delta edge that serves every standing
  /// query at once. The baseline count comes from one full enumeration on
  /// the current snapshot (also the full-cost reference of the speedup
  /// gauge) — or, when an isomorphic query is already registered, from that
  /// sibling's count at no enumeration cost. Throws check_error for
  /// unsupported options (e.g. vertex-induced matching). With persistence,
  /// the registration is WAL-logged (baseline count included) before it
  /// takes effect; an exhausted kWalAppend budget throws
  /// FaultInjectedError and registers nothing.
  std::uint64_t register_standing_query(StandingQueryConfig cfg);
  /// Removes a standing query; false when the id is unknown. With
  /// persistence, the removal is WAL-logged first (and serialized with the
  /// update path, like registration).
  bool unregister_standing_query(std::uint64_t id);
  /// Current state of a standing query, if registered.
  std::optional<StandingQueryInfo> standing_query(std::uint64_t id) const;

  /// Shared-index observability: registrations, canonical groups, and trie
  /// shape.
  mqo::IndexStats standing_index_stats() const;

  /// Blocks until every submitted query has completed.
  void drain();

  /// Cancels every queued and running query (they complete with
  /// kCancelled). New submissions are unaffected.
  void cancel_all();

  PlanCache& plan_cache() { return plan_cache_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Current breaker state for an engine (test/observability hook).
  CircuitBreaker::State breaker_state(EngineKind kind);

 private:
  friend class EmbeddingStream;

  struct QueryJob;
  /// Everything one embedding stream owns (defined in stream.cpp). Shared
  /// between the handle, the producer thread, and the session's live-stream
  /// registry.
  struct StreamState;
  struct StandingQuery {
    Pattern pattern;
    /// Registration options, kept for checkpoint manifests and sibling
    /// baselines.
    PlanOptions plan;
    std::function<void(const StandingQueryUpdate&)> on_update;
    std::function<void(const StandingQueryDelta&)> on_delta;
    std::uint64_t count = 0;
    std::uint64_t epoch = 0;
    std::uint64_t batches = 0;
    double full_ms = 0.0;
  };

  void execute(QueryJob& job);
  /// One engine call on `kind` (sharded when shardable, run_engine
  /// otherwise), exceptions contained by exception_status.
  QueryResult try_engine(EngineKind kind, const QueryRequest& req,
                         const MatchingPlan& plan, const GraphSnapshot& snap,
                         const CancelToken& token, std::uint32_t attempt);
  /// Maps the exception being handled (call from a catch block) to a
  /// status and its detail: check_error means the query is at fault
  /// (kInvalidArgument, its message); anything else is kInternalError,
  /// described as "<context>: <what>" or "<context> a non-standard
  /// exception".
  static QueryStatus exception_status(const std::string& context,
                                      std::string* error);
  /// `host` with num_threads = 0 resolved to host_threads_per_query.
  HostEngineConfig host_config(HostEngineConfig host) const;
  /// Sharded-mode eligibility for (kind, req) — see ShardingConfig.
  bool shardable(EngineKind kind, const QueryRequest& req) const;
  /// (Re)builds the partition for `snap` and publishes it with the per-shard
  /// gauges; `delta` refreshes instead of rebuilding when non-null.
  void rebuild_shards(std::shared_ptr<const GraphSnapshot> snap,
                      const DeltaEdges* delta);
  /// Retry + breaker + fallback-chain walk around try_engine.
  QueryResult execute_resilient(const QueryRequest& req,
                                const MatchingPlan& plan,
                                const GraphSnapshot& snap,
                                const std::shared_ptr<CancelToken>& token);
  /// The update path proper (runs on a dispatcher worker).
  UpdateOutcome do_apply(const UpdateBatch& batch);
  /// Per-batch standing-query sweep over the batch that turned `from` into
  /// `applied.snapshot`: one shared trie walk, then per-registration
  /// projection and delivery (count deltas, subscribers, speedup gauge).
  /// Shared between do_apply and WAL replay (`out` null there: no outcome
  /// to fill, no latency to record).
  void apply_standing_deltas(const GraphSnapshot& from,
                             const ApplyResult& applied, UpdateOutcome* out);
  /// Appends every registration's count after the batch that produced
  /// `epoch`, so recovery need not walk that batch again. Caller holds
  /// update_mu_.
  void log_standing_counts(std::uint64_t epoch);
  /// Publishes standing_patterns / trie_nodes / shared_prefix_ratio from the
  /// index. Caller holds standing_mu_.
  void publish_index_metrics();

  /// Pre-construction state assembly: runs recovery (when persistence is
  /// on) so the member graph can be built directly at the checkpointed
  /// epoch; the delegated-to constructor then replays the WAL tail,
  /// walking only the batches after its newest standing-counts record.
  struct Boot;
  explicit GraphSession(Boot boot);
  static Boot make_boot(Graph graph, SessionConfig cfg);
  /// Re-creates a standing query from its durable entry. Counts are
  /// restored, not recomputed: the entry was logged after the baseline
  /// enumeration (registration) or carries the cumulative count
  /// (checkpoint manifest). Subscriber callbacks do not survive a restart.
  void restore_standing(const persist::StandingEntry& entry);
  /// Serializable form of one registered standing query.
  persist::StandingEntry standing_entry(std::uint64_t id,
                                        const StandingQuery& sq) const;
  /// checkpoint() body; caller holds update_mu_.
  bool checkpoint_locked();
  /// Runs one durable write — a WAL append or a checkpoint install;
  /// `write` returns the WAL bytes it appended — and books it: the faults
  /// it burned reach faults_injected_total whether it returns or throws,
  /// and a write that lands after repairs is one recovered unit. Caller
  /// holds update_mu_.
  template <typename Write>
  void durable_write(Write&& write);
  /// Publishes the storage gauges/counters from the current snapshot's
  /// backend. Store counters are cumulative per-store and restart from zero
  /// when compact() rebuilds the backend; the last-seen state under
  /// storage_metrics_mu_ converts them to monotone Prometheus counters.
  /// Folds the kPoolTask, kUpdateApply and kPageRead firings since the last
  /// call into faults_injected_total the same way. Also trims the backend's
  /// decoded-list cache back under the policy budget when no query holds a
  /// lease on it.
  void refresh_session_metrics();

  /// Producer-thread body of an embedding stream: runs the engine in
  /// emission mode against the state's pinned snapshot, then finishes the
  /// sequencer with the engine's terminal status.
  void run_stream(const std::shared_ptr<StreamState>& st);
  /// One-shot stream teardown (idempotent via the state's once-flag): joins
  /// the producer, assembles the QueryResult, settles metrics and releases
  /// the admission slot. Safe after the session is gone for states it
  /// detached first.
  static void finalize_stream(const std::shared_ptr<StreamState>& st);
  /// Builds a handle whose stream is already terminal (admission rejection,
  /// bad resume token, plan-compilation failure).
  std::unique_ptr<EmbeddingStream> reject_stream(const StreamRequest& req,
                                                 QueryStatus status,
                                                 std::string error);

  MutableGraph dyn_;
  SessionConfig cfg_;
  PlanCache plan_cache_;
  MetricsRegistry metrics_;

  /// Sharded mode: the partition and the snapshot it was built from, swapped
  /// atomically under shard_mu_ so a query always sees a matched pair.
  struct ShardState {
    std::shared_ptr<const GraphSnapshot> snapshot;
    std::shared_ptr<const dist::Partition> partition;
  };
  mutable std::mutex shard_mu_;
  std::shared_ptr<const ShardState> shard_state_;

  /// Serializes apply/compact (single logical writer); never held while an
  /// engine runs a query.
  std::mutex update_mu_;
  mutable std::mutex standing_mu_;
  std::map<std::uint64_t, StandingQuery> standing_;
  /// The shared-prefix pattern index every standing query is evaluated
  /// through. Reads are safe under either update_mu_ or standing_mu_;
  /// writes happen under both (registration/unregistration) or during
  /// single-threaded boot.
  mqo::PatternIndex standing_index_;
  std::uint64_t next_standing_id_ = 1;

  std::mutex tokens_mu_;
  std::unordered_set<std::shared_ptr<CancelToken>> active_tokens_;

  /// Open embedding streams (admission accounting + shutdown sweep: the
  /// session destructor aborts and finalizes whatever is still open so
  /// orphaned handles cannot touch a dead session). shutting_down_ closes
  /// the race between the destructor's sweep and an open_stream admitted
  /// concurrently — both the flag and the registry mutate under streams_mu_,
  /// so a stream is either swept or rejected, never orphaned live.
  std::mutex streams_mu_;
  std::unordered_set<std::shared_ptr<StreamState>> live_streams_;
  bool shutting_down_ = false;  // guarded by streams_mu_

  /// Durability stack (null without SessionConfig::persistence). WAL
  /// appends are serialized under update_mu_ (the single-writer lock).
  std::unique_ptr<persist::PersistenceManager> persist_;
  persist::RecoveryReport recovery_report_;
  std::uint32_t batches_since_checkpoint_ = 0;  // guarded by update_mu_

  /// Last store-cumulative counter values folded into the monotone storage
  /// counters, keyed to the store they came from, and the pool and update
  /// injectors' firings already folded (see refresh_session_metrics). All
  /// guarded by storage_metrics_mu_.
  std::mutex storage_metrics_mu_;
  std::weak_ptr<const storage::GraphStore> storage_metrics_store_;
  std::uint64_t storage_page_faults_seen_ = 0;
  std::uint64_t storage_decode_ops_seen_ = 0;
  std::uint64_t storage_injected_faults_seen_ = 0;
  std::uint64_t site_faults_seen_ = 0;

  // Cached metric handles (registry entries have stable addresses).
  Counter& queries_submitted_;
  Counter& queries_admitted_;
  Counter& queries_rejected_;
  Counter& queries_completed_;
  Counter& queries_failed_;
  Counter& queries_degraded_;
  Counter& engine_retries_;
  Counter& engine_fallbacks_;
  Counter& breaker_skips_;
  Counter& watchdog_kills_;
  Counter& faults_injected_total_;
  Counter& recovery_units_total_;
  Counter& matches_total_;
  Counter& engine_scalar_ops_;
  Counter& updates_applied_;
  Counter& updates_failed_;
  Counter& edges_inserted_;
  Counter& edges_deleted_;
  Counter& sharded_queries_;
  Counter& shard_chunk_steals_;
  Counter& stream_emitted_total_;
  Counter& wal_appended_bytes_;
  Counter& checkpoints_written_;
  Counter& checkpoint_failures_;
  Counter& recovery_replayed_batches_;
  Counter& recovery_walked_batches_;
  Counter& standing_delta_edges_;
  Counter& standing_seed_walks_;
  Counter& standing_node_visits_;
  Counter& storage_page_faults_;
  Counter& storage_decode_ops_;
  Gauge& inflight_;
  Gauge& queue_depth_;
  Gauge& cache_hit_rate_;
  Gauge& graph_epoch_;
  Gauge& delta_speedup_;
  Gauge& standing_queries_;
  Gauge& standing_patterns_;
  Gauge& trie_nodes_;
  Gauge& trie_flipped_terminals_;
  Gauge& shared_prefix_ratio_;
  Gauge& shard_imbalance_;
  Gauge& cut_edge_fraction_;
  Gauge& open_streams_;
  Gauge& recovery_ms_;
  Gauge& storage_resident_bytes_;
  Gauge& graph_resident_bytes_;
  Gauge& compression_ratio_;
  Histogram& latency_ms_;
  Histogram& queue_wait_ms_;
  Histogram& update_latency_ms_;
  Histogram& incremental_latency_ms_;
  Histogram& indexed_delta_latency_ms_;
  Histogram& stream_backpressure_ms_;
  Histogram& checkpoint_duration_ms_;

  // One breaker per engine kind, guarded by breakers_mu_ (engine calls run
  // outside the lock; only the state transitions are serialized). The
  // breakers run on injected virtual time: breaker_clock_ measures the wall
  // time between consultations and feeds it to tick_ms().
  std::mutex breakers_mu_;
  std::array<CircuitBreaker, kNumEngineKinds> breakers_;
  std::array<Gauge*, kNumEngineKinds> breaker_state_gauges_{};
  Timer breaker_clock_;

  /// kPoolTask decisions; installed in the pool only when that rate is set.
  FaultInjector pool_injector_;
  Watchdog watchdog_;

  // Declared last: its worker threads touch the members above, and members
  // destruct in reverse order, so the pool drains before anything it uses
  // goes away.
  AdmissionController admission_;
};

}  // namespace stm
