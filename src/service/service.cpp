#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

namespace {

/// Degradation order per requested engine. The chain starts with the
/// requested engine itself; every later entry trades performance for
/// independence from the failing machinery (the reference enumerator shares
/// no candidate-set code with either optimized engine).
std::vector<EngineKind> fallback_chain(EngineKind requested, bool fallback) {
  std::vector<EngineKind> chain{requested};
  if (!fallback) return chain;
  switch (requested) {
    case EngineKind::kSimt:
      chain.push_back(EngineKind::kHost);
      chain.push_back(EngineKind::kReference);
      break;
    case EngineKind::kHost:
      chain.push_back(EngineKind::kReference);
      break;
    case EngineKind::kReference:
      break;
  }
  return chain;
}

/// The request or stream field that carries an engine or stream site; null
/// for the sites SessionConfig::fault drives.
const char* site_field(FaultSite site) {
  switch (site) {
    case FaultSite::kPoolTask:
    case FaultSite::kUpdateApply:
    case FaultSite::kShardFailure:
    case FaultSite::kWalAppend:
    case FaultSite::kCheckpointWrite:
    case FaultSite::kPageRead:
      return nullptr;
    case FaultSite::kHostTask:
      return "QueryRequest::host.fault";
    case FaultSite::kEngineThrow:
      return "QueryRequest::simt.fault or QueryRequest::host.fault";
    case FaultSite::kEmitDrop:
      return "StreamOptions::emit_fault";
    default:  // the SIMT device and multi-device sites
      return "QueryRequest::simt.fault";
  }
}

}  // namespace

struct GraphSession::QueryJob {
  QueryRequest req;
  std::promise<QueryResult> promise;
  std::shared_ptr<CancelToken> token;
  Timer since_submit;  // started at submission; queue wait + total latency
};

/// Everything the delegated-to constructor needs: the graph to build the
/// member MutableGraph from (the checkpointed CSR when recovery found one,
/// the caller's seed otherwise), the epoch to seed it at, and the recovered
/// state the constructor body replays. The timer starts before recovery
/// loads anything, so RecoveryReport::recovery_ms covers the load too.
struct GraphSession::Boot {
  Timer since_start;
  Graph graph;
  std::uint64_t start_epoch = 0;
  SessionConfig cfg;
  std::unique_ptr<persist::PersistenceManager> manager;
  persist::RecoveredState recovered;
};

GraphSession::Boot GraphSession::make_boot(Graph graph, SessionConfig cfg) {
  // One check of the session's schedule before any site can use it.
  STM_CHECK_MSG(cfg.fault.max_unit_attempts >= 1,
                "SessionConfig::fault.max_unit_attempts must be >= 1");
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    STM_CHECK_MSG(site_field(site) == nullptr || cfg.fault.rate(site) <= 0.0,
                  "SessionConfig::fault sets " << to_string(site)
                      << ", which no session component reads; set it on "
                      << site_field(site));
  }
  Boot boot;
  boot.cfg = std::move(cfg);
  boot.graph = std::move(graph);
  if (boot.cfg.persistence.enabled()) {
    boot.manager = std::make_unique<persist::PersistenceManager>(
        boot.cfg.persistence, boot.cfg.fault);
    boot.recovered = boot.manager->recover();
    if (boot.recovered.checkpoint.has_value()) {
      // The durable state supersedes the seed: bit-identical CSR and epoch,
      // so replayed WAL batches reproduce the exact pre-crash sequence.
      boot.graph = std::move(boot.recovered.checkpoint->graph);
      boot.start_epoch = boot.recovered.checkpoint->epoch;
    }
  }
  return boot;
}

GraphSession::GraphSession(Graph graph, SessionConfig cfg)
    : GraphSession(make_boot(std::move(graph), std::move(cfg))) {}

std::unique_ptr<GraphSession> GraphSession::restore(SessionConfig cfg) {
  STM_CHECK_MSG(cfg.persistence.enabled(),
                "restore requires SessionConfig::persistence.dir");
  Boot boot = make_boot(Graph{}, std::move(cfg));
  STM_CHECK_MSG(boot.recovered.checkpoint.has_value(),
                "restore found no loadable checkpoint in '"
                    << boot.cfg.persistence.dir
                    << "'; reconstruct the session with its seed graph");
  return std::unique_ptr<GraphSession>(new GraphSession(std::move(boot)));
}

GraphSession::GraphSession(Boot boot)
    : dyn_(std::move(boot.graph), boot.start_epoch, boot.cfg.storage,
           boot.cfg.fault),
      cfg_(std::move(boot.cfg)),
      plan_cache_(cfg_.plan_cache_capacity),
      queries_submitted_(metrics_.counter(
          "queries_submitted", "Queries received (admitted + rejected)")),
      queries_admitted_(
          metrics_.counter("queries_admitted", "Queries accepted for execution")),
      queries_rejected_(metrics_.counter(
          "queries_rejected", "Queries shed at admission (overload)")),
      queries_completed_(
          metrics_.counter("queries_completed", "Queries finished with ok")),
      queries_failed_(metrics_.counter(
          "queries_failed",
          "Queries finished non-ok (deadline, cancel, invalid, internal)")),
      queries_degraded_(metrics_.counter(
          "queries_degraded", "Queries served by a fallback engine")),
      engine_retries_(metrics_.counter(
          "engine_retries", "Engine calls re-issued after kInternalError")),
      engine_fallbacks_(metrics_.counter(
          "engine_fallbacks", "Fallback-chain hops past the requested engine")),
      breaker_skips_(metrics_.counter(
          "breaker_skips", "Engine calls skipped by an open circuit breaker")),
      watchdog_kills_(metrics_.counter(
          "watchdog_kills", "Queries force-failed for stalled progress")),
      faults_injected_total_(metrics_.counter(
          "faults_injected_total", "Injected faults observed at every site")),
      recovery_units_total_(metrics_.counter(
          "recovery_units_total", "Work units recovered after injected faults")),
      matches_total_(
          metrics_.counter("matches_total", "Embeddings counted across queries")),
      engine_scalar_ops_(metrics_.counter(
          "engine_scalar_ops", "Scalar set-operation work across queries")),
      updates_applied_(metrics_.counter(
          "updates_applied", "Update batches applied (epoch bumps)")),
      updates_failed_(metrics_.counter(
          "updates_failed", "Update batches rejected or failed pre-publish")),
      edges_inserted_(metrics_.counter(
          "edges_inserted", "Edges effectively inserted across batches")),
      edges_deleted_(metrics_.counter(
          "edges_deleted", "Edges effectively deleted across batches")),
      sharded_queries_(metrics_.counter(
          "sharded_queries", "Queries served by the cross-shard coordinator")),
      shard_chunk_steals_(metrics_.counter(
          "shard_chunk_steals",
          "Sharded work units run by a foreign shard's worker")),
      stream_emitted_total_(metrics_.counter(
          "stream_emitted_total",
          "Embeddings emitted into stream sequencers (pre-limit)")),
      wal_appended_bytes_(metrics_.counter(
          "wal_appended_bytes_total",
          "Durable write-ahead-log bytes appended (intact frames only)")),
      checkpoints_written_(metrics_.counter(
          "checkpoints_written", "Durable checkpoints installed")),
      checkpoint_failures_(metrics_.counter(
          "checkpoint_failures",
          "Checkpoint installs abandoned (chaos budget exhausted)")),
      recovery_replayed_batches_(metrics_.counter(
          "recovery_replayed_batches",
          "Update batches replayed from the WAL at session construction")),
      recovery_walked_batches_(metrics_.counter(
          "recovery_walked_batches",
          "Replayed batches whose standing counts recovery re-walked")),
      standing_delta_edges_(metrics_.counter(
          "standing_delta_edges_total",
          "Delta edges the standing-query trie walk started from, recovery "
          "re-walks included")),
      standing_seed_walks_(metrics_.counter(
          "standing_seed_walks_total",
          "Orientations of delta edges the standing-query trie walk seeded, "
          "recovery re-walks included")),
      standing_node_visits_(metrics_.counter(
          "standing_node_visits_total",
          "Trie-node arrivals of the standing-query walk, recovery re-walks "
          "included")),
      storage_page_faults_(metrics_.counter(
          "storage_page_faults_total",
          "Spill-tier page-cache misses (pages fetched from disk)")),
      storage_decode_ops_(metrics_.counter(
          "storage_decode_ops_total",
          "Adjacency lists decoded from a compressed storage backend")),
      inflight_(metrics_.gauge("inflight_queries", "Queries executing now")),
      queue_depth_(metrics_.gauge("queue_depth", "Queries waiting to start")),
      cache_hit_rate_(metrics_.gauge("plan_cache_hit_rate",
                                     "Fraction of plan lookups served cached")),
      graph_epoch_(metrics_.gauge("graph_epoch", "Current graph version")),
      delta_speedup_(metrics_.gauge(
          "delta_vs_full_speedup",
          "Registration-time full-enumeration ms / last batch delta ms")),
      standing_queries_(
          metrics_.gauge("standing_queries", "Registered standing queries")),
      standing_patterns_(metrics_.gauge(
          "standing_patterns",
          "Distinct canonical pattern groups in the standing-query index")),
      trie_nodes_(metrics_.gauge(
          "trie_nodes", "Nodes of the shared-prefix plan trie")),
      trie_flipped_terminals_(metrics_.gauge(
          "trie_flipped_terminals",
          "Plan-trie terminals on flipped nodes: anchored plans one "
          "orientation of each delta edge serves")),
      shared_prefix_ratio_(metrics_.gauge(
          "shared_prefix_ratio",
          "Fraction of per-plan enumeration levels served by a shared trie "
          "prefix (1 - nodes / plan positions)")),
      shard_imbalance_(metrics_.gauge(
          "shard_imbalance",
          "Max/mean per-shard edge load (intra + half incident cut)")),
      cut_edge_fraction_(metrics_.gauge(
          "cut_edge_fraction", "Cut edges / total edges of the partition")),
      open_streams_(
          metrics_.gauge("open_streams", "Embedding streams open now")),
      recovery_ms_(metrics_.gauge(
          "recovery_ms", "Wall time of crash recovery at construction")),
      storage_resident_bytes_(metrics_.gauge(
          "storage_resident_bytes",
          "Bytes the storage backend holds in memory now")),
      graph_resident_bytes_(metrics_.gauge(
          "graph_resident_bytes",
          "Resident bytes of the current graph version (backend + overlays)")),
      compression_ratio_(metrics_.gauge(
          "compression_ratio",
          "Raw CSR bytes over encoded bytes (1 when uncompressed)")),
      latency_ms_(metrics_.histogram("query_latency_ms",
                                     "Submission-to-completion latency")),
      queue_wait_ms_(metrics_.histogram("queue_wait_ms",
                                        "Admission-to-execution wait")),
      update_latency_ms_(metrics_.histogram(
          "update_latency_ms", "apply_updates wall time per batch")),
      incremental_latency_ms_(metrics_.histogram(
          "incremental_latency_ms",
          "Standing-query delta computation time per batch")),
      indexed_delta_latency_ms_(metrics_.histogram(
          "indexed_delta_latency_ms",
          "Shared trie-pass wall time per batch (serves every standing "
          "query at once)")),
      stream_backpressure_ms_(metrics_.histogram(
          "stream_backpressure_ms",
          "Producer wall time blocked on stream backpressure, per stream")),
      checkpoint_duration_ms_(metrics_.histogram(
          "checkpoint_duration_ms",
          "Durable checkpoint install wall time (snapshot + fsync + rename)")),
      pool_injector_(cfg_.fault),
      watchdog_(cfg_.resilience.watchdog_stall_ms,
                cfg_.resilience.watchdog_poll_ms, &watchdog_kills_),
      admission_(std::max<std::size_t>(1, cfg_.max_concurrent_queries),
                 cfg_.max_queued_queries) {
  STM_CHECK_MSG(dyn_.base().num_vertices() > 0,
                "GraphSession requires a non-empty graph");
  for (std::size_t k = 0; k < kNumEngineKinds; ++k) {
    breakers_[k] = CircuitBreaker(cfg_.resilience.breaker);
    breaker_state_gauges_[k] = &metrics_.gauge(
        std::string("breaker_state_") + to_string(static_cast<EngineKind>(k)),
        "Circuit state (0=closed, 1=open, 2=half-open)");
  }
  if (cfg_.fault.rate(FaultSite::kPoolTask) > 0.0)
    admission_.set_fault_injection(&pool_injector_);

  persist_ = std::move(boot.manager);
  if (persist_ != nullptr) {
    persist::RecoveredState& rec = boot.recovered;
    recovery_report_ = rec.report;
    if (rec.checkpoint.has_value()) {
      next_standing_id_ = rec.checkpoint->next_standing_id;
      for (const persist::StandingEntry& e : rec.checkpoint->standing)
        restore_standing(e);
    }
    // Batches up to the newest standing-counts record need no walk: that
    // record holds every live registration's count after them.
    std::size_t walk_from = 0;
    for (std::size_t i = 0; i < rec.tail.size(); ++i)
      if (rec.tail[i].type == persist::WalRecordType::kStandingCounts)
        walk_from = i + 1;
    // Replay the WAL tail in LSN order through the regular apply path. The
    // update fault injector is installed only *after* replay: a replayed
    // batch was already acknowledged once and must not re-roll its dice.
    for (std::size_t i = 0; i < rec.tail.size(); ++i) {
      const persist::WalRecord& r = rec.tail[i];
      switch (r.type) {
        case persist::WalRecordType::kUpdateBatch: {
          const std::shared_ptr<const GraphSnapshot> from = dyn_.snapshot();
          UpdateBatch batch;
          batch.insertions = r.delta.inserted;
          batch.deletions = r.delta.deleted;
          const ApplyResult applied = dyn_.apply(batch);
          STM_CHECK_MSG(applied.snapshot->epoch() == r.epoch,
                        "WAL replay diverged: record "
                            << r.lsn << " expects epoch " << r.epoch
                            << " but replay produced "
                            << applied.snapshot->epoch());
          STM_CHECK_MSG(applied.applied == r.delta,
                        "WAL replay diverged: record "
                            << r.lsn
                            << " re-applied with a different effective delta");
          if (i >= walk_from) {
            if (!standing_.empty()) ++recovery_report_.walked_batches;
            apply_standing_deltas(*from, applied, nullptr);
            break;
          }
          for (auto& [id, sq] : standing_) {
            sq.epoch = r.epoch;
            ++sq.batches;
          }
          break;
        }
        case persist::WalRecordType::kStandingCounts:
          STM_CHECK_MSG(r.epoch == dyn_.epoch(),
                        "WAL replay diverged: counts record "
                            << r.lsn << " is for epoch " << r.epoch
                            << " but replay is at epoch " << dyn_.epoch());
          STM_CHECK_MSG(
              std::ranges::equal(r.counts, standing_, {},
                                 [](const auto& c) { return c.first; },
                                 [](const auto& s) { return s.first; }),
              "WAL replay diverged: counts record "
                  << r.lsn << " names other registrations than the "
                  << standing_.size() << " live ones");
          for (const auto& [id, count] : r.counts)
            standing_.at(id).count = count;
          break;
        case persist::WalRecordType::kRegisterStanding:
          restore_standing(r.standing);
          next_standing_id_ = std::max(next_standing_id_, r.standing.id + 1);
          break;
        case persist::WalRecordType::kUnregisterStanding:
          standing_.erase(r.standing_id);
          standing_index_.remove(r.standing_id);
          break;
      }
    }
    standing_queries_.set(static_cast<double>(standing_.size()));
    {
      std::lock_guard<std::mutex> standing_lock(standing_mu_);
      publish_index_metrics();
    }
    graph_epoch_.set(static_cast<double>(dyn_.epoch()));
    // Fold the replayed deltas back into a flat CSR: post-recovery queries
    // (and a sharded partition build) should not pay the overlay tax for
    // history that is already durable.
    if (!rec.tail.empty()) dyn_.compact();
    persist_->open_wal(rec.next_lsn, rec.wal_valid_bytes);
    if (!rec.report.checkpoint_loaded) {
      // First boot of this directory: install checkpoint 1 right away so
      // restore() works after any later crash (failure is tolerable — the
      // WAL alone still carries everything).
      checkpoint_locked();
    }
    recovery_report_.recovery_ms = boot.since_start.elapsed_ms();
    recovery_ms_.set(recovery_report_.recovery_ms);
    recovery_replayed_batches_.inc(recovery_report_.replayed_batches);
    recovery_walked_batches_.inc(recovery_report_.walked_batches);
  }
  dyn_.set_fault(cfg_.fault);
  if (cfg_.sharding.enabled()) rebuild_shards(dyn_.snapshot(), nullptr);
  refresh_session_metrics();
}

void GraphSession::refresh_session_metrics() {
  // The whole refresh — snapshot acquisition, stats read, counter fold —
  // runs under one lock so concurrent refreshes serialize and each folds a
  // consistent (store, stats) pair. Stores only move forward (compact()
  // publishes a rebuilt backend, never an old one), so the identity check
  // below sees each store's counters folded from its own baseline; without
  // the lock two threads could read stats() from different stores around a
  // compact() and apply them to the seen-counters out of order.
  std::lock_guard<std::mutex> lock(storage_metrics_mu_);
  // The pool and update injectors live as long as the session.
  const std::uint64_t site_faults =
      pool_injector_.total_injected() + dyn_.faults_injected();
  faults_injected_total_.inc(site_faults - site_faults_seen_);
  site_faults_seen_ = site_faults;
  const std::shared_ptr<const GraphSnapshot> snap = dyn_.snapshot();
  graph_resident_bytes_.set(static_cast<double>(snap->memory_bytes()));
  const std::shared_ptr<const storage::GraphStore>& store = snap->store();
  if (store == nullptr) {
    storage_resident_bytes_.set(0.0);
    compression_ratio_.set(1.0);
    return;
  }
  // Decoded lists are per-run working memory; reclaim them once they exceed
  // the policy budget. A trim racing a running query is a no-op (the lease
  // blocks it) and the cache shrinks at the next refresh instead.
  const std::uint64_t budget = cfg_.storage.memory_budget_bytes;
  if (budget > 0 && store->stats().decoded_cache_bytes > budget)
    store->trim_decoded();
  const storage::StorageStats st = store->stats();
  storage_resident_bytes_.set(static_cast<double>(st.resident_bytes));
  compression_ratio_.set(st.compression_ratio);
  // Store counters are cumulative per-store and restart from zero when
  // compact() swaps in a rebuilt backend; key the seen-counters to the store
  // identity (weak_ptr: expiry-safe against address reuse) and fold only the
  // increments into the monotone session counters.
  if (storage_metrics_store_.lock() != store) {
    storage_metrics_store_ = store;
    storage_page_faults_seen_ = 0;
    storage_decode_ops_seen_ = 0;
    storage_injected_faults_seen_ = 0;
  }
  storage_page_faults_.inc(st.page_faults - storage_page_faults_seen_);
  storage_page_faults_seen_ = st.page_faults;
  storage_decode_ops_.inc(st.decode_ops - storage_decode_ops_seen_);
  storage_decode_ops_seen_ = st.decode_ops;
  faults_injected_total_.inc(st.injected_page_faults -
                             storage_injected_faults_seen_);
  storage_injected_faults_seen_ = st.injected_page_faults;
}

GraphSession::~GraphSession() {
  // Abort and settle whatever streams are still open: their producer threads
  // and finalizers touch session members, so they must be gone before the
  // members are. Surviving handles see only their (finalized) StreamState.
  std::vector<std::shared_ptr<StreamState>> live;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    // From here on open_stream rejects (kCancelled) instead of admitting:
    // the flag and the sweep snapshot change under one lock, so a stream
    // racing this destructor is either in `live` (and swept below) or was
    // never admitted — it cannot slip in between and outlive the session.
    shutting_down_ = true;
    live.assign(live_streams_.begin(), live_streams_.end());
  }
  for (const auto& st : live) finalize_stream(st);
  drain();
}

std::future<QueryResult> GraphSession::submit(QueryRequest req) {
  queries_submitted_.inc();
  auto job = std::make_shared<QueryJob>();
  job->req = std::move(req);
  job->token = std::make_shared<CancelToken>();
  std::future<QueryResult> future = job->promise.get_future();

  // The deadline covers the query's whole life, queue wait included: a
  // request that waits past its budget is interrupted as soon as it starts.
  double deadline = job->req.deadline_ms;
  if (deadline == 0.0) deadline = cfg_.default_deadline_ms;
  if (deadline > 0.0) job->token->set_deadline_ms(deadline);

  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    active_tokens_.insert(job->token);
  }

  const bool admitted =
      admission_.admit(job->req.priority, [this, job] { execute(*job); });
  if (!admitted) {
    queries_rejected_.inc();
    {
      std::lock_guard<std::mutex> lock(tokens_mu_);
      active_tokens_.erase(job->token);
    }
    QueryResult rejected;
    rejected.status = QueryStatus::kOverloaded;
    rejected.stats.status = QueryStatus::kOverloaded;
    rejected.served_by = job->req.engine;
    rejected.attempts = 0;
    rejected.error = "admission rejected: " +
                     std::to_string(admission_.num_workers()) + " running + " +
                     std::to_string(admission_.max_queue()) +
                     " queued slots are full";
    rejected.total_ms = job->since_submit.elapsed_ms();
    job->promise.set_value(std::move(rejected));
    return future;
  }
  queries_admitted_.inc();
  queue_depth_.set(static_cast<double>(admission_.queue_depth()));
  return future;
}

QueryResult GraphSession::run(QueryRequest req) {
  return submit(std::move(req)).get();
}

void GraphSession::drain() { admission_.drain(); }

void GraphSession::cancel_all() {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (const auto& token : active_tokens_) token->cancel();
}

CircuitBreaker::State GraphSession::breaker_state(EngineKind kind) {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  return breakers_[static_cast<std::size_t>(kind)].state();
}

bool GraphSession::shardable(EngineKind kind, const QueryRequest& req) const {
  // kReference stays unsharded on purpose: it is the fallback of last resort
  // and must not share failure modes with the coordinator machinery.
  return cfg_.sharding.enabled() &&
         (kind == EngineKind::kSimt || kind == EngineKind::kHost) &&
         req.plan.induced == Induced::kEdge;
}

void GraphSession::rebuild_shards(std::shared_ptr<const GraphSnapshot> snap,
                                  const DeltaEdges* delta) {
  // Both branches read store-backed adjacency through snap->view(); a query
  // completing concurrently must not trim the decode cache mid-read.
  const auto storage_lease = snap->storage_lease();
  std::shared_ptr<const dist::Partition> next;
  if (delta != nullptr) {
    std::shared_ptr<const ShardState> cur;
    {
      std::lock_guard<std::mutex> lock(shard_mu_);
      cur = shard_state_;
    }
    STM_CHECK_MSG(cur != nullptr,
                  "partition refresh without an initial partition");
    next = std::make_shared<const dist::Partition>(
        dist::refresh_partition(*cur->partition, snap->view(), *delta));
  } else {
    dist::PartitionConfig pcfg;
    pcfg.num_shards = cfg_.sharding.num_shards;
    pcfg.strategy = cfg_.sharding.strategy;
    pcfg.hash_salt = cfg_.sharding.hash_salt;
    // Partition the version we are pairing with — not the seed CSR, which a
    // recovered session has long moved past.
    next = std::make_shared<const dist::Partition>(
        dist::partition_graph(snap->view(), pcfg));
  }

  // Publish the balance gauges from the materialized shards: labeled
  // per-shard series plus the aggregate imbalance / cut-fraction pair.
  const std::uint32_t num_shards = next->num_shards();
  std::vector<std::uint64_t> incident(num_shards, 0);
  for (const auto& [u, v] : next->cut_edges) {
    ++incident[next->owner_of(u)];
    ++incident[next->owner_of(v)];
  }
  double max_load = 0.0;
  double total_load = 0.0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const dist::Shard& shard = *next->shards[s];
    const double load = static_cast<double>(shard.local.num_edges()) +
                        0.5 * static_cast<double>(incident[s]);
    max_load = std::max(max_load, load);
    total_load += load;
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    metrics_.gauge("shard_owned_vertices" + label, "Vertices owned per shard")
        .set(static_cast<double>(shard.num_owned()));
    metrics_.gauge("shard_intra_edges" + label, "Intra-shard edges per shard")
        .set(static_cast<double>(shard.local.num_edges()));
    metrics_
        .gauge("shard_cut_edges" + label,
               "Cut edges owned per shard (min-shard rule)")
        .set(static_cast<double>(shard.cut_edges.size()));
  }
  shard_imbalance_.set(total_load > 0.0 ? max_load * num_shards / total_load
                                        : 1.0);
  cut_edge_fraction_.set(next->num_edges > 0
                             ? static_cast<double>(next->cut_edges.size()) /
                                   static_cast<double>(next->num_edges)
                             : 0.0);

  auto state = std::make_shared<ShardState>();
  state->snapshot = std::move(snap);
  state->partition = std::move(next);
  std::lock_guard<std::mutex> lock(shard_mu_);
  shard_state_ = std::move(state);
}

QueryStatus GraphSession::exception_status(const std::string& context,
                                           std::string* error) {
  try {
    throw;
  } catch (const check_error& e) {
    // Precondition violation: the query (not the engine) is at fault.
    *error = e.what();
    return QueryStatus::kInvalidArgument;
  } catch (const std::exception& e) {
    error->assign(context).append(": ").append(e.what());
  } catch (...) {
    error->assign(context).append(" a non-standard exception");
  }
  return QueryStatus::kInternalError;
}

HostEngineConfig GraphSession::host_config(HostEngineConfig host) const {
  if (host.num_threads == 0)
    host.num_threads = std::max<std::size_t>(1, cfg_.host_threads_per_query);
  return host;
}

QueryResult GraphSession::try_engine(EngineKind kind, const QueryRequest& req,
                                     const MatchingPlan& plan,
                                     const GraphSnapshot& snap,
                                     const CancelToken& token,
                                     std::uint32_t attempt) {
  QueryResult result;
  try {
    if (shardable(kind, req)) {
      std::shared_ptr<const ShardState> state;
      {
        std::lock_guard<std::mutex> lock(shard_mu_);
        state = shard_state_;
      }
      // The coordinator must run on the exact graph version its partition
      // was built from; a query racing an update's partition refresh falls
      // back to the unsharded path for its pinned snapshot instead.
      if (state != nullptr && state->snapshot->epoch() == snap.epoch()) {
        // The partition's snapshot can predate a compact() (same epoch, its
        // own backend), so it needs its own lease.
        const auto shard_lease = state->snapshot->storage_lease();
        dist::ShardedOptions opts;
        opts.plan = req.plan;
        opts.engine = kind;
        opts.num_workers = cfg_.sharding.num_workers;
        opts.fault = cfg_.fault;
        const dist::ShardedResult r =
            dist::ShardedMatcher(req.pattern, opts)
                .match(state->snapshot->view(), *state->partition, plan,
                       host_config(req.host), req.simt, attempt, &token);
        sharded_queries_.inc();
        shard_chunk_steals_.inc(r.chunk_steals);
        result.count = r.count;
        for (const dist::ShardStats& st : r.shards) result.stats += st.query;
        // r's totals also cover the anchored chunks and the coordinator's
        // own injector; they supersede the per-shard sums.
        result.stats.faults_injected = r.faults_injected;
        result.stats.units_recovered = r.units_recovered;
        result.stats.status = r.status;
        result.status = r.status;
        result.error = r.error;
        return result;
      }
    }
    const EngineRun r = run_engine(kind, snap.view(), plan,
                                   host_config(req.host), req.simt, attempt,
                                   &token);
    result.count = r.count;
    result.stats = r.stats;
    result.status = r.stats.status;
  } catch (...) {
    // Engine-call boundary (DESIGN.md §9): a throwing engine must not take
    // down the dispatcher thread or strand the admission slot.
    result = QueryResult{};
    result.status = result.stats.status = exception_status(
        std::string("engine ") + to_string(kind) + " threw", &result.error);
  }
  return result;
}

QueryResult GraphSession::execute_resilient(
    const QueryRequest& req, const MatchingPlan& plan, const GraphSnapshot& snap,
    const std::shared_ptr<CancelToken>& token) {
  const ResilienceConfig& res = cfg_.resilience;
  const std::vector<EngineKind> chain =
      fallback_chain(req.engine, res.enable_fallback);
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, res.retry.max_attempts);

  QueryResult last;
  last.status = last.stats.status = QueryStatus::kInternalError;
  last.served_by = req.engine;
  std::uint32_t total_attempts = 0;
  std::uint64_t faults_sum = 0;
  std::uint64_t units_sum = 0;

  auto finalize = [&](QueryResult r) {
    r.attempts = total_attempts;
    r.stats.faults_injected = faults_sum;
    r.stats.units_recovered = units_sum;
    return r;
  };

  for (EngineKind kind : chain) {
    const auto idx = static_cast<std::size_t>(kind);
    bool allowed;
    {
      std::lock_guard<std::mutex> lock(breakers_mu_);
      const double elapsed = breaker_clock_.elapsed_ms();
      breaker_clock_.reset();
      for (auto& b : breakers_) b.tick_ms(elapsed);
      allowed = breakers_[idx].allow();
      breaker_state_gauges_[idx]->set(
          static_cast<double>(breakers_[idx].state()));
    }
    if (!allowed) {
      // Open circuit: skip straight to the next engine in the chain rather
      // than burning the query's budget on a path that keeps failing.
      breaker_skips_.inc();
      continue;
    }
    if (kind != req.engine) engine_fallbacks_.inc();

    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (token->expired()) {
        // The token is burned (deadline, cancel or watchdog kill): no
        // engine call can succeed anymore.
        QueryResult dead;
        dead.status = dead.stats.status = token->status();
        dead.served_by = kind;
        dead.degraded = kind != req.engine;
        return finalize(std::move(dead));
      }
      if (attempt > 0) {
        engine_retries_.inc();
        const double delay_ms =
            res.retry.backoff_ms(attempt, static_cast<std::uint64_t>(kind));
        if (delay_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay_ms));
        }
      }
      ++total_attempts;
      QueryResult r = try_engine(kind, req, plan, snap, *token, attempt);
      faults_sum += r.stats.faults_injected;
      units_sum += r.stats.units_recovered;
      r.served_by = kind;
      r.degraded = kind != req.engine;

      const bool failure = r.status == QueryStatus::kInternalError;
      {
        std::lock_guard<std::mutex> lock(breakers_mu_);
        if (failure) {
          breakers_[idx].record_failure();
        } else {
          breakers_[idx].record_success();
        }
        breaker_state_gauges_[idx]->set(
            static_cast<double>(breakers_[idx].state()));
      }
      if (!failure) {
        // kOk, but also kInvalidArgument / kDeadlineExceeded / kCancelled:
        // all terminal. Retrying an invalid query would mask the caller's
        // bug; a burned token cannot be un-burned.
        return finalize(std::move(r));
      }
      last = std::move(r);
    }
  }
  return finalize(std::move(last));
}

void GraphSession::execute(QueryJob& job) {
  QueryResult result;
  const double queue_ms = job.since_submit.elapsed_ms();
  queue_wait_ms_.observe(queue_ms);
  queue_depth_.set(static_cast<double>(admission_.queue_depth()));
  inflight_.add(1.0);
  watchdog_.watch(job.token);

  try {
    bool cache_hit = false;
    // Skip plan work for queries that died in the queue.
    if (job.token->expired()) {
      result.status = result.stats.status = job.token->status();
      result.served_by = job.req.engine;
      result.attempts = 0;
    } else {
      // Pin the graph version for the query's whole life: plan compilation,
      // retries and fallbacks all see one consistent snapshot even while a
      // writer publishes newer epochs concurrently.
      const std::shared_ptr<const GraphSnapshot> snap = dyn_.snapshot();
      // Neighbor spans a compressed backend hands out stay valid while this
      // lease is held (the decode cache cannot be trimmed under the query).
      const auto storage_lease = snap->storage_lease();
      // Every count walks one subgraph per automorphism class; an
      // embeddings count is that times |Aut| (DESIGN.md §6).
      const bool embeddings =
          job.req.plan.count_mode == CountMode::kEmbeddings;
      job.req.plan.count_mode = CountMode::kUniqueSubgraphs;
      auto plan = plan_cache_.get_or_compile(job.req.pattern, job.req.plan,
                                             &cache_hit);
      result = execute_resilient(job.req, *plan, *snap, job.token);
      if (embeddings) result.count *= plan->automorphism_count();
      result.plan_cache_hit = cache_hit;
      result.graph_epoch = snap->epoch();
    }
    cache_hit_rate_.set(plan_cache_.stats().hit_rate());
  } catch (...) {
    // Last line of defense (DESIGN.md §9): nothing may escape into the
    // dispatcher pool, where it would std::terminate the process.
    result = QueryResult{};
    result.status = result.stats.status =
        exception_status("query execution threw", &result.error);
  }
  watchdog_.unwatch(job.token);

  if (!result.ok() && result.error.empty()) {
    // Satellite guarantee: every non-kOk result carries a human-readable
    // detail string.
    switch (result.status) {
      case QueryStatus::kDeadlineExceeded: {
        double budget = job.req.deadline_ms;
        if (budget == 0.0) budget = cfg_.default_deadline_ms;
        result.error = "deadline of " + std::to_string(budget) +
                       " ms exhausted (count is partial)";
        break;
      }
      case QueryStatus::kCancelled:
        result.error = "query cancelled (count is partial)";
        break;
      case QueryStatus::kInternalError:
        result.error = "engine execution failed after " +
                       std::to_string(result.attempts) +
                       " attempt(s); recovery budget exhausted or progress "
                       "stalled";
        break;
      default:
        result.error = std::string("query failed: ") + to_string(result.status);
        break;
    }
  }

  result.queue_ms = queue_ms;
  result.total_ms = job.since_submit.elapsed_ms();
  latency_ms_.observe(result.total_ms);
  inflight_.add(-1.0);
  (result.ok() ? queries_completed_ : queries_failed_).inc();
  if (result.degraded && result.ok()) queries_degraded_.inc();
  matches_total_.inc(result.count);
  engine_scalar_ops_.inc(result.stats.scalar_ops);
  faults_injected_total_.inc(result.stats.faults_injected);
  recovery_units_total_.inc(result.stats.units_recovered);
  refresh_session_metrics();  // the query's lease is released by now
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    active_tokens_.erase(job.token);
  }
  job.promise.set_value(std::move(result));
}

std::future<UpdateOutcome> GraphSession::submit_updates(UpdateBatch batch) {
  auto promise = std::make_shared<std::promise<UpdateOutcome>>();
  std::future<UpdateOutcome> future = promise->get_future();
  auto shared = std::make_shared<UpdateBatch>(std::move(batch));
  // Updates ride the same dispatcher pool as queries, at kHigh priority: a
  // saturated read workload delays writes rather than starving them, and the
  // same overload bound sheds both.
  const bool admitted =
      admission_.admit(QueryPriority::kHigh, [this, shared, promise] {
        try {
          promise->set_value(do_apply(*shared));
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
      });
  if (!admitted) {
    UpdateOutcome rejected;
    rejected.status = QueryStatus::kOverloaded;
    rejected.epoch = dyn_.epoch();
    rejected.error = "admission rejected: " +
                     std::to_string(admission_.num_workers()) + " running + " +
                     std::to_string(admission_.max_queue()) +
                     " queued slots are full";
    promise->set_value(std::move(rejected));
  }
  return future;
}

UpdateOutcome GraphSession::apply_updates(UpdateBatch batch) {
  return submit_updates(std::move(batch)).get();
}

void GraphSession::compact() {
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    dyn_.compact();
  }
  // compact() re-encodes the backend; publish the new footprint right away.
  refresh_session_metrics();
}

template <typename Write>
void GraphSession::durable_write(Write&& write) {
  const std::uint64_t faults_before = persist_->faults_injected();
  try {
    wal_appended_bytes_.inc(write());
  } catch (...) {
    // An exhausted budget throws after burning every attempt's fault.
    faults_injected_total_.inc(persist_->faults_injected() - faults_before);
    throw;
  }
  const std::uint64_t faults = persist_->faults_injected() - faults_before;
  faults_injected_total_.inc(faults);
  // Landed after repairs; faults come only from injected chaos.
  if (faults > 0) [[unlikely]] recovery_units_total_.inc(1);
}

UpdateOutcome GraphSession::do_apply(const UpdateBatch& batch) {
  std::lock_guard<std::mutex> lock(update_mu_);
  Timer total;
  UpdateOutcome out;

  const std::shared_ptr<const GraphSnapshot> from = dyn_.snapshot();
  ApplyResult applied;
  try {
    if (persist_ != nullptr) {
      // Write-ahead discipline: the effective delta is logged (and fsynced)
      // at the pre-publish point — after the successor snapshot is fully
      // built and the kUpdateApply fault check passed, before readers can
      // see it. A hook throw (exhausted kWalAppend budget) drops the batch:
      // memory and durable state stay in lockstep either way. No-op batches
      // skip the hook entirely (no epoch bump, nothing to recover).
      applied = dyn_.apply(batch, [this](const ApplyResult& r) {
        durable_write([&] {
          return persist_->log_update(r.snapshot->epoch(), r.applied).bytes;
        });
      });
    } else {
      applied = dyn_.apply(batch);
    }
  } catch (const check_error& e) {
    out.status = QueryStatus::kInvalidArgument;
    out.error = e.what();
  } catch (const std::exception& e) {
    // Includes FaultInjectedError (kUpdateApply chaos): the batch validated
    // but its snapshot was never published, so the graph is unchanged.
    out.status = QueryStatus::kInternalError;
    out.error = std::string("update apply failed: ") + e.what();
  }
  if (!out.ok()) {
    updates_failed_.inc();
    out.epoch = from->epoch();
    out.update_ms = total.elapsed_ms();
    update_latency_ms_.observe(out.update_ms);
    refresh_session_metrics();
    return out;
  }

  out.epoch = applied.snapshot->epoch();
  out.stats = applied.stats;
  out.applied = applied.applied;
  updates_applied_.inc();
  edges_inserted_.inc(applied.stats.inserted);
  edges_deleted_.inc(applied.stats.deleted);
  graph_epoch_.set(static_cast<double>(out.epoch));
  // Keep the partition paired with the newest snapshot (only the shards
  // owning a delta endpoint are rebuilt); queries pin the pair atomically
  // under shard_mu_.
  if (cfg_.sharding.enabled()) rebuild_shards(applied.snapshot, &applied.applied);

  apply_standing_deltas(*from, applied, &out);
  // Appended even when a checkpoint follows (its WAL reset discards it).
  if (persist_ != nullptr && !standing_.empty()) log_standing_counts(out.epoch);

  if (persist_ != nullptr && cfg_.persistence.checkpoint_every_batches > 0 &&
      ++batches_since_checkpoint_ >=
          cfg_.persistence.checkpoint_every_batches) {
    // Post-batch checkpoint: standing counts are already advanced, so the
    // manifest matches the CSR it is stored with. A chaos-failed install
    // leaves the WAL authoritative and retries after the next batch.
    checkpoint_locked();
  }

  out.update_ms = total.elapsed_ms();
  update_latency_ms_.observe(out.update_ms);
  refresh_session_metrics();
  return out;
}

void GraphSession::log_standing_counts(std::uint64_t epoch) {
  persist::StandingCounts counts;
  counts.reserve(standing_.size());
  for (const auto& [id, sq] : standing_) counts.emplace_back(id, sq.count);
  // The batch is already durable and published, so an exhausted kWalAppend
  // budget fails nothing: recovery walks from the previous counts record.
  try {
    durable_write([&] { return persist_->log_counts(epoch, counts).bytes; });
  } catch (const FaultInjectedError&) {
  }
}

void GraphSession::apply_standing_deltas(const GraphSnapshot& from,
                                         const ApplyResult& applied,
                                         UpdateOutcome* out) {
  if (applied.applied.empty()) return;
  const std::uint64_t epoch = applied.snapshot->epoch();
  Timer inc_timer;
  // The walks read the pre-batch snapshot (deleted edges) and the
  // post-batch one (inserted edges). A published version keeps its
  // predecessor's store, so both read their clean vertices through
  // `from`'s, and one lease pins it.
  const auto storage_lease = from.storage_lease();
  std::lock_guard<std::mutex> standing_lock(standing_mu_);
  // One trie walk serves every registration (an empty index returns at
  // once); a query's reported delta_ms is its amortized share of the walk.
  Timer walk_timer;
  const mqo::EvalResult res = mqo::MultiQueryEvaluator(standing_index_)
                                  .evaluate(from, *applied.snapshot,
                                            applied.applied);
  const double walk_ms = walk_timer.elapsed_ms();
  if (!standing_.empty()) {
    indexed_delta_latency_ms_.observe(walk_ms);
    standing_delta_edges_.inc(res.delta_edges);
    standing_seed_walks_.inc(res.seed_walks);
    standing_node_visits_.inc(res.node_visits);
  }
  const double amortized_ms =
      walk_ms / static_cast<double>(std::max<std::size_t>(standing_.size(), 1));
  for (auto& [id, sq] : standing_) {
    mqo::QueryDelta qd = standing_index_.project(id, res);
    sq.count = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(sq.count) + qd.delta);
    sq.epoch = epoch;
    ++sq.batches;
    if (sq.full_ms > 0.0 && amortized_ms > 0.0) {
      delta_speedup_.set(sq.full_ms / amortized_ms);
    }
    StandingQueryUpdate upd;
    upd.query_id = id;
    upd.epoch = epoch;
    upd.delta = qd.delta;
    upd.count = sq.count;
    upd.delta_ms = amortized_ms;
    if (sq.on_update) sq.on_update(upd);
    if (out != nullptr) out->updates.push_back(std::move(upd));

    if (sq.on_delta) {
      // Counts and embedding lists come from the same walk, but the
      // projection arithmetic (|Aut| division, remap) is independent; they
      // must agree exactly.
      STM_CHECK_MSG(static_cast<std::int64_t>(qd.added.size()) -
                            static_cast<std::int64_t>(qd.retracted.size()) ==
                        qd.delta,
                    "standing query " << id << ": embedding delta "
                                      << qd.added.size() << " - "
                                      << qd.retracted.size()
                                      << " disagrees with count delta "
                                      << qd.delta);
      StandingQueryDelta sd;
      sd.query_id = id;
      sd.epoch = epoch;
      sd.delta_ms = amortized_ms;
      sd.added = std::move(qd.added);
      sd.retracted = std::move(qd.retracted);
      sq.on_delta(sd);
    }
  }
  if (out != nullptr) {
    out->incremental_ms = inc_timer.elapsed_ms();
    incremental_latency_ms_.observe(out->incremental_ms);
  }
}

std::uint64_t GraphSession::register_standing_query(StandingQueryConfig cfg) {
  // Serialized with the update path so the (count, epoch) pair is
  // consistent — a batch applied concurrently would otherwise race the
  // baseline.
  std::lock_guard<std::mutex> lock(update_mu_);
  const std::shared_ptr<const GraphSnapshot> snap = dyn_.snapshot();
  // Everything the index cannot serve fails here, before any side effect
  // (WAL append, index mutation) — a validated add() below cannot fail
  // halfway.
  mqo::PatternIndex::validate(cfg.pattern, cfg.plan);
  if (cfg.on_delta) {
    STM_CHECK_MSG(cfg.plan.count_mode == CountMode::kEmbeddings,
                  "standing delta streams require kEmbeddings count mode: a "
                  "subgraph can have several embeddings, so retraction of 'a "
                  "subgraph' is ill-defined at embedding granularity");
  }

  // Baseline count. A canonical-group sibling's standing count converts
  // arithmetically (both modes relate by the group's |Aut| factor), so
  // duplicate registrations — the at-scale common case — cost no
  // enumeration at all. standing_/index reads are safe here: writers are
  // serialized by update_mu_.
  std::uint64_t count = 0;
  double full_ms = 0.0;
  const std::optional<std::uint64_t> sibling =
      standing_index_.any_member(cfg.pattern);
  if (sibling.has_value()) {
    const StandingQuery& sib = standing_.at(*sibling);
    const std::uint64_t aut = standing_index_.automorphisms(*sibling);
    const std::uint64_t embeddings =
        sib.count *
        (sib.plan.count_mode == CountMode::kUniqueSubgraphs ? aut : 1);
    count = cfg.plan.count_mode == CountMode::kUniqueSubgraphs
                ? embeddings / aut
                : embeddings;
  } else {
    // Counted like a query: unique subgraphs, times |Aut| for embeddings.
    PlanOptions unique = cfg.plan;
    unique.count_mode = CountMode::kUniqueSubgraphs;
    auto plan = plan_cache_.get_or_compile(cfg.pattern, unique);
    Timer full_timer;
    const auto storage_lease = snap->storage_lease();
    const EngineRun full = run_engine(EngineKind::kHost, snap->view(), *plan,
                                      host_config({}), {});
    count = full.count;
    if (cfg.plan.count_mode == CountMode::kEmbeddings)
      count *= plan->automorphism_count();
    full_ms = full_timer.elapsed_ms();
  }

  StandingQuery sq;
  sq.pattern = cfg.pattern;
  sq.plan = cfg.plan;
  sq.on_update = std::move(cfg.on_update);
  sq.on_delta = std::move(cfg.on_delta);
  sq.count = count;
  sq.epoch = snap->epoch();
  sq.full_ms = full_ms;

  std::lock_guard<std::mutex> standing_lock(standing_mu_);
  const std::uint64_t id = next_standing_id_;
  if (persist_ != nullptr) {
    // Logged before the id is consumed or the query installed: if the append
    // exhausts its chaos budget the throw leaves memory and the id space
    // untouched, so replay and live state can never disagree.
    durable_write([&] {
      return persist_->log_register(standing_entry(id, sq), snap->epoch())
          .bytes;
    });
  }
  ++next_standing_id_;
  standing_index_.add(id, sq.pattern, sq.plan, static_cast<bool>(sq.on_delta));
  standing_.emplace(id, std::move(sq));
  standing_queries_.set(static_cast<double>(standing_.size()));
  publish_index_metrics();
  return id;
}

bool GraphSession::unregister_standing_query(std::uint64_t id) {
  // Serialized with the update path so the unregistration's WAL position is
  // unambiguous relative to update records.
  std::lock_guard<std::mutex> update_lock(update_mu_);
  std::lock_guard<std::mutex> lock(standing_mu_);
  auto it = standing_.find(id);
  if (it == standing_.end()) return false;
  if (persist_ != nullptr) {
    durable_write(
        [&] { return persist_->log_unregister(id, dyn_.epoch()).bytes; });
  }
  standing_.erase(it);
  standing_index_.remove(id);
  publish_index_metrics();
  standing_queries_.set(static_cast<double>(standing_.size()));
  return true;
}

void GraphSession::publish_index_metrics() {
  const mqo::IndexStats st = standing_index_.stats();
  standing_patterns_.set(static_cast<double>(st.groups));
  trie_nodes_.set(static_cast<double>(st.trie.nodes));
  trie_flipped_terminals_.set(static_cast<double>(st.trie.flipped_terminals));
  shared_prefix_ratio_.set(st.trie.shared_prefix_ratio);
}

mqo::IndexStats GraphSession::standing_index_stats() const {
  std::lock_guard<std::mutex> lock(standing_mu_);
  return standing_index_.stats();
}

std::optional<StandingQueryInfo> GraphSession::standing_query(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(standing_mu_);
  auto it = standing_.find(id);
  if (it == standing_.end()) return std::nullopt;
  StandingQueryInfo info;
  info.id = id;
  info.pattern = it->second.pattern;
  info.count = it->second.count;
  info.epoch = it->second.epoch;
  info.batches_observed = it->second.batches;
  info.full_ms = it->second.full_ms;
  return info;
}

persist::StandingEntry GraphSession::standing_entry(
    std::uint64_t id, const StandingQuery& sq) const {
  persist::StandingEntry e;
  e.id = id;
  e.pattern = sq.pattern.to_string();
  e.plan = sq.plan;
  e.count = sq.count;
  e.epoch = sq.epoch;
  e.batches = sq.batches;
  e.full_ms = sq.full_ms;
  return e;
}

void GraphSession::restore_standing(const persist::StandingEntry& entry) {
  // Counts are durable, not recomputed: the registration record carries the
  // baseline, and replay takes later counts from counts records or advances
  // them through the same delta path that ran before the crash, so no full
  // re-enumeration happens at boot.
  // Callbacks cannot be serialized; a restored session re-attaches them by
  // registering fresh queries.
  StandingQuery sq;
  sq.pattern = Pattern::parse(entry.pattern);
  sq.plan = entry.plan;
  sq.count = entry.count;
  sq.epoch = entry.epoch;
  sq.batches = entry.batches;
  sq.full_ms = entry.full_ms;
  std::lock_guard<std::mutex> lock(standing_mu_);
  // add() replaces an existing id, mirroring insert_or_assign below, so a
  // checkpoint-manifest entry superseded by a WAL record rebuilds the exact
  // same trie state (subscribers do not survive a restart, so restored
  // registrations never collect embeddings).
  standing_index_.add(entry.id, sq.pattern, entry.plan,
                      /*wants_embeddings=*/false);
  publish_index_metrics();
  standing_.insert_or_assign(entry.id, std::move(sq));
}

bool GraphSession::checkpoint() {
  STM_CHECK_MSG(persist_ != nullptr,
                "checkpoint() requires SessionConfig::persistence");
  std::lock_guard<std::mutex> lock(update_mu_);
  return checkpoint_locked();
}

bool GraphSession::checkpoint_locked() {
  Timer timer;
  persist::CheckpointData data;
  const std::shared_ptr<const GraphSnapshot> snap = dyn_.snapshot();
  data.epoch = snap->epoch();
  data.graph = snap->compacted();
  {
    std::lock_guard<std::mutex> standing_lock(standing_mu_);
    data.next_standing_id = next_standing_id_;
    data.standing.reserve(standing_.size());
    for (const auto& [id, sq] : standing_)
      data.standing.push_back(standing_entry(id, sq));
  }
  bool ok = true;
  try {
    durable_write([&] {
      persist_->install_checkpoint(std::move(data));
      return std::uint64_t{0};  // no WAL bytes
    });
  } catch (const FaultInjectedError&) {
    // Exhausted chaos budget: the WAL and previous checkpoint set still
    // hold everything, so the session keeps running un-checkpointed.
    checkpoint_failures_.inc(1);
    ok = false;
  }
  if (ok) {
    batches_since_checkpoint_ = 0;
    checkpoints_written_.inc(1);
    checkpoint_duration_ms_.observe(timer.elapsed_ms());
  }
  return ok;
}

}  // namespace stm
