#include "service/stream.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <queue>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/recursive.hpp"
#include "pattern/matching_order.hpp"
#include "stream/emit.hpp"
#include "stream/sequencer.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

namespace {

/// Identifies the (pattern, plan options) a resume token was issued for.
/// FNV-1a over the canonical pattern string plus the option bytes — stable
/// across sessions, engine-independent (the stream order is too).
std::uint64_t stream_fingerprint(const QueryRequest& req) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const char c : req.pattern.to_string()) {
    mix(static_cast<unsigned char>(c));
  }
  mix(static_cast<unsigned char>(req.plan.induced));
  mix(static_cast<unsigned char>(req.plan.count_mode));
  // code_motion changes neither the matching order nor the DFS order, so it
  // is deliberately absent: a stream may resume under the other setting.
  return h;
}

/// Token layout: "stm2.<epoch>.<fingerprint hex>.<total>[.<u_0>...<u_k-1>]"
/// — `total` embeddings were delivered on earlier pages, the last of them
/// (u_0, ..., u_k-1) in the caller's pattern-vertex order. Without the
/// vertex fields the position is the start of the stream.
std::string encode_resume(std::uint64_t epoch, std::uint64_t fp,
                          std::uint64_t total, const Embedding& last) {
  std::ostringstream os;
  os << "stm2." << epoch << '.' << std::hex << fp << std::dec << '.' << total;
  for (const VertexId u : last) os << '.' << u;
  return os.str();
}

/// Strict unsigned parse: digits only, and no value above 2^64 - 1.
bool parse_u64(const std::string& s, std::uint64_t base,
               std::uint64_t* out) noexcept {
  if (s.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : s) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    if (value > (~std::uint64_t{0} - digit) / base) return false;
    value = value * base + digit;
  }
  *out = value;
  return true;
}

/// The stream position a token names.
struct ResumePoint {
  std::uint64_t total = 0;  // embeddings delivered on earlier pages
  Embedding last;           // stm2: the last of them, caller's vertex order
  VertexId v0 = 0;          // stm1: "after `skip` embeddings of vertex v0"
  std::uint64_t skip = 0;
};

/// Decodes a token minted for a `k`-vertex pattern on an `n`-vertex graph.
/// Also accepts the earlier "stm1.<epoch>.<fp>.<v0>.<skip>.<total>" layout.
/// Fingerprint and epoch are checked before the position fields, so a token
/// of another pattern reads as stale, not as malformed.
bool decode_resume(const std::string& token, std::uint64_t epoch,
                   std::uint64_t fp, std::size_t k, VertexId n,
                   ResumePoint* at, std::string* error) {
  std::vector<std::string> fields(1);
  for (const char c : token) {
    if (c == '.') {
      fields.emplace_back();
    } else {
      fields.back().push_back(c);
    }
  }
  const bool legacy = fields[0] == "stm1";
  const auto malformed = [&] {
    // A parse failure means the caller corrupted the token; stale tokens
    // (below) parse fine and get a diagnosable expected-vs-observed error.
    const std::string layout =
        legacy ? "stm1.<epoch>.<fingerprint>.<v0>.<skip>.<total>"
               : "stm2.<epoch>.<fingerprint>.<total>[.<u_0>...<u_" +
                     std::to_string(k - 1) + ">]";
    *error = "malformed resume token: expected \"" + layout +
             "\" with vertex ids below " + std::to_string(n) + ", got \"" +
             token + "\"";
    return false;
  };

  std::vector<std::uint64_t> num(fields.size());
  bool ok = legacy ? fields.size() == 6
                   : fields[0] == "stm2" && fields.size() >= 4;
  for (std::size_t i = 1; ok && i < fields.size(); ++i)
    ok = parse_u64(fields[i], i == 2 ? 16 : 10, &num[i]);
  if (!ok) return malformed();
  if (num[2] != fp) {
    std::ostringstream os;
    os << "stale resume token: issued for pattern fingerprint " << std::hex
       << num[2] << " but this query's fingerprint is " << fp << std::dec
       << " (different pattern or plan options)";
    *error = os.str();
    return false;
  }
  if (num[1] != epoch) {
    std::ostringstream os;
    os << "stale resume token: issued at graph epoch " << num[1]
       << " but the graph has moved on to epoch " << epoch
       << " (the stream order is only defined within one epoch)";
    *error = os.str();
    return false;
  }
  // The vertex fields: stm1's v0, or stm2's k embedding vertices (or none).
  const std::size_t vbegin = legacy ? 3 : 4;
  const std::size_t vend = legacy ? 4 : fields.size();
  ok = legacy || vend == vbegin || vend - vbegin == k;
  for (std::size_t i = vbegin; ok && i < vend; ++i) ok = num[i] < n;
  if (!ok) return malformed();
  if (legacy) {
    at->v0 = static_cast<VertexId>(num[3]);
    at->skip = num[4];
    at->total = num[5];
  } else {
    at->total = num[3];
    for (std::size_t i = vbegin; i < vend; ++i)
      at->last.push_back(static_cast<VertexId>(num[i]));
  }
  return true;
}

/// An stm1 position, "after `skip` embeddings of outer vertex v0": a
/// counting walk over v0's subtree recovers that embedding (plan order),
/// which then seeds the same seek as an stm2 token. False when v0 has fewer
/// than `skip` embeddings.
bool legacy_position(GraphView g, const MatchingPlan& plan, VertexId v0,
                     std::uint64_t skip, Embedding* after) {
  std::uint64_t seen = 0;
  recursive_enumerate_range(g, plan, v0, v0 + 1,
                            [&](const std::vector<VertexId>& m) {
                              if (++seen < skip) return true;
                              *after = m;
                              return false;
                            });
  return seen == skip;
}

/// Head bucket of a resumed page: the seek walk posts the rest of the
/// cursor's outer vertex, stopping at the page limit. True when the engine
/// must still run from the next outer vertex (the walk completed and the
/// page has room left).
bool post_resume_head(GraphView g, const MatchingPlan& plan,
                      const Embedding& after, std::uint64_t limit,
                      const CancelToken& token, stream::EmitPipeline& pipe,
                      QueryStats* stats) {
  std::vector<Embedding> head;
  RecursiveCounters counters;
  Timer timer;
  recursive_enumerate_after(
      g, plan, after,
      [&head, limit](const std::vector<VertexId>& m) {
        head.push_back(m);
        return limit == 0 || head.size() < limit;
      },
      &counters, &token);
  stats->engine_ms = timer.elapsed_ms();
  stats->scalar_ops = counters.scalar_ops;
  stats->sets_built = counters.sets_built;
  // Like every bucket, the head is posted only once it is exact: complete,
  // or cut at the limit, where the page ends anyway.
  if (token.expired()) return false;
  const bool full = limit > 0 && head.size() >= limit;
  return pipe.post_head(std::move(head)) && !full;
}

}  // namespace

struct GraphSession::StreamState {
  StreamState(stream::SequencerConfig seq_cfg, const CancelToken* tok)
      : seq(seq_cfg, tok) {}

  GraphSession* session = nullptr;  // null for rejected (pre-terminal) streams
  QueryRequest req;
  StreamOptions opts;
  std::shared_ptr<CancelToken> token;
  std::shared_ptr<const GraphSnapshot> snap;
  std::shared_ptr<const MatchingPlan> plan;
  /// matching_order(pattern): original vertex at plan position i.
  std::vector<std::size_t> order;
  bool plan_cache_hit = false;
  std::uint64_t fingerprint = 0;

  /// Resume position: the engine runs from the vertex after after[0] once
  /// the seek walk has posted the rest of after[0]'s subtree (plan order);
  /// without `after` it runs from start_v0 (0, or an stm1 cursor's v0).
  Embedding after;
  VertexId start_v0 = 0;
  std::uint64_t resumed_total = 0;  // delivered on earlier pages

  stream::OutputSequencer seq;
  std::unique_ptr<stream::EmitPipeline> pipe;
  std::thread producer;

  /// Producer-side engine statistics; written before seq.finish(), read by
  /// the finalizer after joining the producer (mu spans the detach).
  std::mutex mu;
  QueryStats engine_stats;

  // Consumer-thread state. The handle is single-consumer; the finalizer is
  // serialized behind the once-flag and joins the producer first.
  Embedding last;  // last delivered embedding, caller's vertex order
  // delivered / limit_reached / drained are written by the consumer thread
  // in next() and read by whichever thread runs the finalizer — including
  // the session destructor sweeping live streams while a consumer is still
  // pulling. Atomics keep that teardown race benign (and TSan-clean).
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> limit_reached{false};
  std::atomic<bool> drained{false};  // consumer observed end-of-stream
  std::atomic<bool> cancel_requested{false};
  Timer since_open;
  std::once_flag finalize_once;
  std::atomic<bool> finalized{false};
  QueryResult result;
};

std::unique_ptr<EmbeddingStream> GraphSession::reject_stream(
    const StreamRequest& req, QueryStatus status, std::string error) {
  (status == QueryStatus::kOverloaded ? queries_rejected_ : queries_failed_)
      .inc();
  auto token = std::make_shared<CancelToken>();
  auto st = std::make_shared<StreamState>(stream::SequencerConfig{},
                                          token.get());
  st->token = std::move(token);
  st->req.engine = req.query.engine;
  st->seq.abort(status, error);
  QueryResult r;
  r.status = r.stats.status = status;
  r.served_by = req.query.engine;
  r.attempts = 0;
  r.error = std::move(error);
  st->result = std::move(r);
  st->finalized.store(true, std::memory_order_release);
  std::call_once(st->finalize_once, [] {});  // later finalize() is a no-op
  return std::unique_ptr<EmbeddingStream>(new EmbeddingStream(std::move(st)));
}

std::unique_ptr<EmbeddingStream> GraphSession::open_stream(StreamRequest req) {
  queries_submitted_.inc();

  const std::shared_ptr<const GraphSnapshot> snap = dyn_.snapshot();
  const std::uint64_t fp = stream_fingerprint(req.query);

  ResumePoint at;
  if (!req.stream.resume_token.empty()) {
    std::string err;
    if (!decode_resume(req.stream.resume_token, snap->epoch(), fp,
                       req.query.pattern.size(), snap->num_vertices(), &at,
                       &err)) {
      return reject_stream(req, QueryStatus::kInvalidArgument, std::move(err));
    }
  }

  bool cache_hit = false;
  std::shared_ptr<const MatchingPlan> plan;
  std::vector<std::size_t> order;
  Embedding after;  // the token's last embedding, in plan order
  bool positioned = true;
  try {
    plan = plan_cache_.get_or_compile(req.query.pattern, req.query.plan,
                                      &cache_hit);
    order = matching_order(req.query.pattern);
    if (!at.last.empty()) {
      after.resize(order.size());
      for (std::size_t i = 0; i < order.size(); ++i)
        after[i] = at.last[order[i]];
    } else if (at.skip > 0) {
      const auto lease = snap->storage_lease();
      positioned =
          legacy_position(snap->view(), *plan, at.v0, at.skip, &after);
    }
  } catch (...) {
    // A bad pattern or token is the request's fault; an exhausted spill
    // page while positioning is not (exception_status tells them apart).
    std::string error;
    const QueryStatus status = exception_status("stream open threw", &error);
    return reject_stream(req, status, std::move(error));
  }
  if (!positioned) {
    std::ostringstream os;
    os << "malformed resume token: outer vertex " << at.v0
       << " has fewer than " << at.skip << " embeddings, got \""
       << req.stream.resume_token << '"';
    return reject_stream(req, QueryStatus::kInvalidArgument, os.str());
  }

  auto token = std::make_shared<CancelToken>();
  double deadline = req.query.deadline_ms;
  if (deadline == 0.0) deadline = cfg_.default_deadline_ms;
  if (deadline > 0.0) token->set_deadline_ms(deadline);

  stream::SequencerConfig seq_cfg;
  seq_cfg.max_buffered = std::max<std::size_t>(1, req.stream.max_buffered);
  auto st = std::make_shared<StreamState>(seq_cfg, token.get());
  st->session = this;
  st->req = std::move(req.query);
  st->opts = std::move(req.stream);
  st->token = std::move(token);
  st->snap = snap;
  st->plan = std::move(plan);
  st->plan_cache_hit = cache_hit;
  st->fingerprint = fp;
  st->order = std::move(order);
  st->after = std::move(after);
  st->start_v0 = at.v0;
  st->resumed_total = at.total;
  st->pipe = std::make_unique<stream::EmitPipeline>(st->seq, st->order,
                                                    st->opts.emit_fault);

  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    if (shutting_down_) {
      StreamRequest rejected;
      rejected.query.engine = st->req.engine;
      return reject_stream(rejected, QueryStatus::kCancelled,
                           "stream rejected: the session is shutting down");
    }
    if (cfg_.max_open_streams > 0 &&
        live_streams_.size() >= cfg_.max_open_streams) {
      StreamRequest rejected;
      rejected.query.engine = st->req.engine;
      return reject_stream(
          rejected, QueryStatus::kOverloaded,
          "stream admission rejected: " + std::to_string(live_streams_.size()) +
              " of " + std::to_string(cfg_.max_open_streams) +
              " stream slots are open");
    }
    live_streams_.insert(st);
    open_streams_.set(static_cast<double>(live_streams_.size()));
  }
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    active_tokens_.insert(st->token);
  }
  queries_admitted_.inc();

  st->producer = std::thread([this, st] { run_stream(st); });
  return std::unique_ptr<EmbeddingStream>(new EmbeddingStream(std::move(st)));
}

void GraphSession::run_stream(const std::shared_ptr<StreamState>& st) {
  QueryStats stats;
  QueryStatus status = QueryStatus::kOk;
  std::string error;
  try {
    // Streams are long-lived engine runs over a pinned snapshot; the lease
    // keeps the backend's decoded lists stable until the producer exits.
    const auto storage_lease = st->snap->storage_lease();
    const GraphView g = st->snap->view();
    // A resumed page first finishes its cursor's outer vertex (the head
    // bucket), then runs the engine from the next one.
    VertexId start = st->start_v0;
    bool more = true;
    if (!st->after.empty()) {
      start = st->after[0] + 1;
      more = post_resume_head(g, *st->plan, st->after, st->opts.limit,
                              *st->token, *st->pipe, &stats);
      if (!more && st->token->expired()) status = st->token->status();
    }
    if (more) {
      const EngineRun r =
          run_engine(st->req.engine, g, *st->plan, host_config(st->req.host),
                     st->req.simt, 0, st->token.get(), st->pipe.get(), start);
      stats += r.stats;
      status = r.stats.status;
    }
  } catch (...) {
    status = exception_status(
        std::string("stream engine ") + to_string(st->req.engine) + " threw",
        &error);
  }
  if (st->pipe->failed()) {
    // kEmitDrop budget exhausted: the pipeline already aborted the sequencer
    // with kInternalError; mirror it in the engine-side outcome.
    status = QueryStatus::kInternalError;
    error = st->pipe->error();
  }
  stats.status = status;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    st->engine_stats = stats;
  }
  st->seq.finish(status, std::move(error));
}

void GraphSession::finalize_stream(const std::shared_ptr<StreamState>& st) {
  std::call_once(st->finalize_once, [&st] {
    // Stop the producer side (no-ops when the stream already ended) and wait
    // for it: engine_stats and the sequencer's terminal state settle here.
    if (!st->drained) {
      // Closed early: stop the engine and unblock producers parked on
      // backpressure. A drained stream must do neither — the producer may
      // not have recorded its terminal status yet (every bucket is posted,
      // but the engine can still be tearing down and would observe the
      // cancel), and the sequencer keeps the first status it is given.
      st->token->cancel();
      st->seq.abort(QueryStatus::kCancelled,
                    "stream closed before end of stream (the delivered "
                    "embeddings are a valid prefix)");
    }
    if (st->producer.joinable()) st->producer.join();

    QueryResult r;
    if (st->limit_reached) {
      // The page is complete; the engine's cooperative stop is not an error.
      r.status = QueryStatus::kOk;
    } else if (st->cancel_requested.load(std::memory_order_acquire)) {
      r.status = QueryStatus::kCancelled;
    } else if (st->drained) {
      r.status = st->seq.final_status();
      r.error = st->seq.final_error();
    } else {
      r.status = QueryStatus::kCancelled;
      r.error = st->seq.final_error();
    }
    {
      std::lock_guard<std::mutex> lock(st->mu);
      r.stats = st->engine_stats;
    }
    r.stats.status = r.status;
    if (st->pipe != nullptr) {
      r.stats.faults_injected += st->pipe->faults_injected();
    }
    r.count = st->delivered;
    r.served_by = st->req.engine;
    r.attempts = 1;
    r.plan_cache_hit = st->plan_cache_hit;
    r.graph_epoch = st->snap != nullptr ? st->snap->epoch() : 0;
    r.total_ms = st->since_open.elapsed_ms();
    if (!r.ok() && r.error.empty()) {
      // Every non-kOk stream result carries a detail string — including a
      // stream cancelled between admission and its first emission, whose
      // sequencer never saw a terminal message.
      switch (r.status) {
        case QueryStatus::kDeadlineExceeded: {
          double budget = st->req.deadline_ms;
          if (budget == 0.0 && st->session != nullptr) {
            budget = st->session->cfg_.default_deadline_ms;
          }
          r.error = "deadline of " + std::to_string(budget) +
                    " ms exhausted (the delivered embeddings are a valid "
                    "prefix of the stream)";
          break;
        }
        case QueryStatus::kCancelled:
          r.error =
              "stream cancelled (the delivered embeddings are a valid "
              "prefix of the stream)";
          break;
        case QueryStatus::kInternalError:
          r.error = "stream execution failed; the delivered embeddings are "
                    "a valid prefix of the stream";
          break;
        default:
          r.error = std::string("stream failed: ") + to_string(r.status);
          break;
      }
    }
    st->result = std::move(r);
    st->finalized.store(true, std::memory_order_release);

    GraphSession* s = st->session;
    if (s != nullptr) {
      s->stream_emitted_total_.inc(st->pipe->emitted());
      s->stream_backpressure_ms_.observe(st->seq.stall_ms());
      s->faults_injected_total_.inc(st->result.stats.faults_injected);
      s->recovery_units_total_.inc(st->result.stats.units_recovered);
      (st->result.ok() ? s->queries_completed_ : s->queries_failed_).inc();
      {
        std::lock_guard<std::mutex> lock(s->tokens_mu_);
        s->active_tokens_.erase(st->token);
      }
      {
        std::lock_guard<std::mutex> lock(s->streams_mu_);
        s->live_streams_.erase(st);
        s->open_streams_.set(static_cast<double>(s->live_streams_.size()));
      }
    }
  });
}

EmbeddingStream::EmbeddingStream(
    std::shared_ptr<GraphSession::StreamState> st)
    : st_(std::move(st)) {}

EmbeddingStream::~EmbeddingStream() { finalize(); }

void EmbeddingStream::finalize() { GraphSession::finalize_stream(st_); }

bool EmbeddingStream::next(Embedding* out) {
  GraphSession::StreamState& st = *st_;
  if (st.finalized.load(std::memory_order_acquire) || st.limit_reached) {
    return false;
  }
  Embedding e;
  if (!st.seq.next(&e)) {
    st.drained = true;
    finalize();
    return false;
  }
  ++st.delivered;
  st.last = e;
  if (st.opts.limit > 0 && st.delivered >= st.opts.limit) {
    st.limit_reached = true;
    st.token->cancel();
    st.seq.abort(QueryStatus::kOk, std::string());
  }
  *out = std::move(e);
  return true;
}

const QueryResult& EmbeddingStream::result() {
  finalize();
  return st_->result;
}

std::string EmbeddingStream::resume_token() const {
  const GraphSession::StreamState& st = *st_;
  if (st.snap == nullptr) return std::string();  // rejected stream
  if (st.finalized.load(std::memory_order_acquire) && st.result.ok() &&
      !st.limit_reached) {
    return std::string();  // exhausted: there is nothing to resume to
  }
  if (st.delivered == 0 && !st.opts.resume_token.empty()) {
    return st.opts.resume_token;  // nothing delivered: the same position
  }
  return encode_resume(st.snap->epoch(), st.fingerprint,
                       st.resumed_total + st.delivered, st.last);
}

void EmbeddingStream::cancel() {
  st_->cancel_requested.store(true, std::memory_order_release);
  st_->token->cancel();
  st_->seq.abort(QueryStatus::kCancelled, "stream cancelled by caller");
}

TopKResult GraphSession::top_k(const QueryRequest& req,
                               const TopKOptions& opts) {
  STM_CHECK_MSG(opts.k >= 1, "top_k requires k >= 1");
  STM_CHECK_MSG(static_cast<bool>(opts.score), "top_k requires a scorer");

  StreamRequest sreq;
  sreq.query = req;
  sreq.stream = opts.stream;
  sreq.stream.limit = 0;  // top-k must see every embedding
  sreq.stream.resume_token.clear();
  const std::unique_ptr<EmbeddingStream> s = open_stream(std::move(sreq));

  // Min-heap of size k ordered worst-first under (score desc, rank asc):
  // the top is the current k-th best, evicted when something better lands.
  const auto better = [](const ScoredEmbedding& a, const ScoredEmbedding& b) {
    return a.score > b.score || (a.score == b.score && a.rank < b.rank);
  };
  std::priority_queue<ScoredEmbedding, std::vector<ScoredEmbedding>,
                      decltype(better)>
      heap(better);
  Embedding e;
  std::uint64_t rank = 0;
  while (s->next(&e)) {
    ScoredEmbedding se;
    se.score = opts.score(e);
    se.rank = rank++;
    se.embedding = std::move(e);
    heap.push(std::move(se));
    if (heap.size() > opts.k) heap.pop();
  }

  TopKResult out;
  out.result = s->result();
  out.top.resize(heap.size());
  for (std::size_t i = heap.size(); i-- > 0;) {
    out.top[i] = heap.top();
    heap.pop();
  }
  return out;
}

}  // namespace stm
