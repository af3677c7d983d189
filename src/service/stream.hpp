// Streaming query endpoints of GraphSession (DESIGN.md §12).
//
// Where run()/submit() return a match *count*, open_stream() returns the
// matched embeddings themselves, delivered one at a time in a deterministic
// global order: ascending outer-loop vertex (the data vertex matched at plan
// position 0), DFS order of the extension tree within it. The order is a
// pure function of (graph snapshot, pattern, plan options) — bit-identical
// across engines, thread counts, chunk sizes, and steal interleavings —
// which is what makes cursors meaningful: a page of N embeddings plus a
// resume token identifies an exact position in the stream, and a later page
// opened from that token continues with embedding N+1.
//
// Each embedding is in *original pattern vertex order*: embedding[i] is the
// data vertex matched to pattern vertex i, as the caller wrote the pattern
// (the engine-internal matching order is remapped away at the emission
// pipeline).
//
// Lifecycle: open_stream() pins the current graph snapshot, compiles (or
// reuses) the plan, and starts a producer thread running the requested
// engine in emission mode. The consumer pulls with next(); producers block
// on bounded-memory backpressure when the consumer lags (StreamOptions::
// max_buffered). The stream ends when the enumeration completes, the limit
// is reached, the deadline/cancel token fires, or the handle is closed —
// in every case the delivered embeddings form a valid prefix of the full
// stream, and result() reports how far it got.
//
// Streams are admitted against SessionConfig::max_open_streams (their own
// bound, not the dispatcher pool: a pull-based consumer can hold a stream
// open indefinitely, and parking it on a dispatcher worker would starve or
// deadlock count queries behind it). The open_streams gauge tracks them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/emit.hpp"
#include "service/service.hpp"

namespace stm {

struct StreamOptions {
  /// Deliver at most this many embeddings, then end the stream with kOk
  /// (a page). 0 = unlimited.
  std::uint64_t limit = 0;
  /// Opaque token from a previous page's resume_token(); empty starts from
  /// the beginning. A token is only valid against the same pattern/options
  /// and the same graph epoch (kInvalidArgument otherwise) but is engine-
  /// independent — a stream may be resumed on a different engine. It names
  /// the last embedding delivered, and a resumed page seeks to the position
  /// after it, so a page costs about what it delivers wherever it starts.
  /// Tokens of the earlier "stm1" layout still resume.
  std::string resume_token;
  /// Backpressure bound: embeddings buffered between producers and the
  /// consumer before engine workers block.
  std::size_t max_buffered = 4096;
  /// Chaos for the emission transport (FaultSite::kEmitDrop): dropped
  /// deliveries are retransmitted from the retained copy, exhaustion fails
  /// the stream with kInternalError.
  FaultConfig emit_fault;
};

struct StreamRequest {
  /// Engine / plan / deadline knobs. Streams execute a single attempt on
  /// req.engine (no retry or fallback: a degraded re-run could not splice
  /// into an already-delivered prefix) and bypass sharded execution.
  QueryRequest query;
  StreamOptions stream;
};

/// A live embedding stream. Handles are single-consumer (next()/result()/
/// resume_token() must not race each other); cancel() may be called from any
/// thread. Destroying the handle aborts the stream and releases its slot.
class EmbeddingStream {
 public:
  ~EmbeddingStream();
  EmbeddingStream(const EmbeddingStream&) = delete;
  EmbeddingStream& operator=(const EmbeddingStream&) = delete;

  /// Pulls the next embedding in global order. Blocks while producers are
  /// behind; returns false at end-of-stream (completion, limit, deadline,
  /// cancellation, or failure — consult result()).
  bool next(Embedding* out);

  /// Terminal result of the stream: count = embeddings delivered to this
  /// handle, status/error say why the stream ended (kOk for completion or a
  /// reached limit), stats = the engine's execution counters (on a resumed
  /// page, including the seek walk's). Calling this before the stream ended
  /// closes it (the delivered prefix stays valid).
  const QueryResult& result();

  /// Cursor for the next page. Empty when the stream is exhausted (resuming
  /// past the last embedding yields nothing); a page cut by its limit cannot
  /// tell whether it took the last embedding, so its token is never empty.
  /// Valid after any prefix — including a cancelled or deadline-expired
  /// page, whose delivered prefix the token continues from (a page that
  /// delivered nothing returns the token it was opened with).
  std::string resume_token() const;

  /// Requests cancellation: producers stop, next() returns false after the
  /// already-released embeddings. Safe from any thread, idempotent.
  void cancel();

 private:
  friend class GraphSession;
  explicit EmbeddingStream(std::shared_ptr<GraphSession::StreamState> st);
  void finalize();

  std::shared_ptr<GraphSession::StreamState> st_;
};

/// One scored embedding of a top-k result.
struct ScoredEmbedding {
  Embedding embedding;
  double score = 0.0;
  /// Position of the embedding in the deterministic global stream order —
  /// the tiebreaker (smaller rank wins at equal score), so top-k results are
  /// deterministic too.
  std::uint64_t rank = 0;
};

struct TopKOptions {
  /// Number of results to keep.
  std::size_t k = 1;
  /// Embedding scorer (higher = better). Must be a pure function of the
  /// embedding for the result to be deterministic.
  std::function<double(const Embedding&)> score;
  /// Stream knobs for the underlying full enumeration (limit/resume_token
  /// are ignored: top-k must see every embedding).
  StreamOptions stream;
};

struct TopKResult {
  /// Terminal result of the underlying stream (count = embeddings scored).
  QueryResult result;
  /// The best k embeddings, sorted by (score desc, rank asc). Fewer than k
  /// when the enumeration has fewer matches.
  std::vector<ScoredEmbedding> top;
};

}  // namespace stm
