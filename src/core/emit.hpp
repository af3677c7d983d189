// Embedding emission interface between the engines and the stream layer.
//
// When an engine runs with a non-null EmbeddingSink it posts every matched
// embedding, grouped into *buckets* keyed by a deterministic ordering id.
// Every engine posts one bucket per outer-loop vertex (host and reference:
// v - start; SIMT: the virtual index (v - begin) / stride of its
// OuterRange), so
//
//   (a) bucket ids form a dense range [0, num_buckets) announced via begin(),
//   (b) concatenating buckets 0, 1, 2, ... yields the extension-tree DFS
//       order of the plan (lexicographic order of plan-position tuples,
//       because every candidate set iterates ascending), and
//   (c) each bucket is posted exactly once, with its embeddings already in
//       DFS order, only after the engine has fully and exactly enumerated it
//       (a bucket whose work unit failed or was interrupted is never posted)
//       or has cut it at the page budget (see budget()).
//
// A bucket travels as one flat EmbeddingBatch: the k plan-position vertices
// of each embedding back to back (k = plan size), so neither the engine nor
// the stream layer allocates per embedding.
//
// The sink (stm::stream::EmitPipeline) re-merges buckets into the single
// global order; the engine stays ignorant of backpressure policy, fault
// injection at the transport (kEmitDrop), and the head bucket a resumed
// stream puts ahead of the engine's bucket 0 (the rest of the cursor's outer
// vertex, which the engine's range starts after).
//
// Embeddings are posted in *plan order*: a batch's i-th vertex of an
// embedding is the data vertex matched at plan position i (the reordered
// pattern's vertex i). The stream's consumer remaps to the original
// pattern's vertex order as it hands each embedding to the caller.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace stm {

/// One matched embedding; meaning of the index depends on the layer (plan
/// position inside the engines, original pattern vertex at the service API).
using Embedding = std::vector<VertexId>;

/// One bucket's embeddings, flat: embedding j is [j * k, (j + 1) * k).
using EmbeddingBatch = std::vector<VertexId>;

/// budget() of a sink whose stream has no page limit.
inline constexpr std::uint64_t kUnlimitedBudget = ~std::uint64_t{0};

class EmbeddingSink {
 public:
  virtual ~EmbeddingSink() = default;

  /// Announces the dense bucket space [0, num_buckets). Called once, before
  /// any post. Buckets never posted are treated as empty.
  virtual void begin(std::uint64_t num_buckets) = 0;

  /// Embeddings the engine's buckets must still supply to fill the page
  /// (kUnlimitedBudget without a limit). A producer that posts its buckets
  /// in ascending order may stop once the buckets it staged hold this many,
  /// cutting its last bucket at the budget: by the end of that bucket the
  /// consumer has read at least the budget, so the page ends inside it.
  virtual std::uint64_t budget() const = 0;

  /// Blocking post: hands over one complete bucket. May block on
  /// backpressure until the consumer catches up. `batch` is consumed (moved
  /// from) on success and on abort. Returns false when the stream has been
  /// aborted or has failed; the engine should stop emitting (it may keep
  /// counting).
  virtual bool post(std::uint64_t bucket, EmbeddingBatch&& batch) = 0;

  /// Post for producers that must never park while other work (e.g. a
  /// failed chunk awaiting retry) could exist. Only the release head — whose
  /// admission waits on the consumer alone — may wait; any other bucket that
  /// does not fit returns kWouldBlock with the batch left untouched, and the
  /// caller retains it for a later attempt.
  enum class TryPost : std::uint8_t { kPosted, kWouldBlock, kAborted };
  virtual TryPost try_post(std::uint64_t bucket, EmbeddingBatch& batch) = 0;
};

}  // namespace stm
