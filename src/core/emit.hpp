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
//       (a bucket whose work unit failed or was interrupted is never posted).
//
// The sink (stm::stream::EmitPipeline) re-merges buckets into the single
// global order; the engine stays ignorant of backpressure policy, fault
// injection at the transport (kEmitDrop), vertex-order remapping, and the
// head bucket a resumed stream puts ahead of the engine's bucket 0 (the rest
// of the cursor's outer vertex, which the engine's range starts after).
//
// Embeddings are posted in *plan order*: embedding[i] is the data vertex
// matched at plan position i (the reordered pattern's vertex i). The stream
// layer remaps to the original pattern's vertex order at the API boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace stm {

/// One matched embedding; meaning of the index depends on the layer (plan
/// position inside the engines, original pattern vertex at the service API).
using Embedding = std::vector<VertexId>;

class EmbeddingSink {
 public:
  virtual ~EmbeddingSink() = default;

  /// Announces the dense bucket space [0, num_buckets). Called once, before
  /// any post. Buckets never posted are treated as empty.
  virtual void begin(std::uint64_t num_buckets) = 0;

  /// Blocking post: hands over one complete bucket. May block on
  /// backpressure until the consumer catches up (the head bucket — the next
  /// one to be released — is exempt, so the engine can always make
  /// progress). `batch` is consumed (moved from) on success and on abort.
  /// Returns false when the stream has been aborted or has failed; the
  /// engine should stop emitting (it may keep counting).
  virtual bool post(std::uint64_t bucket, std::vector<Embedding>&& batch) = 0;

  /// Non-blocking post for producers that must never park while other work
  /// (e.g. a failed chunk awaiting retry) could exist. On kWouldBlock the
  /// batch is left untouched and the caller retains it for a later attempt.
  enum class TryPost : std::uint8_t { kPosted, kWouldBlock, kAborted };
  virtual TryPost try_post(std::uint64_t bucket,
                           std::vector<Embedding>& batch) = 0;
};

}  // namespace stm
