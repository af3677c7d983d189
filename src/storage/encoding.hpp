// Per-vertex delta/varint adjacency encoding with skip anchors.
//
// Each sorted neighbor list is encoded independently so any vertex can be
// decoded without touching its neighbors' bytes (the property the spill tier
// relies on to place vertices into pages):
//
//   [varint degree]
//   [anchor table]    only when degree > block_size: one fixed-width entry
//                     {u32 first_value, u32 payload_offset} per block of
//                     block_size neighbors, little-endian, including block 0
//   [payload]         per block: the first neighbor as an absolute varint,
//                     then gaps (v[i] - v[i-1], always >= 1) as varints
//
// Every block restarts from an absolute value, so ListCursor::seek_at_least
// can binary-search the anchor table and decode at most one block instead of
// the whole list — the "skip anchor" that keeps galloping intersection
// sub-linear on compressed lists. Short lists (degree <= block_size) skip the
// anchor table entirely; their payload is a single block.
//
// All reads are bounds-checked against the slice end so corrupt bytes (a
// torn spill page that slipped past CRC, a bug) surface as check_error, never
// out-of-bounds reads.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "util/check.hpp"

namespace stm::storage {

/// Neighbors per skip-anchor block. A power of two keeps block math cheap;
/// 32 matches the warp width the engines chunk by and keeps the anchor table
/// under 3% of payload for uniform lists.
inline constexpr std::uint32_t kDefaultBlockSize = 32;

/// Bytes per anchor entry: u32 first_value + u32 payload_offset.
inline constexpr std::size_t kAnchorEntryBytes = 8;

/// Appends one LEB128 varint (7 bits per byte, low first) to `out`.
void append_varint(std::uint32_t value, std::vector<std::uint8_t>& out);

/// Appends the encoded form of one sorted-ascending neighbor list to `out`.
/// Returns the number of bytes appended.
std::size_t encode_adjacency(const VertexId* list, std::size_t degree,
                             std::uint32_t block_size,
                             std::vector<std::uint8_t>& out);

/// Streaming decoder over one encoded list slice [begin, end).
///
/// The cursor starts positioned on the first neighbor (or done() for empty
/// lists). seek_at_least() moves forward or backward; backward seeks restart
/// from the nearest anchor, so a cursor can be reused across galloping
/// probes in any order.
class ListCursor {
 public:
  ListCursor() = default;
  ListCursor(const std::uint8_t* begin, const std::uint8_t* end,
             std::uint32_t block_size);

  std::uint32_t degree() const { return degree_; }
  bool done() const { return idx_ >= degree_; }
  /// Current neighbor; precondition: !done().
  VertexId value() const {
    STM_CHECK(idx_ < degree_);
    return cur_;
  }
  /// Zero-based position of the current neighbor within the list.
  std::uint32_t index() const { return idx_; }

  /// Advances to the next neighbor (or done()).
  void advance();

  /// Positions the cursor at the first neighbor >= x; done() if none.
  /// Uses the anchor table to skip blocks in O(log num_blocks + block_size).
  void seek_at_least(VertexId x);

  /// Appends every remaining neighbor (from the current position) to `out`.
  void decode_remaining(std::vector<VertexId>& out);

 private:
  /// Re-positions the cursor at the start of `block` and decodes its first
  /// element.
  void jump_to_block(std::uint32_t block);
  std::uint32_t read_varint();
  std::uint32_t anchor_first_value(std::uint32_t block) const;
  std::uint32_t anchor_offset(std::uint32_t block) const;

  const std::uint8_t* anchors_ = nullptr;  // null when degree <= block_size
  const std::uint8_t* payload_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  const std::uint8_t* pos_ = nullptr;  // next byte to read in the payload
  std::uint32_t degree_ = 0;
  std::uint32_t block_size_ = kDefaultBlockSize;
  std::uint32_t num_blocks_ = 0;
  std::uint32_t idx_ = 0;
  VertexId cur_ = 0;
};

/// Decodes a whole encoded list into `out` (clears `out` first).
void decode_adjacency(const std::uint8_t* begin, const std::uint8_t* end,
                      std::uint32_t block_size, std::vector<VertexId>& out);

}  // namespace stm::storage
