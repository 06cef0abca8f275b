// A chunk: a 16x16 column of blocks, kWorldHeight tall. Chunks are the unit
// of world streaming (ChunkData messages) and the default granularity of
// dyconits for block updates.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "world/block.h"
#include "world/geometry.h"

namespace dyconits::world {

class Chunk {
 public:
  explicit Chunk(ChunkPos pos);

  ChunkPos pos() const { return pos_; }

  /// Local coordinates: x,z in [0,16), y in [0,kWorldHeight).
  Block get_local(int x, int y, int z) const { return blocks_[index(x, y, z)]; }
  void set_local(int x, int y, int z, Block b);

  /// Highest non-air y in the column (x,z), or -1 if the column is empty.
  int height_at(int x, int z) const { return heightmap_[x * kChunkSize + z]; }

  /// Count of non-air blocks; used by tests and chunk-data RLE sizing.
  std::uint32_t non_air_count() const { return non_air_; }

  /// Monotonic per-chunk edit counter; bumped by every set_local that
  /// changes a block and by every successful decode_rle. Lets sessions
  /// detect chunks that changed since sent.
  std::uint64_t revision() const { return revision_; }

  /// Run-length encodes the block array (id, count) pairs, column-major.
  /// This is the payload of ChunkData wire messages. The blob is cached and
  /// invalidated by block writes (set_local / a successful decode_rle), so
  /// streaming the same chunk to N subscribers — or replaying it on resync —
  /// runs RLE once, not N times. The reference stays valid until the next
  /// write.
  const std::vector<std::uint8_t>& encode_rle() const;

  /// Replaces contents from an RLE payload, working per run rather than per
  /// block. Returns false on malformed or wrong-size input: a size that is
  /// not a multiple of 4, a zero run, an id outside the palette, or runs
  /// that do not sum to kVolume. A rejected payload leaves the chunk exactly
  /// as it was (blocks, non_air_count, heights, revision and RLE cache).
  bool decode_rle(const std::uint8_t* data, std::size_t size);

  static constexpr std::size_t kVolume =
      static_cast<std::size_t>(kChunkSize) * kChunkSize * kWorldHeight;

 private:
  static constexpr std::size_t index(int x, int y, int z) {
    return (static_cast<std::size_t>(x) * kChunkSize + static_cast<std::size_t>(z)) *
               kWorldHeight +
           static_cast<std::size_t>(y);
  }
  void recompute_height(int x, int z);

  ChunkPos pos_;
  std::array<Block, kVolume> blocks_;
  std::array<std::int16_t, kChunkSize * kChunkSize> heightmap_;
  std::uint32_t non_air_ = 0;
  std::uint64_t revision_ = 0;
  mutable std::vector<std::uint8_t> rle_cache_;
  mutable bool rle_dirty_ = true;
};

}  // namespace dyconits::world
