#include "world/chunk.h"

#include <algorithm>

namespace dyconits::world {

Chunk::Chunk(ChunkPos pos) : pos_(pos) {
  blocks_.fill(Block::Air);
  heightmap_.fill(-1);
}

void Chunk::set_local(int x, int y, int z, Block b) {
  Block& slot = blocks_[index(x, y, z)];
  if (slot == b) return;
  const bool was_air = slot == Block::Air;
  const bool is_air = b == Block::Air;
  slot = b;
  if (was_air && !is_air) ++non_air_;
  if (!was_air && is_air) --non_air_;
  ++revision_;
  rle_dirty_ = true;

  const int h = heightmap_[x * kChunkSize + z];
  if (!is_air && y > h) {
    heightmap_[x * kChunkSize + z] = static_cast<std::int16_t>(y);
  } else if (is_air && y == h) {
    recompute_height(x, z);
  }
}

void Chunk::recompute_height(int x, int z) {
  for (int y = kWorldHeight - 1; y >= 0; --y) {
    if (blocks_[index(x, y, z)] != Block::Air) {
      heightmap_[x * kChunkSize + z] = static_cast<std::int16_t>(y);
      return;
    }
  }
  heightmap_[x * kChunkSize + z] = -1;
}

const std::vector<std::uint8_t>& Chunk::encode_rle() const {
  if (!rle_dirty_) return rle_cache_;
  std::vector<std::uint8_t>& out = rle_cache_;
  out.clear();
  out.reserve(1024);
  std::size_t i = 0;
  while (i < kVolume) {
    const Block b = blocks_[i];
    std::size_t run = 1;
    while (i + run < kVolume && blocks_[i + run] == b && run < 0xFFFF) ++run;
    const auto id = static_cast<std::uint16_t>(b);
    out.push_back(static_cast<std::uint8_t>(id & 0xFF));
    out.push_back(static_cast<std::uint8_t>(id >> 8));
    out.push_back(static_cast<std::uint8_t>(run & 0xFF));
    out.push_back(static_cast<std::uint8_t>(run >> 8));
    i += run;
  }
  rle_dirty_ = false;
  return out;
}

namespace {

std::uint16_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

bool Chunk::decode_rle(const std::uint8_t* data, std::size_t size) {
  // Validate the whole payload before writing anything, so a rejected
  // snapshot leaves blocks, derived state, revision and RLE cache untouched.
  if (size % 4 != 0) return false;
  std::size_t total = 0;
  for (std::size_t off = 0; off < size; off += 4) {
    const std::uint16_t run = read_u16(data + off + 2);
    if (run == 0 || read_u16(data + off) >= kBlockPaletteSize) return false;
    total += run;
  }
  if (total != kVolume) return false;

  // Write run by run and derive the rest from the runs. Indices are
  // column-major, so index / kWorldHeight is the heightmap slot and
  // index % kWorldHeight is y. A non-air run tops every column it leaves
  // at kWorldHeight - 1 and its last column at its last y; runs ascend,
  // so a column's last non-air run sets its height.
  heightmap_.fill(-1);
  non_air_ = 0;
  std::size_t i = 0;
  for (std::size_t off = 0; off < size; off += 4) {
    const auto b = static_cast<Block>(read_u16(data + off));
    const std::size_t run = read_u16(data + off + 2);
    if (run == 1) {  // the 64 KB worst case is all one-block runs: skip fill_n set-up
      blocks_[i] = b;
    } else {
      std::fill_n(blocks_.data() + i, run, b);
    }
    if (b != Block::Air) {
      non_air_ += static_cast<std::uint32_t>(run);
      const std::size_t last = i + run - 1;
      const std::size_t last_col = last / kWorldHeight;
      std::fill(heightmap_.data() + i / kWorldHeight, heightmap_.data() + last_col,
                static_cast<std::int16_t>(kWorldHeight - 1));
      heightmap_[last_col] = static_cast<std::int16_t>(last % kWorldHeight);
    }
    i += run;
  }
  ++revision_;
  rle_dirty_ = true;
  return true;
}

}  // namespace dyconits::world
