// Unit tests for src/world: geometry, chunks, terrain, world store.
#include <gtest/gtest.h>

#include "util/rng.h"
#include "world/ascii_map.h"
#include "world/block.h"
#include "world/chunk.h"
#include "world/geometry.h"
#include "world/terrain.h"
#include "world/world.h"

namespace dyconits::world {
namespace {

// ---------------------------------------------------------------- geometry

TEST(GeometryTest, FloorDivModNegative) {
  EXPECT_EQ(floor_div(17, 16), 1);
  EXPECT_EQ(floor_div(-1, 16), -1);
  EXPECT_EQ(floor_div(-16, 16), -1);
  EXPECT_EQ(floor_div(-17, 16), -2);
  EXPECT_EQ(floor_mod(-1, 16), 15);
  EXPECT_EQ(floor_mod(-16, 16), 0);
  EXPECT_EQ(floor_mod(17, 16), 1);
}

TEST(GeometryTest, ChunkOfBlock) {
  EXPECT_EQ(ChunkPos::of_block({0, 0, 0}), (ChunkPos{0, 0}));
  EXPECT_EQ(ChunkPos::of_block({15, 0, 15}), (ChunkPos{0, 0}));
  EXPECT_EQ(ChunkPos::of_block({16, 0, 0}), (ChunkPos{1, 0}));
  EXPECT_EQ(ChunkPos::of_block({-1, 0, -1}), (ChunkPos{-1, -1}));
  EXPECT_EQ(ChunkPos::of_block({-16, 0, -17}), (ChunkPos{-1, -2}));
}

TEST(GeometryTest, ChunkOfVecMatchesBlock) {
  EXPECT_EQ(ChunkPos::of({-0.5, 10.0, 31.9}), ChunkPos::of_block({-1, 10, 31}));
}

TEST(GeometryTest, Chebyshev) {
  const ChunkPos a{0, 0};
  EXPECT_EQ(a.chebyshev({3, -4}), 4);
  EXPECT_EQ(a.chebyshev({0, 0}), 0);
  EXPECT_EQ((ChunkPos{-2, 5}).chebyshev({2, 5}), 4);
}

TEST(GeometryTest, KeyRoundtrip) {
  for (const ChunkPos p : {ChunkPos{0, 0}, ChunkPos{-1, 1}, ChunkPos{123456, -654321}}) {
    EXPECT_EQ(ChunkPos::from_key(p.key()), p);
  }
}

TEST(GeometryTest, Vec3Algebra) {
  const Vec3 a{1, 2, 3}, b{4, 6, 8};
  EXPECT_EQ((b - a), (Vec3{3, 4, 5}));
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).length(), 5.0);
  EXPECT_DOUBLE_EQ((Vec3{3, 100, 4}).horizontal_length(), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, a), 0.0);
  const Vec3 n = Vec3{0, 0, 9}.normalized();
  EXPECT_DOUBLE_EQ(n.z, 1.0);
  EXPECT_EQ((Vec3{}.normalized()), (Vec3{}));
}

TEST(GeometryTest, BlockPosFromVecFloors) {
  EXPECT_EQ(BlockPos::from({-0.1, 2.9, 5.0}), (BlockPos{-1, 2, 5}));
}

// ------------------------------------------------------------------- block

TEST(BlockTest, Properties) {
  EXPECT_FALSE(is_solid(Block::Air));
  EXPECT_FALSE(is_solid(Block::Water));
  EXPECT_TRUE(is_solid(Block::Stone));
  EXPECT_TRUE(is_breakable(Block::Stone));
  EXPECT_FALSE(is_breakable(Block::Bedrock));
  EXPECT_FALSE(is_breakable(Block::Air));
  EXPECT_STREQ(block_name(Block::Grass), "grass");
}

// ------------------------------------------------------------------- chunk

TEST(ChunkTest, StartsEmpty) {
  Chunk c({0, 0});
  EXPECT_EQ(c.non_air_count(), 0u);
  EXPECT_EQ(c.get_local(5, 5, 5), Block::Air);
  EXPECT_EQ(c.height_at(5, 5), -1);
  EXPECT_EQ(c.revision(), 0u);
}

TEST(ChunkTest, SetGetAndCounts) {
  Chunk c({0, 0});
  c.set_local(1, 2, 3, Block::Stone);
  EXPECT_EQ(c.get_local(1, 2, 3), Block::Stone);
  EXPECT_EQ(c.non_air_count(), 1u);
  c.set_local(1, 2, 3, Block::Dirt);  // replace, count unchanged
  EXPECT_EQ(c.non_air_count(), 1u);
  c.set_local(1, 2, 3, Block::Air);
  EXPECT_EQ(c.non_air_count(), 0u);
}

TEST(ChunkTest, SettingSameBlockDoesNotBumpRevision) {
  Chunk c({0, 0});
  c.set_local(0, 0, 0, Block::Stone);
  const auto rev = c.revision();
  c.set_local(0, 0, 0, Block::Stone);
  EXPECT_EQ(c.revision(), rev);
}

TEST(ChunkTest, HeightmapTracksTopBlock) {
  Chunk c({0, 0});
  c.set_local(4, 10, 4, Block::Stone);
  c.set_local(4, 20, 4, Block::Stone);
  EXPECT_EQ(c.height_at(4, 4), 20);
  c.set_local(4, 20, 4, Block::Air);  // removing the top re-scans downward
  EXPECT_EQ(c.height_at(4, 4), 10);
  c.set_local(4, 10, 4, Block::Air);
  EXPECT_EQ(c.height_at(4, 4), -1);
}

TEST(ChunkTest, RleRoundtrip) {
  Chunk c({2, -3});
  c.set_local(0, 0, 0, Block::Bedrock);
  c.set_local(5, 30, 7, Block::Planks);
  c.set_local(15, 63, 15, Block::Leaves);
  const auto rle = c.encode_rle();

  Chunk d({2, -3});
  ASSERT_TRUE(d.decode_rle(rle.data(), rle.size()));
  for (int x = 0; x < kChunkSize; ++x) {
    for (int z = 0; z < kChunkSize; ++z) {
      for (int y = 0; y < kWorldHeight; ++y) {
        ASSERT_EQ(d.get_local(x, y, z), c.get_local(x, y, z));
      }
    }
  }
  EXPECT_EQ(d.non_air_count(), c.non_air_count());
  EXPECT_EQ(d.height_at(5, 7), c.height_at(5, 7));
}

TEST(ChunkTest, RleRejectsMalformed) {
  Chunk c({0, 0});
  const auto good = c.encode_rle();
  EXPECT_FALSE(c.decode_rle(good.data(), good.size() - 1));  // not multiple of 4
  std::vector<std::uint8_t> zero_run = {0, 0, 0, 0};          // run length 0
  EXPECT_FALSE(c.decode_rle(zero_run.data(), zero_run.size()));
  std::vector<std::uint8_t> short_total = {1, 0, 5, 0};       // covers 5 of 16384
  EXPECT_FALSE(c.decode_rle(short_total.data(), short_total.size()));
  std::vector<std::uint8_t> bad_id = {0xFF, 0xFF, 0xFF, 0xFF};  // unknown block id
  EXPECT_FALSE(c.decode_rle(bad_id.data(), bad_id.size()));
}

TEST(ChunkTest, RleIsCompact) {
  Chunk c({0, 0});
  // Uniform chunk: a handful of runs, tiny payload.
  EXPECT_LT(c.encode_rle().size(), 16u);
}

TEST(ChunkTest, RleCachePointerStableWithoutWrites) {
  Chunk c({4, 4});
  c.set_local(3, 10, 4, Block::Stone);
  const std::vector<std::uint8_t>* first = &c.encode_rle();
  // No intervening write: the cached blob is returned, not re-encoded.
  EXPECT_EQ(&c.encode_rle(), first);
  EXPECT_EQ(&c.encode_rle(), first);
}

TEST(ChunkTest, RleCacheInvalidatedByBlockWrite) {
  Chunk c({4, 4});
  c.set_local(3, 10, 4, Block::Stone);
  const std::vector<std::uint8_t> before = c.encode_rle();
  c.set_local(3, 11, 4, Block::Planks);
  const std::vector<std::uint8_t>& after = c.encode_rle();
  EXPECT_NE(before, after);

  // The fresh blob round-trips the current contents.
  Chunk d({4, 4});
  ASSERT_TRUE(d.decode_rle(after.data(), after.size()));
  EXPECT_EQ(d.get_local(3, 11, 4), Block::Planks);
  EXPECT_EQ(d.get_local(3, 10, 4), Block::Stone);
}

TEST(ChunkTest, RleCacheInvalidatedByDecode) {
  Chunk src({0, 0});
  src.set_local(0, 5, 0, Block::Cobblestone);
  const std::vector<std::uint8_t> blob = src.encode_rle();

  Chunk c({0, 0});
  const std::vector<std::uint8_t> empty_blob = c.encode_rle();  // warm the cache
  ASSERT_TRUE(c.decode_rle(blob.data(), blob.size()));
  EXPECT_EQ(c.encode_rle(), blob);
  EXPECT_NE(c.encode_rle(), empty_blob);
}

TEST(ChunkTest, RleCacheInvalidatedByFailedDecode) {
  Chunk c({0, 0});
  c.set_local(1, 1, 1, Block::Stone);
  c.encode_rle();  // warm the cache
  std::vector<std::uint8_t> short_total = {1, 0, 5, 0};  // covers 5 of the volume
  EXPECT_FALSE(c.decode_rle(short_total.data(), short_total.size()));
  // Contents are unspecified after a failed decode, but the cache must track
  // them: whatever encode_rle returns now round-trips the current blocks.
  const std::vector<std::uint8_t>& after = c.encode_rle();
  Chunk copy({0, 0});
  ASSERT_TRUE(copy.decode_rle(after.data(), after.size()));
  for (int x = 0; x < kChunkSize; ++x) {
    for (int z = 0; z < kChunkSize; ++z) {
      for (int y = 0; y < kWorldHeight; ++y) {
        ASSERT_EQ(copy.get_local(x, y, z), c.get_local(x, y, z));
      }
    }
  }
}

// ------------------------------------------ decode_rle vs per-block reference

/// The per-block decoder that decode_rle replaced, kept as the oracle: it
/// writes every block of every run, then recounts the whole volume and
/// scans each column from the top.
struct ReferenceDecode {
  std::vector<Block> blocks = std::vector<Block>(Chunk::kVolume, Block::Air);
  std::uint32_t non_air = 0;
  std::array<int, kChunkSize * kChunkSize> heights{};

  bool decode(const std::vector<std::uint8_t>& rle) {
    if (rle.size() % 4 != 0) return false;
    std::size_t i = 0;
    for (std::size_t off = 0; off < rle.size(); off += 4) {
      const auto id = static_cast<std::uint16_t>(rle[off] | (rle[off + 1] << 8));
      const auto run = static_cast<std::size_t>(rle[off + 2] | (rle[off + 3] << 8));
      if (run == 0 || i + run > Chunk::kVolume || id >= kBlockPaletteSize) return false;
      for (std::size_t k = 0; k < run; ++k) blocks[i + k] = static_cast<Block>(id);
      i += run;
    }
    if (i != Chunk::kVolume) return false;
    non_air = 0;
    for (const Block b : blocks) {
      if (b != Block::Air) ++non_air;
    }
    for (std::size_t col = 0; col < heights.size(); ++col) {
      heights[col] = -1;
      for (int y = kWorldHeight - 1; y >= 0; --y) {
        if (blocks[col * kWorldHeight + static_cast<std::size_t>(y)] != Block::Air) {
          heights[col] = y;
          break;
        }
      }
    }
    return true;
  }
};

/// Appends one (id, count) run to an RLE blob.
void push_run(std::vector<std::uint8_t>& rle, Block b, std::size_t count) {
  const auto id = static_cast<std::uint16_t>(b);
  rle.push_back(static_cast<std::uint8_t>(id & 0xFF));
  rle.push_back(static_cast<std::uint8_t>(id >> 8));
  rle.push_back(static_cast<std::uint8_t>(count & 0xFF));
  rle.push_back(static_cast<std::uint8_t>(count >> 8));
}

/// Every observable fact about a chunk, the RLE cache included.
struct ChunkState {
  std::vector<Block> blocks;
  std::uint32_t non_air = 0;
  std::vector<int> heights;
  std::uint64_t revision = 0;
  const std::vector<std::uint8_t>* rle_ref = nullptr;
  const std::uint8_t* rle_data = nullptr;
  std::vector<std::uint8_t> rle_bytes;

  explicit ChunkState(const Chunk& c)
      : non_air(c.non_air_count()),
        revision(c.revision()),
        rle_ref(&c.encode_rle()),
        rle_data(c.encode_rle().data()),
        rle_bytes(c.encode_rle()) {
    for (int x = 0; x < kChunkSize; ++x) {
      for (int z = 0; z < kChunkSize; ++z) {
        heights.push_back(c.height_at(x, z));
        for (int y = 0; y < kWorldHeight; ++y) blocks.push_back(c.get_local(x, y, z));
      }
    }
  }
  bool operator==(const ChunkState&) const = default;
};

/// A chunk whose contents and derived state differ from every decode input
/// below: each column holds stone at y=0 and leaves at y=63, so a decode
/// that forgets to reset a height or a count shows. The RLE cache is warm.
Chunk prefilled_chunk() {
  Chunk c({9, 9});
  for (int x = 0; x < kChunkSize; ++x) {
    for (int z = 0; z < kChunkSize; ++z) {
      c.set_local(x, 0, z, Block::Stone);
      c.set_local(x, kWorldHeight - 1, z, Block::Leaves);
    }
  }
  c.encode_rle();
  return c;
}

/// Decodes `rle` into a pre-filled chunk and checks blocks, non_air_count,
/// all 256 heights and the revision bump against the reference decoder,
/// then checks that encode_rle gives the same bytes back.
void expect_decode_matches_reference(const std::vector<std::uint8_t>& rle) {
  ReferenceDecode ref;
  ASSERT_TRUE(ref.decode(rle));
  Chunk c = prefilled_chunk();
  const std::uint64_t rev = c.revision();
  ASSERT_TRUE(c.decode_rle(rle.data(), rle.size()));
  EXPECT_EQ(c.revision(), rev + 1);
  EXPECT_EQ(c.non_air_count(), ref.non_air);
  std::size_t mismatched_blocks = 0;
  for (int x = 0; x < kChunkSize; ++x) {
    for (int z = 0; z < kChunkSize; ++z) {
      const std::size_t col = static_cast<std::size_t>(x * kChunkSize + z);
      EXPECT_EQ(c.height_at(x, z), ref.heights[col]) << "x=" << x << " z=" << z;
      for (int y = 0; y < kWorldHeight; ++y) {
        if (c.get_local(x, y, z) != ref.blocks[col * kWorldHeight + static_cast<std::size_t>(y)]) {
          ++mismatched_blocks;
        }
      }
    }
  }
  EXPECT_EQ(mismatched_blocks, 0u);
  EXPECT_EQ(c.encode_rle(), rle);
}

TEST(ChunkDecodeTest, TerrainAreaMatchesReference) {
  const TerrainGenerator g(2021);
  for (int cx = -8; cx < 8; ++cx) {
    for (int cz = -8; cz < 8; ++cz) {
      SCOPED_TRACE(testing::Message() << "chunk " << cx << "," << cz);
      Chunk c({cx, cz});
      g.generate(c);
      expect_decode_matches_reference(c.encode_rle());
    }
  }
}

TEST(ChunkDecodeTest, RandomEditsMatchReference) {
  const TerrainGenerator g(7);
  Rng rng(0xDEC0DEull);
  for (int k = 0; k < 200; ++k) {
    SCOPED_TRACE(testing::Message() << "chunk " << k);
    Chunk c({k, -k});
    if (k % 2 == 0) g.generate(c);  // odd chunks start empty
    if (k == 100) {  // fully solid: a random non-air block everywhere
      for (int x = 0; x < kChunkSize; ++x) {
        for (int z = 0; z < kChunkSize; ++z) {
          for (int y = 0; y < kWorldHeight; ++y) {
            c.set_local(x, y, z, static_cast<Block>(1 + rng.next_below(kBlockPaletteSize - 1)));
          }
        }
      }
      ASSERT_EQ(c.non_air_count(), Chunk::kVolume);
      expect_decode_matches_reference(c.encode_rle());
      continue;
    }
    const std::uint64_t edits = 20 + rng.next_below(200);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const int x = static_cast<int>(rng.next_below(kChunkSize));
      const int z = static_cast<int>(rng.next_below(kChunkSize));
      int y = static_cast<int>(rng.next_below(kWorldHeight));
      if (e % 5 == 0) y = 0;
      if (e % 5 == 1) y = kWorldHeight - 1;
      c.set_local(x, y, z, static_cast<Block>(rng.next_below(kBlockPaletteSize)));
    }
    if (k % 3 == 0) {  // empty a few whole columns
      for (int n = 0; n < 4; ++n) {
        const int x = static_cast<int>(rng.next_below(kChunkSize));
        const int z = static_cast<int>(rng.next_below(kChunkSize));
        for (int y = 0; y < kWorldHeight; ++y) c.set_local(x, y, z, Block::Air);
      }
    }
    expect_decode_matches_reference(c.encode_rle());
  }
}

TEST(ChunkDecodeTest, SingleFullVolumeRun) {
  for (const Block b : {Block::Stone, Block::Air}) {
    SCOPED_TRACE(block_name(b));
    std::vector<std::uint8_t> rle;
    push_run(rle, b, Chunk::kVolume);
    expect_decode_matches_reference(rle);
  }
}

TEST(ChunkDecodeTest, AlternatingOneBlockRuns) {
  std::vector<std::uint8_t> rle;
  for (std::size_t i = 0; i < Chunk::kVolume; ++i) {
    push_run(rle, i % 2 == 0 ? Block::Stone : Block::Air, 1);
  }
  ASSERT_EQ(rle.size(), 4 * Chunk::kVolume);  // the 64 KB worst case
  expect_decode_matches_reference(rle);
}

TEST(ChunkDecodeTest, RunSpanningWholeColumns) {
  // Column-major indices: column = index / 64, y = index % 64.
  std::vector<std::uint8_t> rle;
  push_run(rle, Block::Air, 100);      // column 0, and column 1 below y=36
  push_run(rle, Block::Stone, 330);    // y=36 of column 1 .. y=45 of column 6
  push_run(rle, Block::Air, 5);
  push_run(rle, Block::Dirt, 3);       // a later run in column 6 tops it at y=53
  push_run(rle, Block::Air, 74);       // the rest of column 6 and all of column 7
  push_run(rle, Block::Water, 3 * kWorldHeight);  // exactly columns 8..10
  push_run(rle, Block::Air, Chunk::kVolume - 704);
  expect_decode_matches_reference(rle);

  Chunk c = prefilled_chunk();
  ASSERT_TRUE(c.decode_rle(rle.data(), rle.size()));
  EXPECT_EQ(c.height_at(0, 0), -1);
  for (int col = 1; col <= 5; ++col) EXPECT_EQ(c.height_at(0, col), kWorldHeight - 1);
  EXPECT_EQ(c.height_at(0, 6), 53);
  EXPECT_EQ(c.height_at(0, 7), -1);
  for (int col = 8; col <= 10; ++col) EXPECT_EQ(c.height_at(0, col), kWorldHeight - 1);
  EXPECT_EQ(c.height_at(0, 11), -1);
  EXPECT_EQ(c.non_air_count(), 330u + 3u + 3u * kWorldHeight);
}

TEST(ChunkDecodeTest, RejectedPayloadLeavesChunkUnchanged) {
  Chunk terrain({3, 3});
  TerrainGenerator(11).generate(terrain);
  const std::vector<std::uint8_t> good = terrain.encode_rle();
  ASSERT_GT(good.size(), 400u);

  std::vector<std::pair<const char*, std::vector<std::uint8_t>>> bad;
  bad.emplace_back("size not a multiple of 4",
                   std::vector<std::uint8_t>(good.begin(), good.end() - 1));
  {
    auto v = good;
    v.push_back(0);
    v.push_back(0);
    bad.emplace_back("two trailing bytes", v);
  }
  {
    std::vector<std::uint8_t> v;
    push_run(v, Block::Stone, 0);
    v.insert(v.end(), good.begin(), good.end());
    bad.emplace_back("zero run first", v);
  }
  {
    std::vector<std::uint8_t> v = {kBlockPaletteSize, 0, 0x00, 0x40};
    bad.emplace_back("id just past the palette", v);
    bad.emplace_back("id 0xFFFF", std::vector<std::uint8_t>{0xFF, 0xFF, 0x00, 0x40});
  }
  bad.emplace_back("empty payload", std::vector<std::uint8_t>{});
  bad.emplace_back("short total: last run dropped",
                   std::vector<std::uint8_t>(good.begin(), good.end() - 4));
  {
    auto v = good;
    push_run(v, Block::Stone, 1);
    bad.emplace_back("long total: one block too many", v);
  }
  {
    std::vector<std::uint8_t> v;
    push_run(v, Block::Stone, 0xFFFF);
    bad.emplace_back("long total: one run past the volume", v);
  }
  {
    auto v = good;
    v[v.size() - 4] = 0xFF;  // last run's id
    bad.emplace_back("valid prefix then a bad id", v);
  }
  {
    auto v = good;
    v[v.size() - 2] = 0;  // last run's count
    v[v.size() - 1] = 0;
    bad.emplace_back("valid prefix then a zero run", v);
  }

  for (const auto& [what, rle] : bad) {
    SCOPED_TRACE(what);
    Chunk c = prefilled_chunk();
    const ChunkState before(c);
    EXPECT_FALSE(c.decode_rle(rle.data(), rle.size()));
    EXPECT_TRUE(ChunkState(c) == before);
  }

  // The same chunk still accepts the good payload afterwards.
  Chunk c = prefilled_chunk();
  for (const auto& [what, rle] : bad) c.decode_rle(rle.data(), rle.size());
  ASSERT_TRUE(c.decode_rle(good.data(), good.size()));
  EXPECT_EQ(c.encode_rle(), good);
  EXPECT_EQ(c.non_air_count(), terrain.non_air_count());
}

// ----------------------------------------------------------------- terrain

TEST(TerrainTest, DeterministicForSeed) {
  const TerrainGenerator a(99), b(99);
  for (int i = -50; i < 50; i += 7) {
    EXPECT_EQ(a.height_at(i, -i * 3), b.height_at(i, -i * 3));
  }
}

TEST(TerrainTest, DifferentSeedsDiffer) {
  const TerrainGenerator a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 64; ++i) diff += a.height_at(i * 13, i * 7) != b.height_at(i * 13, i * 7);
  EXPECT_GT(diff, 10);
}

TEST(TerrainTest, HeightsWithinBounds) {
  const TerrainGenerator g(5);
  for (int x = -100; x <= 100; x += 13) {
    for (int z = -100; z <= 100; z += 17) {
      const int h = g.height_at(x, z);
      EXPECT_GE(h, 1);
      EXPECT_LT(h, kWorldHeight - 9);
    }
  }
}

TEST(TerrainTest, GeneratedChunkStructure) {
  const TerrainGenerator g(5);
  Chunk c({3, 4});
  g.generate(c);
  for (int x = 0; x < kChunkSize; ++x) {
    for (int z = 0; z < kChunkSize; ++z) {
      EXPECT_EQ(c.get_local(x, 0, z), Block::Bedrock);
      const int h = c.height_at(x, z);
      EXPECT_GE(h, TerrainGenerator::kSeaLevel - 25);
      // Below-ground is never air down to bedrock.
      const int ground = g.height_at(3 * kChunkSize + x, 4 * kChunkSize + z);
      for (int y = 1; y < ground; ++y) {
        EXPECT_NE(c.get_local(x, y, z), Block::Air) << x << "," << y << "," << z;
      }
    }
  }
}

TEST(TerrainTest, WaterFillsToSeaLevel) {
  const TerrainGenerator g(123);
  // Find a below-sea column and verify water above ground up to sea level.
  for (int x = 0; x < 512; x += 4) {
    const int h = g.height_at(x, x);
    if (h < TerrainGenerator::kSeaLevel) {
      const ChunkPos cp = ChunkPos::of_block({x, 0, x});
      Chunk c(cp);
      g.generate(c);
      const int lx = floor_mod(x, kChunkSize), lz = floor_mod(x, kChunkSize);
      EXPECT_EQ(c.get_local(lx, TerrainGenerator::kSeaLevel, lz), Block::Water);
      return;
    }
  }
  GTEST_SKIP() << "no ocean found along the diagonal for this seed";
}

// ------------------------------------------------------------------- world

TEST(WorldTest, GeneratesOnDemand) {
  World w(std::make_unique<TerrainGenerator>(7));
  EXPECT_EQ(w.loaded_chunk_count(), 0u);
  w.block_at({100, 10, 100});
  EXPECT_EQ(w.loaded_chunk_count(), 1u);
  EXPECT_TRUE(w.is_loaded(ChunkPos::of_block({100, 10, 100})));
}

TEST(WorldTest, FlatWorldWithoutGenerator) {
  World w;
  EXPECT_EQ(w.block_at({3, 0, 3}), Block::Bedrock);
  EXPECT_EQ(w.block_at({3, 1, 3}), Block::Air);
  EXPECT_EQ(w.surface_height(3, 3), 0);
}

TEST(WorldTest, SetBlockAndObserver) {
  World w;
  std::vector<BlockChange> seen;
  w.add_block_observer([&](const BlockChange& c) { seen.push_back(c); });

  EXPECT_TRUE(w.set_block({1, 5, 1}, Block::Stone));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].pos, (BlockPos{1, 5, 1}));
  EXPECT_EQ(seen[0].old_block, Block::Air);
  EXPECT_EQ(seen[0].new_block, Block::Stone);

  // No-op set does not notify.
  EXPECT_TRUE(w.set_block({1, 5, 1}, Block::Stone));
  EXPECT_EQ(seen.size(), 1u);
}

TEST(WorldTest, SetBlockRejectsOutOfRangeY) {
  World w;
  EXPECT_FALSE(w.set_block({0, -1, 0}, Block::Stone));
  EXPECT_FALSE(w.set_block({0, kWorldHeight, 0}, Block::Stone));
  EXPECT_EQ(w.block_at({0, -1, 0}), Block::Air);
  EXPECT_EQ(w.block_at({0, kWorldHeight + 5, 0}), Block::Air);
}

TEST(WorldTest, BlockIfLoadedDoesNotGenerate) {
  World w(std::make_unique<TerrainGenerator>(7));
  EXPECT_FALSE(w.block_if_loaded({50, 10, 50}).has_value());
  EXPECT_EQ(w.loaded_chunk_count(), 0u);
  w.block_at({50, 10, 50});
  EXPECT_TRUE(w.block_if_loaded({50, 10, 50}).has_value());
}

TEST(WorldTest, UnloadChunk) {
  World w;
  w.set_block({0, 3, 0}, Block::Stone);
  EXPECT_TRUE(w.unload_chunk({0, 0}));
  EXPECT_FALSE(w.unload_chunk({0, 0}));
  EXPECT_EQ(w.block_at({0, 3, 0}), Block::Air);  // regenerated flat
}

TEST(WorldTest, SpawnPositionIsAboveGround) {
  World w(std::make_unique<TerrainGenerator>(7));
  const Vec3 s = w.spawn_position(10, 10);
  const int ground = w.surface_height(10, 10);
  EXPECT_DOUBLE_EQ(s.y, ground + 1);
  EXPECT_FALSE(is_solid(w.block_at(BlockPos::from(s))));
}

TEST(AsciiMapTest, RendersBlocksOverlaysAndVoid) {
  World w;  // flat bedrock floor
  w.set_block({0, 1, 0}, Block::Planks);
  w.set_block({2, 1, 0}, Block::Water);
  // Window fully inside chunk (0,0): x,z in [0,4].
  const std::string map =
      render_ascii_map(w, {2.5, 2, 2.5}, 2, {{{4.5, 2, 4.5}, '@'}});
  // 5 rows of 5 + newlines.
  ASSERT_EQ(map.size(), 5u * 6u);
  const auto at = [&](int row, int col) { return map[row * 6 + col]; };
  EXPECT_EQ(at(0, 0), '#');  // planks at (0, z=0) -> top-left
  EXPECT_EQ(at(0, 2), '~');  // water at (2, 0)
  EXPECT_EQ(at(4, 4), '@');  // overlay at (4, 4)
  EXPECT_EQ(at(2, 2), '_');  // bare bedrock at center
}

TEST(AsciiMapTest, UnloadedChunksRenderBlank) {
  World w(std::make_unique<TerrainGenerator>(7));
  w.chunk_at({0, 0});  // only one chunk loaded
  const std::string map = render_ascii_map(w, {8.5, 30, 8.5}, 20);
  EXPECT_NE(map.find(' '), std::string::npos);   // void present
  EXPECT_NE(map.find_first_not_of(" \n"), std::string::npos);  // terrain present
}

TEST(WorldTest, NegativeCoordinatesConsistent) {
  World w(std::make_unique<TerrainGenerator>(7));
  w.set_block({-5, 30, -5}, Block::Planks);
  EXPECT_EQ(w.block_at({-5, 30, -5}), Block::Planks);
  const Chunk* c = w.find_chunk({-1, -1});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->get_local(11, 30, 11), Block::Planks);
}

}  // namespace
}  // namespace dyconits::world
