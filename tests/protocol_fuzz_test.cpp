// Structure-aware protocol fuzzing (seeded, deterministic): every message
// type is encoded, then mutated — truncation, bit flips, length-field
// corruption, tag swaps — and fed to decode(). The contract under test:
// decode() returns nullopt for malformed input and NEVER crashes,
// over-reads, or loops. Every ChunkData that survives decode() then goes
// through Chunk::decode_rle, the next parser on the socket path: a rejected
// payload must leave the chunk unchanged and an accepted one must leave its
// derived state consistent (scripts/verify.sh runs this under ASan+UBSan
// with DYCONITS_FUZZ_ITERS=100000).
#include <gtest/gtest.h>

#include <cstdlib>

#include "protocol/codec.h"
#include "util/rng.h"
#include "world/chunk.h"
#include "world/terrain.h"

namespace dyconits::protocol {
namespace {

std::uint64_t fuzz_iters(std::uint64_t def) {
  const char* env = std::getenv("DYCONITS_FUZZ_ITERS");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : def;
}

/// One representative of every wire message, with non-trivial payloads so
/// strings, blobs, and batch length fields are all present to corrupt.
std::vector<AnyMessage> corpus() {
  std::vector<AnyMessage> msgs;
  msgs.push_back(JoinRequest{"fuzz-bot-with-a-longish-name"});
  msgs.push_back(PlayerMove{{1.5, 64.0, -3.25}, 90.0f, -10.0f});
  msgs.push_back(PlayerDig{{10, 60, -20}});
  msgs.push_back(PlayerPlace{{-5, 70, 5}, world::Block::Stone});
  msgs.push_back(KeepAliveReply{0xDEADBEEF});
  msgs.push_back(ChatSend{"hello chaos"});
  msgs.push_back(ResyncRequest{123456});
  msgs.push_back(JoinAck{42, {0.5, 65.0, 0.5}, 8});
  {
    world::Chunk terrain({3, -4});
    world::TerrainGenerator(0xF022ull).generate(terrain);
    msgs.push_back(ChunkData{terrain.pos(), terrain.encode_rle()});
  }
  msgs.push_back(UnloadChunk{{-7, 9}});
  msgs.push_back(BlockChange{{100, 40, 100}, world::Block::Dirt});
  {
    MultiBlockChange mbc;
    mbc.chunk = {1, 2};
    for (int i = 0; i < 30; ++i) {
      mbc.entries.push_back({static_cast<std::uint8_t>(i % 16),
                             static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i % 16),
                             world::Block::Stone});
    }
    msgs.push_back(std::move(mbc));
  }
  msgs.push_back(EntitySpawn{7, entity::EntityKind::Player, {1, 2, 3}, 0, 0, "steve", 0});
  msgs.push_back(EntityDespawn{7});
  msgs.push_back(EntityMove{7, {4, 5, 6}, 180.0f, 45.0f});
  {
    EntityMoveBatch batch;
    for (int i = 0; i < 25; ++i) {
      batch.moves.push_back({static_cast<entity::EntityId>(i), {1.0 * i, 64, 2.0 * i}, 0, 0});
    }
    msgs.push_back(std::move(batch));
  }
  msgs.push_back(KeepAlive{77});
  msgs.push_back(ChatBroadcast{9, "a broadcast line"});
  msgs.push_back(InventoryUpdate{world::Block::Wood, 31});
  msgs.push_back(ResyncAck{5});
  return msgs;
}

/// The chunk every surviving ChunkData payload is decoded into: stone at
/// y=0 and leaves at y=63 in every column, which no corpus payload
/// encodes, with a warm RLE cache.
const world::Chunk& prefilled_chunk() {
  static const world::Chunk chunk = [] {
    world::Chunk c({0, 0});
    for (int x = 0; x < world::kChunkSize; ++x) {
      for (int z = 0; z < world::kChunkSize; ++z) {
        c.set_local(x, 0, z, world::Block::Stone);
        c.set_local(x, world::kWorldHeight - 1, z, world::Block::Leaves);
      }
    }
    c.encode_rle();
    return c;
  }();
  return chunk;
}

/// RLE payloads decode_rle accepted and rejected, for the sweeps' sanity checks.
struct RleTally {
  std::uint64_t accepted = 0, rejected = 0;
};
RleTally rle_tally;

/// Decodes a ChunkData payload into a copy of the pre-filled chunk. A
/// rejected payload must leave blocks, revision and the RLE cache as they
/// were; either way non_air_count and every height must equal what a full
/// scan of the blocks finds.
void check_chunk_decode(const std::vector<std::uint8_t>& rle) {
  const world::Chunk& before = prefilled_chunk();
  world::Chunk c = before;
  const bool accepted = c.decode_rle(rle.data(), rle.size());
  ++(accepted ? rle_tally.accepted : rle_tally.rejected);
  EXPECT_EQ(c.revision(), before.revision() + (accepted ? 1 : 0));
  std::uint32_t non_air = 0;
  bool blocks_kept = true;
  for (int x = 0; x < world::kChunkSize; ++x) {
    for (int z = 0; z < world::kChunkSize; ++z) {
      int top = -1;
      for (int y = 0; y < world::kWorldHeight; ++y) {
        const world::Block b = c.get_local(x, y, z);
        if (b != world::Block::Air) {
          ++non_air;
          top = y;
        }
        blocks_kept = blocks_kept && b == before.get_local(x, y, z);
      }
      ASSERT_EQ(c.height_at(x, z), top) << "x=" << x << " z=" << z;
    }
  }
  EXPECT_EQ(c.non_air_count(), non_air);
  if (!accepted) {
    EXPECT_TRUE(blocks_kept);
    EXPECT_EQ(c.encode_rle(), before.encode_rle());
  }
}

/// decode() must either reject the frame or produce a message that
/// re-encodes cleanly — never crash. Returns true if it decoded.
bool decode_must_not_crash(const net::Frame& frame) {
  const auto decoded = decode(frame);
  if (!decoded.has_value()) return false;
  // Whatever survived decoding must be internally consistent enough to
  // round-trip: encode() on it must not blow up either.
  const net::Frame re = encode(*decoded);
  EXPECT_EQ(re.tag, static_cast<std::uint8_t>(type_of(*decoded)));
  if (const auto* cd = std::get_if<ChunkData>(&*decoded)) check_chunk_decode(cd->rle);
  return true;
}

TEST(ProtocolFuzz, CleanRoundtripBaseline) {
  for (const auto& msg : corpus()) {
    const net::Frame f = encode(msg);
    const auto decoded = decode(f);
    ASSERT_TRUE(decoded.has_value()) << message_type_name(type_of(msg));
    EXPECT_EQ(decoded->index(), msg.index());
  }
  // The corpus chunk payload is a real terrain chunk that decode_rle accepts.
  rle_tally = {};
  for (const auto& msg : corpus()) decode_must_not_crash(encode(msg));
  EXPECT_EQ(rle_tally.accepted, 1u);
  EXPECT_EQ(rle_tally.rejected, 0u);
}

TEST(ProtocolFuzz, TruncationAtEveryLength) {
  // Exhaustive, not random: every prefix of every message must be rejected
  // or decode to something re-encodable (empty-payload types aside).
  for (const auto& msg : corpus()) {
    const net::Frame full = encode(msg);
    for (std::size_t len = 0; len < full.payload.size(); ++len) {
      net::Frame cut = full;
      cut.payload.resize(len);
      decode_must_not_crash(cut);
    }
  }
}

TEST(ProtocolFuzz, SeededMutationSweep) {
  const auto msgs = corpus();
  Rng rng(0xF022EEDull);
  const std::uint64_t iters = fuzz_iters(20000);
  std::uint64_t rejected = 0, survived = 0;
  rle_tally = {};
  for (std::uint64_t i = 0; i < iters; ++i) {
    net::Frame f = encode(msgs[rng.next_below(msgs.size())]);
    switch (rng.next_below(4)) {
      case 0: {  // bit flips anywhere in the payload
        if (f.payload.empty()) break;
        const std::uint64_t flips = 1 + rng.next_below(8);
        for (std::uint64_t k = 0; k < flips; ++k) {
          f.payload[rng.next_below(f.payload.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1: {  // truncate to a random length
        if (f.payload.empty()) break;
        f.payload.resize(rng.next_below(f.payload.size()));
        break;
      }
      case 2: {  // corrupt the leading bytes — varint length fields live
                 // there, so hostile length claims get exercised hard
        const std::size_t n = std::min<std::size_t>(f.payload.size(), 4);
        for (std::size_t k = 0; k < n; ++k) {
          f.payload[k] = static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      }
      case 3:  // random (possibly unknown) tag over a valid body
        f.tag = static_cast<std::uint8_t>(rng.next_below(net::kMaxTags));
        break;
    }
    if (decode_must_not_crash(f)) {
      ++survived;
    } else {
      ++rejected;
    }
  }
  // Sanity: the mutator is actually producing garbage, and some mutations
  // are survivable (bit flips in f32 fields decode fine).
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(survived, 0u);
  // Mutated chunk payloads reach decode_rle, and both of its outcomes occur.
  EXPECT_GT(rle_tally.accepted, 0u);
  EXPECT_GT(rle_tally.rejected, 0u);
}

TEST(ProtocolFuzz, PureRandomPayloads) {
  Rng rng(0xBADF00Dull);
  const std::uint64_t iters = fuzz_iters(20000) / 2;
  for (std::uint64_t i = 0; i < iters; ++i) {
    net::Frame f;
    f.tag = static_cast<std::uint8_t>(rng.next_below(net::kMaxTags));
    f.payload.resize(rng.next_below(256));
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.next_below(256));
    decode_must_not_crash(f);
  }
}

TEST(ProtocolFuzz, HostileLengthClaimsDoNotAllocate) {
  // A batch header claiming millions of entries backed by no bytes must be
  // rejected up front (reserve clamps), not die trying to allocate.
  for (const std::uint8_t tag : {static_cast<std::uint8_t>(MessageType::MultiBlockChange),
                                 static_cast<std::uint8_t>(MessageType::EntityMoveBatch),
                                 static_cast<std::uint8_t>(MessageType::ChunkData)}) {
    net::Frame f;
    f.tag = tag;
    // chunk pos (two svarints) then a huge count varint.
    f.payload = {0x02, 0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
    EXPECT_FALSE(decode(f).has_value()) << static_cast<int>(tag);
  }
}

}  // namespace
}  // namespace dyconits::protocol
