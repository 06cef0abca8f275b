// Structure-aware protocol fuzzing (seeded, deterministic): every message
// type is encoded, then mutated — truncation, bit flips, length-field
// corruption, tag swaps — and fed to decode(). The contract under test:
// decode() returns nullopt for malformed input and NEVER crashes,
// over-reads, or loops. Every ChunkData that survives decode() then goes
// through Chunk::decode_rle, the next parser on the socket path: a rejected
// payload must leave the chunk unchanged and an accepted one must leave its
// derived state consistent. Below decode() sit the datagram parsers, swept
// the same way: udpwire::parse_frames over Data bodies and
// udpwire::Reassembler::feed over Fragment bodies (scripts/verify.sh runs
// this under ASan+UBSan with DYCONITS_FUZZ_ITERS=100000).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <utility>

#include "net/bytes.h"
#include "net/udp_framing.h"
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

// --------------------------------------------------------------- datagrams

using net::udpwire::Reassembler;

/// Small enough that the corpus chunk spans dozens of fragments.
constexpr std::size_t kFuzzMtu = 128;
/// The msg_id of the clean message fed after hostile input. Hostile
/// fragments claiming it are skipped: a peer that squats on a live msg_id
/// can always spoil that one message, and that is not what is under test.
constexpr std::uint64_t kCleanMsgId = 0x5EED;

/// A Data datagram body carrying every corpus message but the chunk (the
/// bulky one is the fragmented message), one sequenced frame each.
std::vector<std::uint8_t> data_body() {
  std::vector<std::uint8_t> body;
  std::uint32_t seq = 1;
  for (const auto& msg : corpus()) {
    if (std::holds_alternative<ChunkData>(msg)) continue;
    net::Frame f = encode(msg);
    f.seq = seq++;
    net::udpwire::append_frame(body, f);
  }
  return body;
}

/// The corpus chunk as one sequenced frame.
net::Frame chunk_frame() {
  for (const auto& msg : corpus()) {
    if (!std::holds_alternative<ChunkData>(msg)) continue;
    net::Frame f = encode(msg);
    f.seq = 0xABCDE;
    return f;
  }
  return {};
}

/// Fragment bodies (kind byte stripped, as Reassembler::feed takes them).
std::vector<std::vector<std::uint8_t>> fragment_bodies(const net::Frame& f,
                                                       std::uint32_t msg_id) {
  auto datagrams = net::udpwire::fragment_frame(f, kFuzzMtu, msg_id);
  for (auto& d : datagrams) d.erase(d.begin());
  return datagrams;
}

/// A Fragment body with an arbitrary header over `chunk`.
std::vector<std::uint8_t> fragment_body(std::uint64_t msg_id, std::uint64_t index,
                                        std::uint64_t count,
                                        const std::vector<std::uint8_t>& chunk) {
  net::ByteWriter w;
  w.varint(msg_id);
  w.varint(index);
  w.varint(count);
  w.blob(chunk);
  return w.take();
}

/// The msg_id a Fragment body claims (its leading varint), if readable.
std::optional<std::uint64_t> claimed_msg_id(const std::vector<std::uint8_t>& body) {
  net::ByteReader r(body);
  std::uint64_t id = 0;
  if (!r.varint(id)) return std::nullopt;
  return id;
}

void expect_same_frame(const net::Frame& got, const net::Frame& want) {
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.payload, want.payload);
}

/// parse_frames must reject or accept without crashing; every frame it
/// yields goes on to decode(), the next parser on the socket path.
bool parse_must_not_crash(const std::vector<std::uint8_t>& body) {
  std::vector<net::Frame> frames;
  const bool ok = net::udpwire::parse_frames(body.data(), body.size(), frames);
  for (const auto& f : frames) decode_must_not_crash(f);
  return ok;
}

/// feed() must reject, hold or complete without crashing; a frame it
/// restores goes on to decode().
void feed_must_not_crash(Reassembler& r, const std::vector<std::uint8_t>& body,
                         SimTime now) {
  if (const auto got = r.feed(body.data(), body.size(), now)) decode_must_not_crash(*got);
}

/// Whatever `r` was fed before, the clean chunk fragments under kCleanMsgId
/// complete on the last one and restore the frame byte-exact.
void expect_clean_reassembly(Reassembler& r, SimTime now) {
  const net::Frame want = chunk_frame();
  const auto bodies = fragment_bodies(want, static_cast<std::uint32_t>(kCleanMsgId));
  std::optional<net::Frame> got;
  for (const auto& b : bodies) {
    ASSERT_FALSE(got.has_value());
    got = r.feed(b.data(), b.size(), now);
  }
  ASSERT_TRUE(got.has_value());
  expect_same_frame(*got, want);
}

TEST(DatagramFuzz, TruncationAtEveryLength) {
  // Every prefix of a multi-frame Data body parses without crashing: the
  // full body parses, and cutting into any frame fails.
  const auto body = data_body();
  ASSERT_TRUE(parse_must_not_crash(body));
  std::uint64_t rejected = 0;
  for (std::size_t len = 0; len < body.size(); ++len) {
    rejected += parse_must_not_crash({body.begin(), body.begin() + len}) ? 0 : 1;
  }
  EXPECT_GT(rejected, 0u);

  // Every proper prefix of every Fragment body is malformed: the blob's
  // length prefix claims bytes the cut removed.
  const auto bodies = fragment_bodies(chunk_frame(), 7);
  ASSERT_GT(bodies.size(), 10u);
  Reassembler r;
  std::uint64_t cuts = 0;
  for (const auto& b : bodies) {
    for (std::size_t len = 0; len < b.size(); ++len, ++cuts) {
      feed_must_not_crash(r, {b.begin(), b.begin() + len}, SimTime::zero());
    }
  }
  EXPECT_EQ(r.stats().malformed, cuts);
  EXPECT_EQ(r.partial_count(), 0u);
  expect_clean_reassembly(r, SimTime::zero());
}

TEST(DatagramFuzz, SeededMutationSweep) {
  const auto body = data_body();
  const auto bodies = fragment_bodies(chunk_frame(), 7);
  Rng rng(0xDA7A6EA3ull);
  const std::uint64_t iters = fuzz_iters(20000);
  // One long-lived reassembler, as a receiver keeps one per peer; its clock
  // advances and gc() runs, so stale partials stay bounded.
  Reassembler r(SimDuration::seconds(1));
  SimTime now = SimTime::zero();
  std::uint64_t data_ok = 0, data_bad = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const bool data = rng.next_below(2) == 0;
    std::vector<std::uint8_t> d = data ? body : bodies[rng.next_below(bodies.size())];
    switch (rng.next_below(4)) {
      case 0: {  // bit flips anywhere
        const std::uint64_t flips = 1 + rng.next_below(8);
        for (std::uint64_t k = 0; k < flips; ++k) {
          d[rng.next_below(d.size())] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1:  // truncate to a random length
        d.resize(rng.next_below(d.size()));
        break;
      case 2: {  // scramble the leading bytes: kind-specific headers and
                 // varint length claims live there
        const std::size_t n = std::min<std::size_t>(d.size(), 6);
        for (std::size_t k = 0; k < n; ++k) {
          d[k] = static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      }
      case 3: {  // overwrite a random run with random bytes
        const std::size_t at = rng.next_below(d.size());
        const std::size_t n = std::min<std::size_t>(d.size() - at, 1 + rng.next_below(8));
        for (std::size_t k = 0; k < n; ++k) {
          d[at + k] = static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      }
    }
    if (data) {
      ++(parse_must_not_crash(d) ? data_ok : data_bad);
    } else if (claimed_msg_id(d) != kCleanMsgId) {
      feed_must_not_crash(r, d, now);
    }
    now += SimDuration::millis(10);
    if (i % 64 == 0) r.gc(now);
  }
  // Sanity: the mutator yields both survivable and rejected input.
  EXPECT_GT(data_ok, 0u);
  EXPECT_GT(data_bad, 0u);
  EXPECT_GT(r.stats().malformed, 0u);
  EXPECT_GT(r.stats().duplicate_fragments, 0u);
  expect_clean_reassembly(r, now);
}

TEST(DatagramFuzz, HostileFragmentHeaders) {
  // Extreme msg_id, index and count claims, over short and empty chunks.
  const std::uint64_t kMax = net::udpwire::kMaxFragments;
  const std::uint64_t ids[] = {0, 1, 0xFFFFFFFFull, 0x100000000ull, ~0ull};
  const std::uint64_t counts[] = {0, 1, 2, kMax, kMax + 1, 0xFFFFFFFFull, ~0ull};
  const std::uint64_t indices[] = {0, 1, kMax - 1, kMax, kMax + 1, ~0ull};
  const std::vector<std::uint8_t> chunks[] = {{}, {0x01}, {0x01, 0x00, 0x00}};
  Reassembler r;
  std::uint64_t invalid = 0;
  for (const std::uint64_t id : ids) {
    for (const std::uint64_t count : counts) {
      for (const std::uint64_t index : indices) {
        for (const auto& chunk : chunks) {
          const bool valid = count > 0 && count <= kMax && index < count &&
                             id <= 0xFFFFFFFFull && !chunk.empty();
          invalid += valid ? 0 : 1;
          const std::size_t partials = r.partial_count();
          feed_must_not_crash(r, fragment_body(id, index, count, chunk), SimTime::zero());
          // A rejected fragment never opens a partial.
          if (!valid) {
            EXPECT_LE(r.partial_count(), partials);
          }
        }
      }
    }
  }
  EXPECT_GE(r.stats().malformed, invalid);
  // At most one partial per in-range msg_id.
  EXPECT_LE(r.partial_count(), 3u);
  expect_clean_reassembly(r, SimTime::zero());
}

TEST(DatagramFuzz, ZeroLengthFragmentIsMalformed) {
  // fragment_frame never emits an empty chunk. feed() used to store one,
  // yet an empty slot reads as unfilled: a second copy counted as a new
  // part and the message "completed" with a real fragment missing. Here two
  // spoofed empty copies of part 1 must neither complete nor spoil the
  // message; the real part 1 still completes it byte-exact.
  const net::Frame want = chunk_frame();
  const auto bodies = fragment_bodies(want, 11);
  ASSERT_GE(bodies.size(), 2u);
  Reassembler r;
  const auto empty_part = fragment_body(11, 1, bodies.size(), {});
  EXPECT_FALSE(r.feed(bodies[0].data(), bodies[0].size(), SimTime::zero()).has_value());
  EXPECT_FALSE(r.feed(empty_part.data(), empty_part.size(), SimTime::zero()).has_value());
  EXPECT_FALSE(r.feed(empty_part.data(), empty_part.size(), SimTime::zero()).has_value());
  EXPECT_EQ(r.stats().malformed, 2u);
  std::optional<net::Frame> got;
  for (std::size_t i = 1; i < bodies.size(); ++i) {
    ASSERT_FALSE(got.has_value());
    got = r.feed(bodies[i].data(), bodies[i].size(), SimTime::zero());
  }
  ASSERT_TRUE(got.has_value());
  expect_same_frame(*got, want);
}

TEST(DatagramFuzz, DuplicatedAndInterleavedMessages) {
  // Several fragmented messages in flight at once, their fragments shuffled
  // together with random duplicates. Every message completes, and every
  // frame restored is byte-exact for its msg_id: interleaving never mixes
  // parts. A duplicate that lands after its message completed opens a
  // fresh partial (the reassembler keeps no record of finished ids; the seq
  // layer above drops a repeated frame), which gc() collects.
  Rng rng(0x1D7E4ull);
  const std::uint64_t rounds = std::max<std::uint64_t>(1, fuzz_iters(20000) / 200);
  Reassembler r(SimDuration::seconds(1));
  SimTime now = SimTime::zero();
  std::uint32_t next_id = 1;
  std::uint64_t restored = 0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    std::vector<net::Frame> frames;
    std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> wire;
    const std::uint32_t first_id = next_id;
    const std::size_t n = 2 + rng.next_below(4);
    for (std::size_t m = 0; m < n; ++m) {
      net::Frame f;
      f.tag = static_cast<std::uint8_t>(rng.next_below(net::kMaxTags));
      f.seq = static_cast<std::uint32_t>(rng.next_u64());
      f.payload.resize(kFuzzMtu + rng.next_below(1500));
      for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.next_below(256));
      for (auto& body : fragment_bodies(f, next_id++)) {
        if (rng.next_below(3) == 0) wire.emplace_back(m, body);
        wire.emplace_back(m, std::move(body));
      }
      frames.push_back(std::move(f));
    }
    for (std::size_t i = wire.size(); i > 1; --i) {
      std::swap(wire[i - 1], wire[rng.next_below(i)]);
    }
    std::vector<std::uint64_t> completions(n, 0);
    for (const auto& [m, body] : wire) {
      if (const auto got = r.feed(body.data(), body.size(), now)) {
        ASSERT_EQ(claimed_msg_id(body), first_id + m);
        expect_same_frame(*got, frames[m]);
        ++completions[m];
        ++restored;
      }
    }
    for (std::size_t m = 0; m < n; ++m) {
      EXPECT_GE(completions[m], 1u) << "message " << m;
    }
    now += SimDuration::seconds(2);
    r.gc(now);
    EXPECT_EQ(r.partial_count(), 0u);
  }
  EXPECT_EQ(r.stats().completed, restored);
  EXPECT_GT(r.stats().duplicate_fragments, 0u);
  EXPECT_EQ(r.stats().malformed, 0u);
}

}  // namespace
}  // namespace dyconits::protocol
