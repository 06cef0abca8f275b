// Transport-layer tests (DESIGN.md §12): the pure UDP datagram codec
// (framing, fragmentation, reassembly), damaged-datagram handling feeding
// the application's sequence-gap detection, and real-socket smoke tests for
// UdpTransport (skipped where sockets are unavailable), including the
// byte identity of shared-frame and owned-frame sends.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <tuple>
#include <thread>

#include "bots/bot.h"
#include "net/buffer_pool.h"
#include "net/fault_transport.h"
#include "net/shared_frame.h"
#include "net/sim_network.h"
#include "net/udp_framing.h"
#include "net/udp_transport.h"
#include "protocol/codec.h"
#include "world/world.h"

namespace dyconits {
namespace {

using net::Frame;
using namespace net::udpwire;

Frame make_frame(std::uint8_t tag, std::uint32_t seq, std::size_t payload_len) {
  Frame f;
  f.tag = tag;
  f.seq = seq;
  f.payload.resize(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    f.payload[i] = static_cast<std::uint8_t>((i * 31 + tag) & 0xFF);
  }
  return f;
}

TEST(UdpFramingTest, AppendParseRoundTrip) {
  std::vector<Frame> in;
  in.push_back(make_frame(3, 0, 0));        // unsequenced, empty
  in.push_back(make_frame(7, 1, 5));
  in.push_back(make_frame(11, 0xFFFFFFFF, 300));  // max seq, multi-byte varints

  std::vector<std::uint8_t> body;
  std::size_t expected = 0;
  for (const auto& f : in) {
    append_frame(body, f);
    expected += f.wire_size();
  }
  EXPECT_EQ(body.size(), expected);  // append_frame is exactly wire_size()

  std::vector<Frame> out;
  ASSERT_TRUE(parse_frames(body.data(), body.size(), out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].tag, in[i].tag);
    EXPECT_EQ(out[i].seq, in[i].seq);
    EXPECT_EQ(out[i].payload, in[i].payload);
  }
}

TEST(UdpFramingTest, TruncatedBodyKeepsPrefixAndFails) {
  std::vector<std::uint8_t> body;
  const Frame a = make_frame(2, 1, 40);
  const Frame b = make_frame(2, 2, 40);
  append_frame(body, a);
  append_frame(body, b);
  body.resize(body.size() - 10);  // tear the tail off frame b

  std::vector<Frame> out;
  EXPECT_FALSE(parse_frames(body.data(), body.size(), out));
  ASSERT_EQ(out.size(), 1u);  // the undamaged prefix survives
  EXPECT_EQ(out[0].payload, a.payload);
}

TEST(UdpFramingTest, FragmentationRoundTripAtMtuEdges) {
  const std::size_t mtu = 256;
  // wire_size + 1 (kind byte) one over the MTU: the smallest frame that
  // must fragment — and well past it. MTU-1 exact fits stay inline and are
  // covered by the loopback smoke test.
  for (const std::size_t over : {std::size_t{1}, std::size_t{2}, std::size_t{2000}}) {
    const std::size_t payload = mtu - 1 + over;  // header ~7 bytes, all > mtu
    const Frame f = make_frame(14, 1234567, payload);
    ASSERT_GT(f.wire_size() + 1, mtu);

    const auto datagrams = fragment_frame(f, mtu, /*msg_id=*/42);
    ASSERT_GT(datagrams.size(), 1u);
    for (const auto& d : datagrams) {
      EXPECT_LE(d.size(), mtu);
      ASSERT_GE(d.size(), 2u);
      EXPECT_EQ(d[0], static_cast<std::uint8_t>(DatagramKind::Fragment));
    }

    Reassembler r;
    std::optional<Frame> got;
    for (const auto& d : datagrams) {
      ASSERT_FALSE(got.has_value());  // only the last fragment completes
      got = r.feed(d.data() + 1, d.size() - 1, SimTime::zero());
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, f.tag);
    EXPECT_EQ(got->seq, f.seq);
    EXPECT_EQ(got->payload, f.payload);
    EXPECT_EQ(r.partial_count(), 0u);
    net::BufferPool::instance().release(std::move(got->payload));
  }
}

TEST(UdpFramingTest, ReorderedAndDuplicatedFragments) {
  const Frame f = make_frame(14, 7, 1000);
  const auto datagrams = fragment_frame(f, 256, /*msg_id=*/9);
  ASSERT_GE(datagrams.size(), 3u);

  Reassembler r;
  // Deliver in reverse, duplicating the middle fragment.
  std::optional<Frame> got;
  for (std::size_t i = datagrams.size(); i-- > 0;) {
    got = r.feed(datagrams[i].data() + 1, datagrams[i].size() - 1, SimTime::zero());
    if (i == 1) {
      auto dup = r.feed(datagrams[i].data() + 1, datagrams[i].size() - 1, SimTime::zero());
      EXPECT_FALSE(dup.has_value());
    }
  }
  ASSERT_TRUE(got.has_value());  // reverse order still completes on the last piece
  EXPECT_EQ(got->payload, f.payload);
  EXPECT_EQ(r.stats().duplicate_fragments, 1u);
  EXPECT_EQ(r.stats().completed, 1u);
  net::BufferPool::instance().release(std::move(got->payload));

  // Garbage header: counted, not crashed.
  const std::uint8_t junk[3] = {0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(r.feed(junk, sizeof(junk), SimTime::zero()).has_value());
  EXPECT_EQ(r.stats().malformed, 1u);
}

TEST(UdpFramingTest, StalePartialsAreGarbageCollected) {
  const Frame f = make_frame(14, 7, 1000);
  const auto datagrams = fragment_frame(f, 256, /*msg_id=*/3);
  ASSERT_GE(datagrams.size(), 2u);

  Reassembler r(SimDuration::seconds(5));
  EXPECT_FALSE(r.feed(datagrams[0].data() + 1, datagrams[0].size() - 1, SimTime::zero()));
  EXPECT_EQ(r.partial_count(), 1u);
  r.gc(SimTime::zero() + SimDuration::seconds(4));
  EXPECT_EQ(r.partial_count(), 1u);  // within the window: kept
  r.gc(SimTime::zero() + SimDuration::seconds(6));
  EXPECT_EQ(r.partial_count(), 0u);  // a lost fragment surfaces as a seq gap
  EXPECT_EQ(r.stats().stale_dropped, 1u);
}

// Lost and duplicated datagrams manifest to the application as holes and
// repeats in the frame sequence; the bot's gap detector must classify them.
TEST(TransportGapTest, DamagedStreamsFeedGapDetection) {
  SimClock clock;
  net::SimNetwork net(clock, 1);
  world::World world;
  const net::EndpointId server = net.create_endpoint("server");
  bots::BotClient bot(clock, net, world, server, "bot", 1, {});
  net.connect(bot.endpoint(), server, {SimDuration(0), 0.0, true});

  const auto push = [&](std::uint32_t seq) {
    Frame f = protocol::encode(protocol::KeepAlive{seq});
    f.seq = seq;
    net.send(server, bot.endpoint(), std::move(f));
  };

  push(1);
  bot.poll_inbound();
  EXPECT_EQ(bot.gaps_detected(), 0u);

  push(3);  // a dropped datagram: seq 2 never arrives
  bot.poll_inbound();
  EXPECT_EQ(bot.gaps_detected(), 1u);

  push(3);  // a duplicated datagram replays an already-seen frame
  bot.poll_inbound();
  EXPECT_EQ(bot.dup_or_old_frames(), 1u);

  push(2);  // late arrival: the hole was reorder after all
  push(4);
  bot.poll_inbound();
  EXPECT_EQ(bot.gaps_detected(), 1u);  // unchanged; hole filled within grace
  EXPECT_EQ(bot.resyncs_requested(), 0u);
}

// -- real sockets below; skip where the environment forbids them --

struct Loopback {
  SimClock clock;
  std::unique_ptr<net::UdpTransport> a, b;
  net::EndpointId a_local = net::kInvalidEndpoint;
  net::EndpointId b_local = net::kInvalidEndpoint;
  net::EndpointId b_to_a = net::kInvalidEndpoint;

  explicit Loopback(net::UdpConfig base = {}) {
    base.bind_host = "127.0.0.1";
    base.bind_port = 0;
    a = std::make_unique<net::UdpTransport>(clock, base);
    b = std::make_unique<net::UdpTransport>(clock, base);
    if (!a->valid() || !b->valid()) return;
    a_local = a->create_endpoint("alpha");
    b_local = b->create_endpoint("beta");
    b_to_a = b->add_peer("127.0.0.1", a->local_port(), "alpha");
  }
  bool ok() const { return a && a->valid() && b && b->valid(); }
};

TEST(UdpTransportTest, LoopbackEchoSmoke) {
  Loopback lo;
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  // One coalescable frame and one that must fragment (64 KiB >> MTU).
  const Frame small = make_frame(5, 1, 32);
  const Frame big = make_frame(11, 2, 64 * 1024);
  ASSERT_TRUE(lo.b->send(lo.b_local, lo.b_to_a, small));
  ASSERT_TRUE(lo.b->send(lo.b_local, lo.b_to_a, big));
  lo.b->flush_egress();

  std::vector<net::Delivery> got;
  for (int spins = 0; spins < 2000 && got.size() < 2; ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    for (auto& d : lo.a->poll(lo.a_local)) got.push_back(std::move(d));
  }
  ASSERT_EQ(got.size(), 2u) << "frames lost on loopback";
  EXPECT_EQ(got[0].frame.payload, small.payload);
  EXPECT_EQ(got[1].frame.payload, big.payload);
  EXPECT_EQ(got[1].frame.seq, 2u);
  EXPECT_GE(lo.a->stats().frames_reassembled, 1u);

  // The sender was auto-registered from its source address; echo back.
  const net::EndpointId b_peer = got[0].from;
  EXPECT_TRUE(lo.a->connected(lo.a_local, b_peer));
  ASSERT_TRUE(lo.a->send(lo.a_local, b_peer, make_frame(6, 1, 8)));
  lo.a->flush_egress();
  std::vector<net::Delivery> back;
  for (int spins = 0; spins < 2000 && back.empty(); ++spins) {
    lo.b->pump(/*timeout_ms=*/5);
    back = lo.b->poll(lo.b_local);
  }
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].frame.tag, 6);

  // Modeled frame accounting matches the sim's semantics on both ends.
  EXPECT_EQ(lo.b->egress_frames(lo.b_local), 2u);
  EXPECT_EQ(lo.a->ingress_frames(lo.a_local), 2u);
  EXPECT_EQ(lo.a->egress_bytes(lo.a_local), lo.b->ingress_bytes(lo.b_local));

  for (auto& d : got) net::BufferPool::instance().release(std::move(d.frame.payload));
  for (auto& d : back) net::BufferPool::instance().release(std::move(d.frame.payload));
}

TEST(UdpTransportTest, IdleTimeoutDisconnects) {
  net::UdpConfig cfg;
  cfg.idle_timeout = SimDuration::millis(100);
  cfg.keepalive_interval = SimDuration(0);  // nobody refreshes the timer
  Loopback lo(cfg);
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  ASSERT_TRUE(lo.b->send(lo.b_local, lo.b_to_a, make_frame(5, 1, 8)));
  lo.b->flush_egress();
  std::vector<net::Delivery> got;
  for (int spins = 0; spins < 2000 && got.empty(); ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    got = lo.a->poll(lo.a_local);
  }
  ASSERT_EQ(got.size(), 1u);
  const net::EndpointId b_peer = got[0].from;
  EXPECT_TRUE(lo.a->connected(lo.a_local, b_peer));

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  lo.a->pump(/*timeout_ms=*/0);  // housekeeping notices the silence
  EXPECT_FALSE(lo.a->connected(lo.a_local, b_peer));
  EXPECT_EQ(lo.a->stats().idle_disconnects, 1u);

  for (auto& d : got) net::BufferPool::instance().release(std::move(d.frame.payload));
}

TEST(UdpTransportTest, StrangerGarbageAllocatesNoPeer) {
  Loopback lo;
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  // A live session first: a learns b from b's first frame.
  ASSERT_TRUE(lo.b->send(lo.b_local, lo.b_to_a, make_frame(5, 1, 8)));
  lo.b->flush_egress();
  std::vector<net::Delivery> got;
  for (int spins = 0; spins < 2000 && got.empty(); ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    got = lo.a->poll(lo.a_local);
  }
  ASSERT_EQ(got.size(), 1u);
  const net::EndpointId b_peer = got[0].from;
  const std::size_t peers = lo.a->peer_count();
  const std::uint64_t malformed0 = lo.a->stats().malformed_datagrams;

  // Empty and unknown-kind datagrams, each stranger on a fresh socket (so a
  // fresh source address).
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(lo.a->local_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  constexpr int kStrangers = 4;
  const std::uint8_t unknown_kinds[kStrangers] = {0x00, 0x05, 0xEE, 0x7F};
  const auto* dst = reinterpret_cast<const sockaddr*>(&to);
  for (int i = 0; i < kStrangers; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    const std::uint8_t dgram[2] = {unknown_kinds[i], 0x01};
    EXPECT_EQ(::sendto(fd, dgram, 0, 0, dst, sizeof(to)), 0);
    EXPECT_EQ(::sendto(fd, dgram, 1, 0, dst, sizeof(to)), 1);
    EXPECT_EQ(::sendto(fd, dgram, 2, 0, dst, sizeof(to)), 2);
    ::close(fd);
  }
  const std::uint64_t want = malformed0 + 3 * kStrangers;
  for (int spins = 0; spins < 2000 && lo.a->stats().malformed_datagrams < want; ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
  }
  EXPECT_EQ(lo.a->stats().malformed_datagrams, want);
  EXPECT_EQ(lo.a->peer_count(), peers) << "a stranger's garbage registered a peer";

  // The live session is undisturbed: frames still flow both ways.
  ASSERT_TRUE(lo.b->send(lo.b_local, lo.b_to_a, make_frame(7, 2, 16)));
  lo.b->flush_egress();
  std::vector<net::Delivery> more;
  for (int spins = 0; spins < 2000 && more.empty(); ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    more = lo.a->poll(lo.a_local);
  }
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].from, b_peer);
  EXPECT_EQ(more[0].frame.seq, 2u);
  EXPECT_TRUE(lo.a->connected(lo.a_local, b_peer));
  ASSERT_TRUE(lo.a->send(lo.a_local, b_peer, make_frame(6, 1, 8)));
  lo.a->flush_egress();
  std::vector<net::Delivery> back;
  for (int spins = 0; spins < 2000 && back.empty(); ++spins) {
    lo.b->pump(/*timeout_ms=*/5);
    back = lo.b->poll(lo.b_local);
  }
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].frame.tag, 6);

  for (auto* ds : {&got, &more, &back}) {
    for (auto& d : *ds) net::BufferPool::instance().release(std::move(d.frame.payload));
  }
}

TEST(UdpTransportTest, MalformedTailStillDeliversParsedPrefix) {
  Loopback lo;
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  // Hand-built Data datagrams from a raw socket: the first carries one
  // whole frame and a torn second one, the next a single whole frame.
  const Frame a = make_frame(2, 1, 40);
  const Frame torn = make_frame(2, 2, 40);
  const Frame c = make_frame(3, 3, 12);
  std::vector<std::uint8_t> first{static_cast<std::uint8_t>(DatagramKind::Data)};
  append_frame(first, a);
  append_frame(first, torn);
  first.resize(first.size() - 10);
  std::vector<std::uint8_t> second{static_cast<std::uint8_t>(DatagramKind::Data)};
  append_frame(second, c);

  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(lo.a->local_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  const auto* dst = reinterpret_cast<const sockaddr*>(&to);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  const std::uint64_t malformed0 = lo.a->stats().malformed_datagrams;
  EXPECT_EQ(::sendto(fd, first.data(), first.size(), 0, dst, sizeof(to)),
            static_cast<ssize_t>(first.size()));
  EXPECT_EQ(::sendto(fd, second.data(), second.size(), 0, dst, sizeof(to)),
            static_cast<ssize_t>(second.size()));
  ::close(fd);

  std::vector<net::Delivery> got;
  for (int spins = 0; spins < 2000 && got.size() < 2; ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    for (auto& d : lo.a->poll(lo.a_local)) got.push_back(std::move(d));
  }
  // The prefix of the damaged datagram is delivered, the next datagram
  // delivers exactly its own frame, and only the first counts as malformed.
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].frame.seq, 1u);
  EXPECT_EQ(got[0].frame.payload, a.payload);
  EXPECT_EQ(got[1].frame.seq, 3u);
  EXPECT_EQ(got[1].frame.payload, c.payload);
  EXPECT_EQ(lo.a->stats().malformed_datagrams, malformed0 + 1);

  for (auto& d : got) net::BufferPool::instance().release(std::move(d.frame.payload));
}

/// A frame sequence that walks UdpTransport's staging edges at the default
/// MTU: two frames that fill a datagram exactly, two that overshoot by one
/// byte, a payload that fragments, the largest frame that fits a datagram
/// alone and the smallest that fragments, an empty payload, then a run of
/// small frames that coalesce.
std::vector<Frame> staging_edge_frames() {
  // Wire bytes of a frame here: tag + 1-byte seq + 2-byte length + payload.
  const std::size_t mtu = kDefaultMtu;
  std::vector<Frame> out;
  std::uint32_t seq = 0;
  const auto add = [&](std::uint8_t tag, std::size_t len) {
    out.push_back(make_frame(tag, ++seq, len));
  };
  add(3, 600);
  add(4, mtu - 1 - 604 - 4);  // kind byte + 604 + this == mtu
  add(5, 600);
  add(6, mtu - 1 - 604 - 4 + 1);  // one byte past: flushes first
  add(7, 5000);
  add(8, mtu - 1 - 4);  // wire + kind byte == mtu: one datagram
  add(9, mtu - 4);      // wire + kind byte == mtu + 1: fragments
  add(10, 0);
  for (int i = 0; i < 30; ++i) add(static_cast<std::uint8_t>(11 + i % 5), 40 + i * 13);
  return out;
}

/// What a receiver saw of one frame.
using Received = std::tuple<std::uint8_t, std::uint32_t, std::vector<std::uint8_t>>;

/// Sends `frames` from b to a, as owned frames or as shared-frame sends,
/// and returns what a received plus b's sender-side counters.
struct SendRun {
  std::vector<Received> received;
  std::uint64_t egress_bytes = 0;
  std::uint64_t egress_frames = 0;
  net::UdpStats stats;
};

SendRun send_over_loopback(Loopback& lo, const std::vector<Frame>& frames, bool shared) {
  SendRun run;
  for (const Frame& f : frames) {
    if (shared) {
      const net::SharedFrame master(f.tag, f.payload);
      EXPECT_TRUE(lo.b->send_shared(lo.b_local, lo.b_to_a, master, f.seq, {}));
      EXPECT_EQ(master.payload(), f.payload);  // borrowed, not consumed
    } else {
      EXPECT_TRUE(lo.b->send(lo.b_local, lo.b_to_a, f));
    }
  }
  lo.b->flush_egress();
  for (int spins = 0; spins < 2000 && run.received.size() < frames.size(); ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    for (auto& d : lo.a->poll(lo.a_local)) {
      run.received.emplace_back(d.frame.tag, d.frame.seq, d.frame.payload);
      net::BufferPool::instance().release(std::move(d.frame.payload));
    }
  }
  run.egress_bytes = lo.b->egress_bytes(lo.b_local);
  run.egress_frames = lo.b->egress_frames(lo.b_local);
  run.stats = lo.b->stats();
  return run;
}

TEST(UdpTransportTest, SharedSendsPutTheOwnedFramesBytesOnTheWire) {
  const std::vector<Frame> frames = staging_edge_frames();
  Loopback owned_lo, shared_lo;
  if (!owned_lo.ok() || !shared_lo.ok()) {
    GTEST_SKIP() << "no usable UDP sockets: " << owned_lo.a->error();
  }
  const SendRun owned = send_over_loopback(owned_lo, frames, /*shared=*/false);
  const SendRun shared = send_over_loopback(shared_lo, frames, /*shared=*/true);

  ASSERT_EQ(owned.received.size(), frames.size()) << "frames lost on loopback";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(owned.received[i], Received(frames[i].tag, frames[i].seq, frames[i].payload))
        << "frame " << i;
  }
  EXPECT_EQ(shared.received, owned.received);
  EXPECT_EQ(shared.egress_bytes, owned.egress_bytes);
  EXPECT_EQ(shared.egress_frames, owned.egress_frames);
  // Same datagram boundaries: the same count and bytes of datagrams, and
  // both over-MTU frames split the same way (4 + 2 fragments).
  EXPECT_EQ(shared.stats.datagrams_sent, owned.stats.datagrams_sent);
  EXPECT_EQ(shared.stats.datagram_bytes_sent, owned.stats.datagram_bytes_sent);
  EXPECT_EQ(owned.stats.fragments_sent, 6u);
  EXPECT_EQ(shared.stats.fragments_sent, owned.stats.fragments_sent);
}

// -- FaultInjectingTransport (DESIGN.md §13): the seeded fault decorator --
// Deterministic checks run over a SimNetwork inner (no sockets needed);
// the layering checks at the bottom wrap real loopback sockets.

/// Two wrapper endpoints over a latency-0 sim link.
struct FaultRig {
  SimClock clock;
  net::SimNetwork inner{clock, 1};
  net::FaultInjectingTransport fi{inner, clock};
  net::EndpointId a = net::kInvalidEndpoint;
  net::EndpointId b = net::kInvalidEndpoint;

  FaultRig() {
    a = fi.create_endpoint("a");
    b = fi.create_endpoint("b");
    inner.connect(a, b, {SimDuration(0), 0.0, true});
  }

  std::size_t drain_b() {
    std::size_t n = 0;
    for (auto& d : fi.poll(b)) {
      ++n;
      net::BufferPool::instance().release(std::move(d.frame.payload));
    }
    return n;
  }
};

TEST(FaultTransportTest, LossLedgerCloses) {
  FaultRig rig;
  net::FaultPlan plan;
  plan.seed = 9;
  plan.all_links.loss = 0.5;
  rig.fi.set_fault_plan(plan);

  const std::size_t offered = 400;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    EXPECT_TRUE(rig.fi.send(rig.a, rig.b, make_frame(7, static_cast<std::uint32_t>(i + 1), 32)));
    if ((i + 1) % 10 == 0) {
      rig.fi.flush_egress();
      delivered += rig.drain_b();
    }
  }
  rig.fi.flush_egress();
  delivered += rig.drain_b();

  const net::FaultStats* fs = &rig.fi.fault_stats(rig.b);
  EXPECT_GT(fs->dropped.frames, 0u);
  EXPECT_EQ(fs->dropped.loss, fs->dropped.frames);  // only loss configured
  // Conservation: every offered frame is delivered or accounted dropped,
  // and the inner transport never saw the dropped ones.
  EXPECT_EQ(delivered + fs->dropped.frames, offered);
  EXPECT_EQ(rig.fi.frames_offered(), offered);
  EXPECT_EQ(rig.fi.frames_held(), 0u);
  EXPECT_EQ(rig.inner.egress_frames(rig.a), delivered);
}

TEST(FaultTransportTest, ReorderHoldbackReleasesOnFlush) {
  FaultRig rig;
  net::FaultPlan plan;
  plan.seed = 3;
  plan.all_links.reorder = 1.0;
  plan.all_links.reorder_extra = SimDuration::millis(100);
  rig.fi.set_fault_plan(plan);

  for (std::uint32_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(rig.fi.send(rig.a, rig.b, make_frame(7, i, 16)));
  }
  rig.fi.flush_egress();
  const std::size_t early = rig.drain_b();  // only holdbacks that drew 0 extra
  EXPECT_EQ(early + rig.fi.frames_held(), 3u);

  // Nothing more is released while the frames' detours are still pending...
  const std::size_t held_before = rig.fi.frames_held();
  rig.fi.poll(rig.b);
  EXPECT_EQ(rig.fi.frames_held(), held_before);

  // ...but every holdback is due once the clock passes the extra-delay cap.
  rig.clock.advance(SimDuration::millis(101));
  rig.fi.flush_egress();
  EXPECT_EQ(early + rig.drain_b(), 3u);
  EXPECT_EQ(rig.fi.frames_held(), 0u);
  EXPECT_EQ(rig.fi.fault_stats(rig.b).reordered, 3u);
}

TEST(FaultTransportTest, DuplicatesReachTheInnerWireTwice) {
  FaultRig rig;
  net::FaultPlan plan;
  plan.seed = 5;
  plan.all_links.duplicate = 1.0;
  rig.fi.set_fault_plan(plan);

  for (std::uint32_t i = 1; i <= 10; ++i) {
    EXPECT_TRUE(rig.fi.send(rig.a, rig.b, make_frame(4, i, 24)));
  }
  rig.fi.flush_egress();
  EXPECT_EQ(rig.drain_b(), 20u);
  EXPECT_EQ(rig.fi.fault_stats(rig.b).duplicated, 10u);
  EXPECT_EQ(rig.inner.egress_frames(rig.a), 20u);
}

TEST(FaultTransportTest, SendFailuresAreSilentButMeasured) {
  FaultRig rig;
  net::FaultPlan plan;
  plan.seed = 11;
  plan.all_links.send_fail = 1.0;
  rig.fi.set_fault_plan(plan);

  for (std::uint32_t i = 1; i <= 5; ++i) {
    // A sender-edge EAGAIN: send() reports success (real socket failures
    // surface at flush time, not send time) and the frame simply vanishes.
    EXPECT_TRUE(rig.fi.send(rig.a, rig.b, make_frame(2, i, 64)));
  }
  rig.fi.flush_egress();
  EXPECT_EQ(rig.drain_b(), 0u);
  EXPECT_EQ(rig.inner.egress_frames(rig.a), 0u);

  const net::SendPressure sp = rig.fi.send_pressure(net::kInvalidEndpoint);
  EXPECT_EQ(sp.send_failures, 5u);
  EXPECT_GT(sp.congested_bytes, 0u);
  EXPECT_GT(sp.congested_frames, 0u);
  // The congestion estimate decays as flushes pass without new failures.
  const std::uint64_t before = sp.congested_bytes;
  rig.fi.flush_egress();
  EXPECT_LT(rig.fi.send_pressure(net::kInvalidEndpoint).congested_bytes, before);
  // Backlog signal: the wrapper adds its own congestion on top of the
  // pending bytes the sim inner reports.
  EXPECT_GE(rig.fi.pending_bytes(rig.b), rig.fi.send_pressure(rig.b).congested_bytes);
}

TEST(FaultTransportTest, CrashWindowRefusesSendsUntilRestart) {
  FaultRig rig;
  net::FaultPlan plan;
  plan.seed = 1;
  plan.events.push_back({SimTime::zero() + SimDuration::millis(100),
                         net::FaultEvent::Kind::Crash, rig.b, net::kInvalidEndpoint});
  plan.events.push_back({SimTime::zero() + SimDuration::millis(200),
                         net::FaultEvent::Kind::Restart, rig.b, net::kInvalidEndpoint});
  rig.fi.set_fault_plan(plan);

  rig.clock.advance(SimDuration::millis(50));
  EXPECT_TRUE(rig.fi.send(rig.a, rig.b, make_frame(7, 1, 16)));  // before the window
  rig.clock.advance(SimDuration::millis(100));                   // t=150: b is down
  EXPECT_FALSE(rig.fi.send(rig.a, rig.b, make_frame(7, 2, 16)));
  rig.clock.advance(SimDuration::millis(100));                   // t=250: restarted
  EXPECT_TRUE(rig.fi.send(rig.a, rig.b, make_frame(7, 3, 16)));
  rig.fi.flush_egress();

  EXPECT_EQ(rig.drain_b(), 2u);
  EXPECT_EQ(rig.fi.fault_stats(rig.b).refused, 1u);
}

TEST(FaultTransportTest, SameSeedSameDecisionsDifferentSeedDiverges) {
  net::FaultPlan plan;
  plan.seed = 42;
  plan.all_links.loss = 0.2;
  plan.all_links.duplicate = 0.1;
  plan.all_links.corrupt = 0.1;
  plan.all_links.reorder = 0.2;
  plan.all_links.send_fail = 0.1;

  const auto run = [&](std::uint64_t seed) {
    FaultRig rig;
    net::FaultPlan p = plan;
    p.seed = seed;
    rig.fi.set_fault_plan(p);
    for (std::uint32_t i = 1; i <= 300; ++i) {
      rig.fi.send(rig.a, rig.b, make_frame(static_cast<std::uint8_t>(1 + i % 20), i, 32));
      if (i % 16 == 0) {
        rig.fi.flush_egress();
        rig.clock.advance(SimDuration::millis(5));
        rig.drain_b();
      }
    }
    rig.clock.advance(SimDuration::seconds(1));
    rig.fi.flush_egress();
    rig.drain_b();
    return rig.fi.decision_hash();
  };

  const std::uint64_t h1 = run(42), h2 = run(42), h3 = run(43);
  EXPECT_EQ(h1, h2) << "same plan seed must replay identical fault decisions";
  EXPECT_NE(h1, h3) << "a different plan seed must diverge";
}

// -- wrapper over real sockets (skipped where the environment forbids) --

/// The part of the ledger the sending side decides alone: everything but
/// `delivered`, which belongs to whoever polls the destination.
void expect_same_injections(const net::FaultStats& x, const net::FaultStats& y) {
  EXPECT_EQ(x.offered, y.offered);
  EXPECT_EQ(x.offered_bytes, y.offered_bytes);
  EXPECT_EQ(x.refused, y.refused);
  EXPECT_EQ(x.refused_bytes, y.refused_bytes);
  EXPECT_EQ(x.send_failed, y.send_failed);
  EXPECT_EQ(x.send_failed_bytes, y.send_failed_bytes);
  EXPECT_EQ(x.duplicated, y.duplicated);
  EXPECT_EQ(x.duplicated_bytes, y.duplicated_bytes);
  EXPECT_EQ(x.corrupted, y.corrupted);
  EXPECT_EQ(x.reordered, y.reordered);
  EXPECT_EQ(x.dropped.frames, y.dropped.frames);
  EXPECT_EQ(x.dropped.bytes, y.dropped.bytes);
  EXPECT_EQ(x.dropped.loss, y.dropped.loss);
  EXPECT_EQ(x.dropped.disconnect, y.dropped.disconnect);
  EXPECT_EQ(x.dropped.crash, y.dropped.crash);
}

// One fault layer for every backend: the same plan and the same offered
// frames make the same decisions and the same ledger over the SimNetwork
// link model and over real loopback sockets.
TEST(FaultTransportTest, DecisionsDoNotDependOnTheBackend) {
  Loopback lo;
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  SimClock sim_clock;
  net::SimNetwork sim(sim_clock, 1);
  net::FaultInjectingTransport fs_sim(sim, sim_clock);
  const net::EndpointId from = fs_sim.create_endpoint("beta");
  const net::EndpointId to = fs_sim.create_endpoint("alpha");
  sim.connect(from, to, {SimDuration::millis(1), 0.0, true});
  // Endpoint ids are part of the decision digest: both backends must name
  // the pair alike.
  ASSERT_EQ(from, lo.b_local);
  ASSERT_EQ(to, lo.b_to_a);
  net::FaultInjectingTransport fs_udp(*lo.b, lo.clock);

  net::FaultPlan plan;
  plan.seed = 77;
  plan.all_links.loss = 0.2;
  plan.all_links.duplicate = 0.1;
  plan.all_links.corrupt = 0.1;
  plan.all_links.reorder = 0.2;
  plan.all_links.reorder_extra = SimDuration::millis(20);
  plan.all_links.send_fail = 0.05;
  const auto ms = [](std::int64_t v) { return SimTime::zero() + SimDuration::millis(v); };
  plan.events.push_back({ms(100), net::FaultEvent::Kind::LinkDown, from, to});
  plan.events.push_back({ms(150), net::FaultEvent::Kind::LinkUp, from, to});
  plan.events.push_back({ms(200), net::FaultEvent::Kind::Crash, to, net::kInvalidEndpoint});
  plan.events.push_back({ms(250), net::FaultEvent::Kind::Restart, to, net::kInvalidEndpoint});
  fs_sim.set_fault_plan(plan);
  fs_udp.set_fault_plan(plan);

  // Only the sending side runs here, so no poll() can add drops: the
  // ledgers hold exactly the sender's decisions.
  const std::size_t offered = 300;
  std::size_t received = 0, received_bytes = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    const auto seq = static_cast<std::uint32_t>(i + 1);
    const std::size_t len = 8 + (i * 37) % 200;
    fs_sim.send(from, to, make_frame(static_cast<std::uint8_t>(1 + i % 20), seq, len));
    fs_udp.send(from, to, make_frame(static_cast<std::uint8_t>(1 + i % 20), seq, len));
    sim_clock.advance(SimDuration::millis(1));
    lo.clock.advance(SimDuration::millis(1));
    if ((i + 1) % 10 == 0) {
      fs_sim.flush_egress();
      fs_udp.flush_egress();
    }
    lo.a->pump(/*timeout_ms=*/0);
    for (auto& d : lo.a->poll(lo.a_local)) {
      ++received;
      received_bytes += d.frame.wire_size();
      net::BufferPool::instance().release(std::move(d.frame.payload));
    }
  }
  sim_clock.advance(SimDuration::seconds(1));
  lo.clock.advance(SimDuration::seconds(1));
  fs_sim.flush_egress();
  fs_udp.flush_egress();

  EXPECT_EQ(fs_sim.decision_hash(), fs_udp.decision_hash());
  EXPECT_EQ(fs_sim.frames_offered(), fs_udp.frames_offered());
  const net::FaultStats& x = fs_sim.fault_stats(to);
  const net::FaultStats& y = fs_udp.fault_stats(to);
  EXPECT_GT(x.refused, 0u);
  EXPECT_GT(x.send_failed, 0u);
  EXPECT_GT(x.dropped.disconnect + x.dropped.crash, 0u);
  expect_same_injections(x, y);

  // Both ledgers close: the sim's copies wait in the link model's inbox,
  // the UDP copies reach the other socket.
  const net::Tally sim_in_flight{sim.pending_count(to), sim.pending_bytes(to)};
  EXPECT_EQ(net::ledger_in(x), net::ledger_out(x, {}, fs_sim.held(to) + sim_in_flight));
  const net::Tally want = net::ledger_in(y);
  for (int spins = 0; spins < 1000; ++spins) {
    if (net::ledger_out(y, {received, received_bytes}, fs_udp.held(to)) == want) break;
    lo.a->pump(/*timeout_ms=*/2);
    for (auto& d : lo.a->poll(lo.a_local)) {
      ++received;
      received_bytes += d.frame.wire_size();
      net::BufferPool::instance().release(std::move(d.frame.payload));
    }
  }
  EXPECT_EQ(want, net::ledger_out(y, {received, received_bytes}, fs_udp.held(to)));
}

TEST(FaultTransportTest, LoopbackChaosLedgerCloses) {
  Loopback lo;
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  net::FaultInjectingTransport fb(*lo.b, lo.clock);
  net::FaultPlan plan;
  plan.seed = 17;
  plan.all_links.loss = 0.3;
  plan.all_links.duplicate = 0.1;
  plan.all_links.reorder = 0.2;
  plan.all_links.reorder_extra = SimDuration::millis(20);
  fb.set_fault_plan(plan);

  const std::size_t offered = 300;
  std::size_t received = 0, received_bytes = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    ASSERT_TRUE(fb.send(lo.b_local, lo.b_to_a, make_frame(5, static_cast<std::uint32_t>(i + 1), 32)));
    if ((i + 1) % 20 == 0) {
      fb.flush_egress();
      lo.clock.advance(SimDuration::millis(25));
      lo.a->pump(/*timeout_ms=*/2);
      for (auto& d : lo.a->poll(lo.a_local)) {
        ++received;
        received_bytes += d.frame.wire_size();
        net::BufferPool::instance().release(std::move(d.frame.payload));
      }
    }
  }
  lo.clock.advance(SimDuration::seconds(1));  // every holdback comes due
  fb.flush_egress();
  for (int spins = 0; spins < 1000; ++spins) {
    lo.a->pump(/*timeout_ms=*/2);
    bool got = false;
    for (auto& d : lo.a->poll(lo.a_local)) {
      ++received;
      received_bytes += d.frame.wire_size();
      got = true;
      net::BufferPool::instance().release(std::move(d.frame.payload));
    }
    const net::FaultStats* fs = &fb.fault_stats(lo.b_to_a);
    if (!got && received == offered - fs->dropped.frames + fs->duplicated) break;
  }

  const net::FaultStats* fs = &fb.fault_stats(lo.b_to_a);
  EXPECT_GT(fs->dropped.frames, 0u);
  EXPECT_GT(fs->duplicated, 0u);
  EXPECT_EQ(fb.frames_held(), 0u);
  // Ledger across the real wire: everything offered either arrived, was
  // dropped by the wrapper, or was duplicated into an extra arrival.
  EXPECT_EQ(received, offered - fs->dropped.frames + fs->duplicated);
  // The inner socket never saw wrapper-dropped frames.
  EXPECT_EQ(lo.b->egress_frames(lo.b_local),
            offered - fs->dropped.frames + fs->duplicated);
  // The ledger identity (net/faults.h), in frames and bytes, with the
  // receiving socket's count as `delivered`.
  EXPECT_EQ(net::ledger_in(*fs), net::ledger_out(*fs, {received, received_bytes}, {}));
}

TEST(FaultTransportTest, KeepalivesOutliveTotalAppLoss) {
  net::UdpConfig cfg;
  cfg.idle_timeout = SimDuration::millis(400);
  cfg.keepalive_interval = SimDuration::millis(50);
  Loopback lo(cfg);
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  net::FaultInjectingTransport fb(*lo.b, lo.clock);
  ASSERT_TRUE(fb.send(lo.b_local, lo.b_to_a, make_frame(5, 1, 16)));
  fb.flush_egress();
  std::vector<net::Delivery> got;
  for (int spins = 0; spins < 2000 && got.empty(); ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    got = lo.a->poll(lo.a_local);
  }
  ASSERT_EQ(got.size(), 1u);
  const net::EndpointId b_peer = got[0].from;
  for (auto& d : got) net::BufferPool::instance().release(std::move(d.frame.payload));

  // From here on the wrapper eats EVERY application frame — but keepalives
  // are the inner transport's own machinery, beneath the fault layer, so
  // the session must stay alive through the blackout.
  net::FaultPlan plan;
  plan.seed = 1;
  plan.all_links.loss = 1.0;
  fb.set_fault_plan(plan);

  const std::uint64_t frames_before = lo.a->ingress_frames(lo.a_local);
  const auto start = std::chrono::steady_clock::now();
  std::uint32_t seq = 2;
  // Run well past the idle timeout: without keepalives this silence would
  // disconnect the peer (cf. IdleTimeoutDisconnects above).
  while (std::chrono::steady_clock::now() - start < std::chrono::milliseconds(700)) {
    fb.send(lo.b_local, lo.b_to_a, make_frame(6, seq++, 16));
    fb.flush_egress();
    lo.b->pump(/*timeout_ms=*/2);
    lo.a->pump(/*timeout_ms=*/3);
    lo.a->poll(lo.a_local);
  }
  EXPECT_TRUE(lo.a->connected(lo.a_local, b_peer))
      << "idle timeout fired despite keepalives under total app-frame loss";
  EXPECT_EQ(lo.a->stats().idle_disconnects, 0u);
  EXPECT_EQ(lo.a->ingress_frames(lo.a_local), frames_before);
  EXPECT_GT(lo.a->stats().keepalives_received, 0u);
}

TEST(FaultTransportTest, ReassemblySurvivesWrapperChaos) {
  Loopback lo;
  if (!lo.ok()) GTEST_SKIP() << "no usable UDP sockets: " << lo.a->error();

  net::FaultInjectingTransport fb(*lo.b, lo.clock);
  net::FaultPlan plan;
  plan.seed = 23;
  plan.all_links.loss = 0.2;
  plan.all_links.reorder = 0.5;
  plan.all_links.reorder_extra = SimDuration::millis(10);
  fb.set_fault_plan(plan);

  // Every frame is over-MTU: each surviving one must fragment and reassemble
  // cleanly even though whole frames around it vanish or arrive late.
  const std::size_t offered = 40;
  const std::size_t payload = 3000;
  std::size_t received = 0, intact = 0;
  const auto collect = [&] {
    for (auto& d : lo.a->poll(lo.a_local)) {
      ++received;
      const Frame want = make_frame(9, d.frame.seq, payload);
      if (d.frame.payload == want.payload) ++intact;
      net::BufferPool::instance().release(std::move(d.frame.payload));
    }
  };
  for (std::size_t i = 0; i < offered; ++i) {
    ASSERT_TRUE(fb.send(lo.b_local, lo.b_to_a, make_frame(9, static_cast<std::uint32_t>(i + 1), payload)));
    if ((i + 1) % 5 == 0) {
      fb.flush_egress();
      lo.clock.advance(SimDuration::millis(12));
      lo.a->pump(/*timeout_ms=*/2);
      collect();
    }
  }
  lo.clock.advance(SimDuration::seconds(1));
  fb.flush_egress();
  const net::FaultStats* fs = &fb.fault_stats(lo.b_to_a);
  for (int spins = 0; spins < 2000 && received < offered - fs->dropped.frames; ++spins) {
    lo.a->pump(/*timeout_ms=*/5);
    collect();
  }

  EXPECT_EQ(received, offered - fs->dropped.frames);
  EXPECT_EQ(intact, received) << "a reassembled frame came back corrupted";
  EXPECT_GE(lo.a->stats().frames_reassembled, received);
}

/// One seeded chaos run over loopback in which every frame goes through
/// the fault layer as an owned frame or as a shared-frame send. Returns the
/// decision digest; checks the ledger closes and that no corruption
/// reached a shared master.
std::uint64_t chaos_run_over_loopback(bool shared) {
  Loopback lo;
  net::FaultInjectingTransport fb(*lo.b, lo.clock);
  net::FaultPlan plan;
  plan.seed = 31;
  plan.all_links.loss = 0.2;
  plan.all_links.duplicate = 0.1;
  plan.all_links.corrupt = 0.2;
  plan.all_links.reorder = 0.2;
  plan.all_links.reorder_extra = SimDuration::millis(20);
  fb.set_fault_plan(plan);

  const std::vector<Frame> frames = staging_edge_frames();
  std::size_t received = 0, received_bytes = 0;
  const auto collect = [&] {
    for (auto& d : lo.a->poll(lo.a_local)) {
      ++received;
      received_bytes += d.frame.wire_size();
      net::BufferPool::instance().release(std::move(d.frame.payload));
    }
  };
  std::size_t offered = 0;
  for (int round = 0; round < 8; ++round) {
    for (const Frame& f : frames) {
      const auto seq = static_cast<std::uint32_t>(++offered);
      if (shared) {
        const net::SharedFrame master(f.tag, f.payload);
        EXPECT_TRUE(fb.send_shared(lo.b_local, lo.b_to_a, master, seq, {}));
        EXPECT_EQ(master.payload(), f.payload) << "the fault layer corrupted the master";
      } else {
        EXPECT_TRUE(
            fb.send(lo.b_local, lo.b_to_a, make_frame(f.tag, seq, f.payload.size())));
      }
    }
    fb.flush_egress();
    lo.clock.advance(SimDuration::millis(25));
    lo.a->pump(/*timeout_ms=*/2);
    collect();
  }
  lo.clock.advance(SimDuration::seconds(1));  // every holdback comes due
  fb.flush_egress();
  const net::FaultStats& fs = fb.fault_stats(lo.b_to_a);
  const net::Tally want = net::ledger_in(fs);
  for (int spins = 0; spins < 2000; ++spins) {
    if (net::ledger_out(fs, {received, received_bytes}, fb.held(lo.b_to_a)) == want) break;
    lo.a->pump(/*timeout_ms=*/2);
    collect();
  }
  EXPECT_GT(fs.corrupted, 0u);
  EXPECT_GT(fs.dropped.frames, 0u);
  EXPECT_EQ(fb.frames_held(), 0u);
  EXPECT_EQ(want, net::ledger_out(fs, {received, received_bytes}, {}));
  return fb.decision_hash();
}

// The fault layer keeps Transport's default shared send (an owned copy per
// recipient, which it may corrupt): the same plan makes the same decisions
// whichever form the frames were offered in.
TEST(FaultTransportTest, SharedSendsMakeTheOwnedFramesDecisions) {
  Loopback probe;
  if (!probe.ok()) GTEST_SKIP() << "no usable UDP sockets: " << probe.a->error();
  const std::uint64_t owned = chaos_run_over_loopback(/*shared=*/false);
  const std::uint64_t shared = chaos_run_over_loopback(/*shared=*/true);
  EXPECT_EQ(owned, shared);
}

}  // namespace
}  // namespace dyconits
