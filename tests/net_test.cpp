// Unit tests for src/net: wire codec, the simulated network, and the fault
// layer over it.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "net/bytes.h"
#include "net/fault_transport.h"
#include "net/sim_network.h"

namespace dyconits::net {
namespace {

// ------------------------------------------------------------------- bytes

TEST(BytesTest, FixedWidthRoundtrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f32(3.5f);
  w.f64(-2.25);

  ByteReader r(w.bytes());
  std::uint8_t a;
  std::uint16_t b;
  std::uint32_t c;
  std::uint64_t d;
  float e;
  double f;
  ASSERT_TRUE(r.u8(a) && r.u16(b) && r.u32(c) && r.u64(d) && r.f32(e) && r.f64(f));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_EQ(e, 3.5f);
  EXPECT_EQ(f, -2.25);
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, VarintEdgeValues) {
  const std::uint64_t values[] = {0,      1,      127,        128,
                                  16383,  16384,  0xFFFFFFFF, 1ull << 62,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : values) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(w.size(), varint_size(v));
    ByteReader r(w.bytes());
    std::uint64_t out;
    ASSERT_TRUE(r.varint(out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(BytesTest, VarintSizes) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 3u);
  EXPECT_EQ(varint_size(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(BytesTest, SvarintRoundtrip) {
  const std::int64_t values[] = {0,  -1, 1,  -64, 64, -65,
                                 -1000000, 1000000,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const auto v : values) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.bytes());
    std::int64_t out;
    ASSERT_TRUE(r.svarint(out));
    EXPECT_EQ(out, v);
  }
}

TEST(BytesTest, SmallSignedValuesAreOneByte) {
  ByteWriter w;
  w.svarint(-5);
  EXPECT_EQ(w.size(), 1u);  // zigzag keeps small magnitudes small
}

TEST(BytesTest, StringAndBlobRoundtrip) {
  ByteWriter w;
  w.str("hello world");
  w.str("");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255};
  w.blob(blob);

  ByteReader r(w.bytes());
  std::string s1, s2;
  std::vector<std::uint8_t> b;
  ASSERT_TRUE(r.str(s1) && r.str(s2) && r.blob(b));
  EXPECT_EQ(s1, "hello world");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(b, blob);
}

TEST(BytesTest, UnderflowFailsAndPoisons) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.bytes());
  std::uint32_t v;
  EXPECT_FALSE(r.u32(v));
  EXPECT_FALSE(r.ok());
  std::uint8_t b;
  EXPECT_FALSE(r.u8(b));  // poisoned: even a fitting read fails
}

TEST(BytesTest, TruncatedVarintFails) {
  const std::uint8_t data[] = {0x80, 0x80};  // continuation bits, no end
  ByteReader r(data, sizeof(data));
  std::uint64_t v;
  EXPECT_FALSE(r.varint(v));
}

TEST(BytesTest, OverlongVarintFails) {
  // 11 bytes of continuation would exceed 64 bits.
  const std::uint8_t data[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                               0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ByteReader r(data, sizeof(data));
  std::uint64_t v;
  EXPECT_FALSE(r.varint(v));
}

TEST(BytesTest, BlobLengthBeyondBufferFails) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes, provides none
  ByteReader r(w.bytes());
  std::vector<std::uint8_t> b;
  EXPECT_FALSE(r.blob(b));
}

// ------------------------------------------------------------- sim network

class SimNetworkTest : public ::testing::Test {
 protected:
  SimNetworkTest() : net_(clock_) {
    a_ = net_.create_endpoint("a");
    b_ = net_.create_endpoint("b");
    net_.connect(a_, b_, {SimDuration::millis(25), 0.0});
  }

  static Frame frame(std::uint8_t tag, std::size_t payload_size) {
    Frame f;
    f.tag = tag;
    f.payload.assign(payload_size, 0x42);
    return f;
  }

  SimClock clock_;
  SimNetwork net_;
  EndpointId a_ = 0, b_ = 0;
};

TEST_F(SimNetworkTest, DeliversAfterLatency) {
  ASSERT_TRUE(net_.send(a_, b_, frame(1, 10)));
  EXPECT_TRUE(net_.poll(b_).empty());  // not yet
  clock_.advance(SimDuration::millis(24));
  EXPECT_TRUE(net_.poll(b_).empty());
  clock_.advance(SimDuration::millis(1));
  const auto got = net_.poll(b_);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, a_);
  EXPECT_EQ(got[0].frame.tag, 1);
  EXPECT_EQ((got[0].arrival - got[0].sent).count_millis(), 25);
}

TEST_F(SimNetworkTest, PollIsDestructive) {
  net_.send(a_, b_, frame(1, 1));
  clock_.advance(SimDuration::millis(30));
  EXPECT_EQ(net_.poll(b_).size(), 1u);
  EXPECT_TRUE(net_.poll(b_).empty());
}

TEST_F(SimNetworkTest, SendWithoutLinkFailsUncounted) {
  const EndpointId c = net_.create_endpoint("c");
  EXPECT_FALSE(net_.send(a_, c, frame(1, 10)));
  EXPECT_EQ(net_.egress_bytes(a_), 0u);
  EXPECT_EQ(net_.total_frames(), 0u);
}

TEST_F(SimNetworkTest, DisconnectStopsTraffic) {
  net_.disconnect(a_, b_);
  EXPECT_FALSE(net_.connected(a_, b_));
  EXPECT_FALSE(net_.send(a_, b_, frame(1, 1)));
}

TEST_F(SimNetworkTest, FifoPerPair) {
  for (int i = 0; i < 10; ++i) {
    Frame f = frame(1, 1);
    f.payload[0] = static_cast<std::uint8_t>(i);
    net_.send(a_, b_, std::move(f));
    clock_.advance(SimDuration::millis(1));
  }
  clock_.advance(SimDuration::seconds(1));
  const auto got = net_.poll(b_);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i].frame.payload[0], i);
}

TEST_F(SimNetworkTest, FifoHoldsUnderJitter) {
  net_.connect(a_, b_, {SimDuration::millis(25), 0.9});
  SimTime prev = SimTime::zero();
  for (int i = 0; i < 200; ++i) {
    net_.send(a_, b_, frame(1, 1));
    clock_.advance(SimDuration::millis(1));
  }
  clock_.advance(SimDuration::seconds(2));
  const auto got = net_.poll(b_);
  ASSERT_EQ(got.size(), 200u);
  for (const auto& d : got) {
    EXPECT_GE(d.arrival, prev);  // non-decreasing despite jitter
    prev = d.arrival;
  }
}

TEST_F(SimNetworkTest, JitterStaysWithinBounds) {
  net_.connect(a_, b_, {SimDuration::millis(100), 0.2});
  for (int i = 0; i < 100; ++i) {
    net_.send(a_, b_, frame(1, 1));
    clock_.advance(SimDuration::seconds(1));  // spaced out: no FIFO clamping
  }
  clock_.advance(SimDuration::seconds(2));
  for (const auto& d : net_.poll(b_)) {
    const auto lat = (d.arrival - d.sent).count_millis();
    EXPECT_GE(lat, 80);
    EXPECT_LE(lat, 120);
  }
}

TEST_F(SimNetworkTest, NonFifoLinksCanReorder) {
  net_.connect(a_, b_, {SimDuration::millis(50), 0.8, /*fifo=*/false});
  for (int i = 0; i < 300; ++i) {
    Frame f = frame(1, 2);
    f.payload[0] = static_cast<std::uint8_t>(i & 0xFF);
    f.payload[1] = static_cast<std::uint8_t>(i >> 8);
    net_.send(a_, b_, std::move(f));
    clock_.advance(SimDuration::millis(5));
  }
  clock_.advance(SimDuration::seconds(2));
  const auto got = net_.poll(b_);
  ASSERT_EQ(got.size(), 300u);
  int inversions = 0;
  int prev = -1;
  for (const auto& d : got) {
    const int seq = d.frame.payload[0] | (d.frame.payload[1] << 8);
    if (seq < prev) ++inversions;
    prev = std::max(prev, seq);
  }
  EXPECT_GT(inversions, 0);  // jitter actually reordered something
}

TEST_F(SimNetworkTest, WireSizeAndAccounting) {
  Frame f = frame(3, 100);
  // tag + varint(seq=0) + varint(length) + payload
  const std::size_t expected = 1 + 1 + 1 + 100;
  EXPECT_EQ(f.wire_size(), expected);
  net_.send(a_, b_, std::move(f));
  EXPECT_EQ(net_.egress_bytes(a_), expected);
  EXPECT_EQ(net_.ingress_bytes(b_), expected);
  EXPECT_EQ(net_.egress_frames(a_), 1u);
  EXPECT_EQ(net_.egress_bytes_by_tag(a_, 3), expected);
  EXPECT_EQ(net_.egress_bytes_by_tag(a_, 4), 0u);
  EXPECT_EQ(net_.total_bytes(), expected);
}

TEST_F(SimNetworkTest, LargePayloadVarintHeader) {
  Frame f = frame(1, 300);
  EXPECT_EQ(f.wire_size(), 1 + 1 + 2 + 300u);  // 300 needs a 2-byte varint
}

TEST_F(SimNetworkTest, SequencedFrameWireSize) {
  Frame f = frame(1, 10);
  f.seq = 200;  // needs a 2-byte varint
  EXPECT_EQ(f.wire_size(), 1 + 2 + 1 + 10u);
}

TEST_F(SimNetworkTest, RateLimitAddsQueueingDelay) {
  net_.set_egress_rate(a_, 1000);  // 1000 B/s
  // Two 103-byte frames: the second waits for the first's serialization.
  net_.send(a_, b_, frame(1, 100));
  net_.send(a_, b_, frame(1, 100));
  clock_.advance(SimDuration::seconds(5));
  const auto got = net_.poll(b_);
  ASSERT_EQ(got.size(), 2u);
  const auto lat0 = (got[0].arrival - got[0].sent).count_millis();
  const auto lat1 = (got[1].arrival - got[1].sent).count_millis();
  EXPECT_NEAR(static_cast<double>(lat0), 25 + 103, 2);       // tx time + latency
  EXPECT_NEAR(static_cast<double>(lat1), 25 + 2 * 103, 2);   // queued behind first
}

TEST_F(SimNetworkTest, UnlimitedRateNoQueueing) {
  net_.send(a_, b_, frame(1, 100000));
  clock_.advance(SimDuration::millis(25));
  EXPECT_EQ(net_.poll(b_).size(), 1u);
}

TEST_F(SimNetworkTest, PendingCount) {
  net_.send(a_, b_, frame(1, 1));
  net_.send(a_, b_, frame(1, 1));
  EXPECT_EQ(net_.pending_count(b_), 2u);
  clock_.advance(SimDuration::seconds(1));
  net_.poll(b_);
  EXPECT_EQ(net_.pending_count(b_), 0u);
}

TEST_F(SimNetworkTest, BidirectionalLink) {
  net_.send(b_, a_, frame(2, 5));
  clock_.advance(SimDuration::millis(25));
  const auto got = net_.poll(a_);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, b_);
}

TEST_F(SimNetworkTest, EndpointNames) {
  EXPECT_EQ(net_.endpoint_name(a_), "a");
  EXPECT_EQ(net_.endpoint_name(b_), "b");
}

TEST_F(SimNetworkTest, InterleavedSourcesOrderedByArrival) {
  const EndpointId c = net_.create_endpoint("c");
  net_.connect(c, b_, {SimDuration::millis(5), 0.0});
  net_.send(a_, b_, frame(1, 1));  // arrives t+25
  net_.send(c, b_, frame(2, 1));   // arrives t+5
  clock_.advance(SimDuration::millis(30));
  const auto got = net_.poll(b_);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].frame.tag, 2);  // c's frame first
  EXPECT_EQ(got[1].frame.tag, 1);
}

TEST_F(SimNetworkTest, DisconnectDropsInFlightAccounted) {
  net_.send(a_, b_, frame(2, 50));
  net_.send(a_, b_, frame(2, 50));
  EXPECT_EQ(net_.pending_count(b_), 2u);
  net_.disconnect(a_, b_);
  EXPECT_EQ(net_.pending_count(b_), 0u);
  EXPECT_EQ(net_.pending_bytes(b_), 0u);
  EXPECT_EQ(net_.dropped_frames(b_), 2u);
  EXPECT_EQ(net_.dropped_bytes(b_), 2 * (1 + 1 + 1 + 50u));
  EXPECT_EQ(net_.ingress_bytes(b_),
            net_.polled_bytes(b_) + net_.pending_bytes(b_) + net_.dropped_bytes(b_));
  clock_.advance(SimDuration::seconds(1));
  EXPECT_TRUE(net_.poll(b_).empty());
}

// ------------------------------------------------------------- fault layer
// FaultInjectingTransport (the one fault layer) over the SimNetwork link
// model: the composition every sim chaos run uses.

class FaultLayerTest : public SimNetworkTest {
 protected:
  void install(FaultPlan plan) { fi_.set_fault_plan(std::move(plan)); }
  void at(std::int64_t ms, FaultEvent::Kind kind, EndpointId a,
          EndpointId b = kInvalidEndpoint) {
    fi_.apply_event({SimTime::zero() + SimDuration::millis(ms), kind, a, b});
  }

  /// Sends `n` frames (one per ms, flushing like a tick loop), advances
  /// past every arrival and holdback, returns what was delivered.
  std::vector<Delivery> blast(int n, std::size_t payload = 10) {
    for (int i = 0; i < n; ++i) {
      Frame f = frame(1, payload);
      f.seq = static_cast<std::uint32_t>(i + 1);
      fi_.send(a_, b_, std::move(f));
      fi_.flush_egress();
      clock_.advance(SimDuration::millis(1));
    }
    clock_.advance(SimDuration::seconds(2));
    fi_.flush_egress();
    clock_.advance(SimDuration::seconds(1));
    return fi_.poll(b_);
  }

  /// The ledger identity for frames addressed to b (net/faults.h).
  void expect_ledger_closed() {
    const FaultStats& fs = fi_.fault_stats(b_);
    const Tally in_flight =
        fi_.held(b_) + Tally{net_.pending_count(b_), net_.pending_bytes(b_)};
    EXPECT_EQ(ledger_in(fs), ledger_out(fs, delivered(fs), in_flight));
  }

  FaultInjectingTransport fi_{net_, clock_};
};

TEST_F(FaultLayerTest, LossDropsAndAccounts) {
  FaultPlan plan;
  plan.seed = 7;
  plan.all_links.loss = 0.25;
  install(plan);
  const auto got = blast(400);
  const FaultStats& fs = fi_.fault_stats(b_);
  EXPECT_GT(fs.dropped.loss, 50u);
  EXPECT_LT(fs.dropped.loss, 150u);
  EXPECT_EQ(fs.dropped.frames, fs.dropped.loss);
  EXPECT_EQ(got.size() + fs.dropped.frames, 400u);
  EXPECT_EQ(fs.offered, 400u);
  // Injected on the sending side: the link model never saw the lost frames.
  EXPECT_EQ(net_.egress_frames(a_), 400u - fs.dropped.frames);
  EXPECT_EQ(fi_.injected_totals().dropped.frames, fs.dropped.frames);
  expect_ledger_closed();
}

TEST_F(FaultLayerTest, DuplicationDeliversExtraCopies) {
  FaultPlan plan;
  plan.seed = 7;
  plan.all_links.duplicate = 0.2;
  install(plan);
  const auto got = blast(300);
  const FaultStats& fs = fi_.fault_stats(b_);
  EXPECT_GT(fs.duplicated, 30u);
  EXPECT_EQ(got.size(), 300u + fs.duplicated);
  EXPECT_EQ(net_.ingress_frames(b_), 300u + fs.duplicated);
  // The ledger counts each offered frame once; copies are extra.
  EXPECT_EQ(fs.offered, 300u);
  expect_ledger_closed();
}

TEST_F(FaultLayerTest, CorruptionFlipsPayloadBitsOnly) {
  FaultPlan plan;
  plan.seed = 7;
  plan.all_links.corrupt = 1.0;  // every frame
  install(plan);
  Frame f = frame(5, 64);
  f.seq = 1234;
  fi_.send(a_, b_, std::move(f));
  clock_.advance(SimDuration::seconds(1));
  const auto got = fi_.poll(b_);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(fi_.fault_stats(b_).corrupted, 1u);
  // Header-protected: tag and seq survive, payload changed.
  EXPECT_EQ(got[0].frame.tag, 5);
  EXPECT_EQ(got[0].frame.seq, 1234u);
  EXPECT_NE(got[0].frame.payload, std::vector<std::uint8_t>(64, 0x42));
  expect_ledger_closed();
}

TEST_F(FaultLayerTest, ReorderBreaksFifo) {
  FaultPlan plan;
  plan.seed = 9;
  plan.all_links.reorder = 0.3;
  plan.all_links.reorder_extra = SimDuration::millis(50);
  install(plan);
  const auto got = blast(200, 4);
  ASSERT_EQ(got.size(), 200u);
  EXPECT_GT(fi_.fault_stats(b_).reordered, 20u);
  int inversions = 0;
  std::uint32_t prev = 0;
  for (const auto& d : got) {
    if (d.frame.seq < prev) ++inversions;
    prev = std::max(prev, d.frame.seq);
  }
  EXPECT_GT(inversions, 0);  // despite the link being FIFO
  expect_ledger_closed();
}

TEST_F(FaultLayerTest, LinkDownRefusesAndHealsWithParams) {
  fi_.send(a_, b_, frame(1, 10));  // in flight when the link goes down
  at(0, FaultEvent::Kind::LinkDown, a_, b_);
  EXPECT_FALSE(fi_.connected(a_, b_));
  EXPECT_FALSE(fi_.send(a_, b_, frame(1, 10)));
  EXPECT_EQ(fi_.fault_stats(b_).refused, 1u);
  clock_.advance(SimDuration::millis(25));
  EXPECT_TRUE(fi_.poll(b_).empty());  // arrived while down: dropped
  EXPECT_EQ(fi_.fault_stats(b_).dropped.disconnect, 1u);
  at(25, FaultEvent::Kind::LinkUp, a_, b_);
  EXPECT_TRUE(fi_.connected(a_, b_));
  ASSERT_TRUE(fi_.send(a_, b_, frame(1, 10)));
  clock_.advance(SimDuration::millis(25));
  const auto got = fi_.poll(b_);
  ASSERT_EQ(got.size(), 1u);
  // The link model never changed: the healed link keeps its 25 ms latency.
  EXPECT_EQ((got[0].arrival - got[0].sent).count_millis(), 25);
  expect_ledger_closed();
}

TEST_F(FaultLayerTest, CrashRefusesBothWaysAndDropsArrivals) {
  fi_.send(a_, b_, frame(1, 10));
  at(0, FaultEvent::Kind::Crash, b_);
  EXPECT_FALSE(fi_.send(a_, b_, frame(1, 10)));  // to a crashed endpoint
  EXPECT_FALSE(fi_.send(b_, a_, frame(1, 10)));  // from a crashed endpoint
  clock_.advance(SimDuration::seconds(1));
  EXPECT_TRUE(fi_.poll(b_).empty());
  EXPECT_EQ(fi_.fault_stats(b_).dropped.crash, 1u);
  EXPECT_EQ(fi_.fault_stats(b_).refused, 1u);
  EXPECT_EQ(fi_.fault_stats(a_).refused, 1u);
  at(1000, FaultEvent::Kind::Restart, b_);
  ASSERT_TRUE(fi_.send(a_, b_, frame(1, 10)));  // the link survived the crash
  clock_.advance(SimDuration::seconds(1));
  EXPECT_EQ(fi_.poll(b_).size(), 1u);
  expect_ledger_closed();
}

TEST_F(FaultLayerTest, CrashMovesPendingBytesIntoTheLedger) {
  // Fill b's inbox, then crash it with frames still pending: the next poll
  // must move those bytes to dropped.crash_bytes, not leave them pending —
  // pending_bytes is the overload controller's backpressure signal.
  for (int i = 0; i < 50; ++i) {
    fi_.send(a_, b_, frame(1, 32));
    clock_.advance(SimDuration::millis(1));
  }
  clock_.advance(SimDuration::seconds(2));
  const std::uint64_t pending_before = fi_.pending_bytes(b_);
  ASSERT_GT(pending_before, 0u);

  at(2050, FaultEvent::Kind::Crash, b_);
  EXPECT_TRUE(fi_.poll(b_).empty());
  const FaultStats& fs = fi_.fault_stats(b_);
  EXPECT_EQ(fi_.pending_bytes(b_), 0u);
  EXPECT_EQ(fs.dropped.crash_bytes, pending_before);
  expect_ledger_closed();
}

TEST_F(FaultLayerTest, ScheduledEventsFireBySimTime) {
  FaultPlan plan;
  plan.events.push_back({SimTime::zero() + SimDuration::millis(100),
                         FaultEvent::Kind::LinkDown, a_, b_});
  plan.events.push_back({SimTime::zero() + SimDuration::millis(200),
                         FaultEvent::Kind::LinkUp, a_, b_});
  install(plan);
  EXPECT_TRUE(fi_.connected(a_, b_));
  clock_.advance(SimDuration::millis(150));
  fi_.flush_egress();  // the per-tick call fires due events
  EXPECT_FALSE(fi_.connected(a_, b_));
  clock_.advance(SimDuration::millis(100));
  fi_.flush_egress();
  EXPECT_TRUE(fi_.connected(a_, b_));
}

TEST_F(FaultLayerTest, SameSeedSameFaults) {
  std::vector<std::uint64_t> fingerprints;
  for (int run = 0; run < 2; ++run) {
    SimClock clock;
    SimNetwork net(clock, 99);
    FaultInjectingTransport fi(net, clock);
    const EndpointId a = fi.create_endpoint("a");
    const EndpointId b = fi.create_endpoint("b");
    net.connect(a, b, {SimDuration::millis(25), 0.2});
    FaultPlan plan;
    plan.seed = 4242;
    plan.all_links = {0.1, 0.1, 0.1, 0.1};
    fi.set_fault_plan(plan);
    Fnv1a fp;
    std::uint32_t seq = 0;
    for (int i = 0; i < 500; ++i) {
      Frame f;
      f.tag = 1;
      f.seq = ++seq;
      f.payload.assign(16, static_cast<std::uint8_t>(i));
      fi.send(a, b, std::move(f));
      fi.flush_egress();
      clock.advance(SimDuration::millis(1));
      for (const auto& d : fi.poll(b)) {
        fp.bytes(d.frame.payload.data(), d.frame.payload.size());
        fp.u64(d.frame.seq);
        fp.u64(static_cast<std::uint64_t>(d.arrival.count_micros()));
      }
    }
    const FaultStats& fs = fi.fault_stats(b);
    EXPECT_GT(fs.dropped.loss, 0u);
    EXPECT_GT(fs.duplicated, 0u);
    fp.u64(fs.dropped.frames);
    fp.u64(fs.duplicated);
    fp.u64(fs.corrupted);
    fp.u64(fi.decision_hash());
    fingerprints.push_back(fp.value());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST_F(FaultLayerTest, InertPlanLeavesJitterStreamUnchanged) {
  // The same traffic over the bare link model and through the fault layer
  // with an installed but inert plan: the jitter stream must be
  // byte-identical — faults draw from their own RNG.
  std::vector<std::int64_t> arrivals[2];
  for (int run = 0; run < 2; ++run) {
    SimClock clock;
    SimNetwork net(clock, 55);
    FaultInjectingTransport fi(net, clock);
    Transport& t = run == 0 ? static_cast<Transport&>(net) : fi;
    const EndpointId a = t.create_endpoint("a");
    const EndpointId b = t.create_endpoint("b");
    net.connect(a, b, {SimDuration::millis(25), 0.5});
    if (run == 1) {
      FaultPlan plan;
      plan.all_links.loss = 0.0;  // installed but inert
      fi.set_fault_plan(plan);
    }
    for (int i = 0; i < 100; ++i) {
      t.send(a, b, Frame{1, 0, {0x42}, SimTime::zero()});
      clock.advance(SimDuration::seconds(1));
    }
    clock.advance(SimDuration::seconds(1));
    for (const auto& d : t.poll(b)) arrivals[run].push_back(d.arrival.count_micros());
  }
  EXPECT_EQ(arrivals[0], arrivals[1]);
}

TEST_F(FaultLayerTest, ConservationLedgerCloses) {
  FaultPlan plan;
  plan.seed = 31337;
  plan.all_links = {0.15, 0.1, 0.05, 0.1};
  plan.all_links.send_fail = 0.05;
  // A crash window and a link flap add refusals and in-poll drops.
  plan.events.push_back({SimTime::zero() + SimDuration::millis(300),
                         FaultEvent::Kind::Crash, b_, kInvalidEndpoint});
  plan.events.push_back({SimTime::zero() + SimDuration::millis(400),
                         FaultEvent::Kind::Restart, b_, kInvalidEndpoint});
  plan.events.push_back({SimTime::zero() + SimDuration::millis(600),
                         FaultEvent::Kind::LinkDown, a_, b_});
  plan.events.push_back({SimTime::zero() + SimDuration::millis(700),
                         FaultEvent::Kind::LinkUp, a_, b_});
  install(plan);
  for (int i = 0; i < 1000; ++i) {
    fi_.send(a_, b_, frame(1, 8 + static_cast<std::size_t>(i % 40)));
    fi_.flush_egress();
    clock_.advance(SimDuration::millis(1));
    if (i % 50 == 0) fi_.poll(b_);
  }
  // Deliberately do NOT drain fully: held and pending frames must balance
  // the books.
  const FaultStats& fs = fi_.fault_stats(b_);
  EXPECT_GT(net_.pending_count(b_), 0u);
  EXPECT_GT(fs.refused, 0u);
  EXPECT_GT(fs.send_failed, 0u);
  EXPECT_GT(fs.dropped.loss, 0u);
  EXPECT_GT(fs.dropped.crash, 0u);
  EXPECT_GT(fs.dropped.disconnect, 0u);
  expect_ledger_closed();
  // Beneath the fault layer the link model's own books close too: every
  // frame it accepted was polled (delivered or dropped in poll) or is
  // still pending.
  EXPECT_EQ(net_.ingress_bytes(b_),
            net_.polled_bytes(b_) + net_.pending_bytes(b_) + net_.dropped_bytes(b_));
}

}  // namespace
}  // namespace dyconits::net
