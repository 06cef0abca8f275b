// Unit tests for src/util: simulated time, RNG, statistics, flags, and the
// coalescing queue shared by the dyconit and egress queues, and the flat id
// set built on the same probe table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/coalescing_queue.h"
#include "util/flags.h"
#include "util/id_set.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace dyconits {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTimeTest, DurationConstructors) {
  EXPECT_EQ(SimDuration::millis(3).count_micros(), 3000);
  EXPECT_EQ(SimDuration::seconds(2).count_micros(), 2000000);
  EXPECT_EQ(SimDuration::micros(7).count_micros(), 7);
  EXPECT_EQ(SimDuration::millis(1500).count_millis(), 1500);
  EXPECT_DOUBLE_EQ(SimDuration::millis(500).as_seconds(), 0.5);
}

TEST(SimTimeTest, DurationArithmetic) {
  const SimDuration a = SimDuration::millis(30);
  const SimDuration b = SimDuration::millis(20);
  EXPECT_EQ((a + b).count_millis(), 50);
  EXPECT_EQ((a - b).count_millis(), 10);
  EXPECT_EQ((a * 3).count_millis(), 90);
  EXPECT_EQ((a / 2).count_millis(), 15);
  SimDuration c = a;
  c += b;
  EXPECT_EQ(c.count_millis(), 50);
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(SimTimeTest, DurationComparison) {
  EXPECT_LT(SimDuration::millis(1), SimDuration::millis(2));
  EXPECT_GE(SimDuration::infinite(), SimDuration::seconds(1000000));
}

TEST(SimTimeTest, TimePointArithmetic) {
  SimTime t = SimTime::zero();
  t += SimDuration::millis(50);
  EXPECT_EQ(t.count_micros(), 50000);
  const SimTime later = t + SimDuration::seconds(1);
  EXPECT_EQ((later - t).count_millis(), 1000);
  EXPECT_GT(later, t);
}

TEST(SimTimeTest, ClockAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.now(), SimTime::zero());
  clock.advance(SimDuration::millis(50));
  EXPECT_EQ(clock.now().count_micros(), 50000);
  clock.advance_to(SimTime(40000));  // backwards: no-op
  EXPECT_EQ(clock.now().count_micros(), 50000);
  clock.advance_to(SimTime(70000));
  EXPECT_EQ(clock.now().count_micros(), 70000);
}

TEST(SimTimeTest, InfiniteDoesNotOverflowWhenAdded) {
  const SimTime far = SimTime::zero() + SimDuration::infinite();
  EXPECT_GT(far + SimDuration::seconds(100000), far);  // no wraparound
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng r(0);
  EXPECT_NE(r.next_u64(), 0u);  // splitmix rescues the all-zero state
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(RngTest, NextInInclusiveRange) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleMeanIsCentered) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, ChanceProportion) {
  Rng r(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng r(23);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng r(29);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[r.next_zipf(5, 1.2)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[3]);
  for (const auto& [k, v] : counts) EXPECT_LT(k, 5u);
}

TEST(RngTest, ZipfDegenerateSupport) {
  Rng r(31);
  EXPECT_EQ(r.next_zipf(0, 1.0), 0u);
  EXPECT_EQ(r.next_zipf(1, 1.0), 0u);
}

TEST(RngTest, SplitStreamsAreIndependentlyDeterministic) {
  Rng a(41);
  Rng child1 = a.split();
  Rng b(41);
  Rng child2 = b.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

// ----------------------------------------------------------- RunningStats

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  Rng r(43);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = r.next_gaussian() * 3 + 1;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// ---------------------------------------------------------------- Samples

TEST(SamplesTest, PercentilesOnKnownData) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.95), 95.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SamplesTest, EmptyReturnsZero) {
  Samples s;
  EXPECT_EQ(s.percentile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SamplesTest, AddAfterQueryResorts) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(1.0);  // added out of order after a sort
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(SamplesTest, ClampOutOfRangeQuantile) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(2.0), 2.0);
}

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogramTest, PercentileUpperBounds) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(3.0);  // bucket [2,4)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
}

TEST(LogHistogramTest, SmallValuesLandInFirstBucket) {
  LogHistogram h;
  h.add(0.1);
  h.add(0.9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.0);
}

TEST(LogHistogramTest, EmptyReturnsFirstBucketEdge) {
  // An empty histogram reports bucket 0's upper edge — the same value a
  // histogram full of sub-1.0 samples reports — so downstream tables never
  // see a 0.0 that no bucket could produce. Callers distinguish the two
  // cases via count().
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.0);
}

TEST(LogHistogramTest, SingleBucketAllQuantilesAgree) {
  LogHistogram h;
  h.add(5.0);  // bucket [4,8)
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 8.0) << "q=" << q;
  }
}

TEST(LogHistogramTest, MixedDistribution) {
  LogHistogram h;
  for (int i = 0; i < 90; ++i) h.add(2.0);
  for (int i = 0; i < 10; ++i) h.add(1000.0);
  EXPECT_LE(h.percentile(0.5), 4.0);
  EXPECT_GE(h.percentile(0.99), 1024.0);
}

// ------------------------------------------------------------------ Flags

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--players=50", "--policy=aoi", "--verbose", "pos1"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("players", 0), 50);
  EXPECT_EQ(f.get_string("policy", ""), "aoi");
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_FALSE(f.has("absent"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos1");
}

TEST(FlagsTest, Defaults) {
  const char* argv[] = {"prog"};
  Flags f(1, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_EQ(f.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("b", true));
}

TEST(FlagsTest, IntList) {
  const char* argv[] = {"prog", "--players=25,50,100"};
  Flags f(2, const_cast<char**>(argv));
  const auto v = f.get_int_list("players", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 25);
  EXPECT_EQ(v[2], 100);
  const auto d = f.get_int_list("absent", {1, 2});
  EXPECT_EQ(d.size(), 2u);
}

TEST(FlagsTest, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(FlagsTest, UnknownKeysFindsMisspellings) {
  const char* argv[] = {"prog", "--player=100", "--duration=30"};
  Flags f(3, const_cast<char**>(argv));
  const auto unknown = f.unknown_keys({"players", "duration"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "player");
  EXPECT_TRUE(f.unknown_keys({"player", "duration"}).empty());
}

TEST(FlagsTest, UnknownKeysWildcardPrefix) {
  const char* argv[] = {"prog", "--benchmark_filter=BM_Flush", "--benchmark=x"};
  Flags f(3, const_cast<char**>(argv));
  // "benchmark_*" matches by prefix; bare "benchmark" lacks the underscore.
  const auto unknown = f.unknown_keys({"benchmark_*"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "benchmark");
}

TEST(FlagsDeathTest, AssertKnownRejectsMisspelledFlag) {
  const char* argv[] = {"prog", "--player=100"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.assert_known({"players"}), testing::ExitedWithCode(2),
              "unknown flag --player");
}

TEST(FlagsTest, AssertKnownAcceptsFullVocabulary) {
  const char* argv[] = {"prog", "--players=5", "--trace=out.json"};
  Flags f(3, const_cast<char**>(argv));
  f.assert_known({"players", "trace"});  // must not exit
}

// -------------------------------------------- endpoint / duration parsing

TEST(FlagsTest, ParseEndpoint) {
  const auto ep = parse_endpoint("127.0.0.1:4600");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 4600);

  EXPECT_FALSE(parse_endpoint("").has_value());
  EXPECT_FALSE(parse_endpoint("localhost").has_value());     // no port
  EXPECT_FALSE(parse_endpoint(":4600").has_value());         // empty host
  EXPECT_FALSE(parse_endpoint("host:").has_value());         // empty port
  EXPECT_FALSE(parse_endpoint("host:0").has_value());        // port range
  EXPECT_FALSE(parse_endpoint("host:65536").has_value());
  EXPECT_FALSE(parse_endpoint("host:12ab").has_value());     // trailing junk
  EXPECT_FALSE(parse_endpoint("host:-1").has_value());
}

TEST(FlagsTest, ParseDuration) {
  EXPECT_EQ(parse_duration("500ms"), SimDuration::millis(500));
  EXPECT_EQ(parse_duration("5s"), SimDuration::seconds(5));
  EXPECT_EQ(parse_duration("250us"), SimDuration::micros(250));
  EXPECT_EQ(parse_duration("2m"), SimDuration::seconds(120));
  EXPECT_EQ(parse_duration("0s"), SimDuration(0));

  EXPECT_FALSE(parse_duration("").has_value());
  EXPECT_FALSE(parse_duration("500").has_value());    // unit required
  EXPECT_FALSE(parse_duration("ms").has_value());     // value required
  EXPECT_FALSE(parse_duration("5h").has_value());     // unknown unit
  EXPECT_FALSE(parse_duration("-5s").has_value());    // negative
  EXPECT_FALSE(parse_duration("5 s").has_value());    // embedded space
}

TEST(FlagsTest, GetEndpointAndDurationDefaults) {
  const char* argv[] = {"prog", "--listen=10.0.0.2:9000", "--net-timeout=750ms"};
  Flags f(3, const_cast<char**>(argv));
  const Endpoint ep = f.get_endpoint("listen", {"127.0.0.1", 1});
  EXPECT_EQ(ep.host, "10.0.0.2");
  EXPECT_EQ(ep.port, 9000);
  EXPECT_EQ(f.get_duration("net-timeout", SimDuration(0)), SimDuration::millis(750));
  // Absent flags return the default untouched.
  EXPECT_EQ(f.get_endpoint("connect", {"h", 7}).port, 7);
  EXPECT_EQ(f.get_duration("idle", SimDuration::seconds(3)), SimDuration::seconds(3));
}

TEST(FlagsDeathTest, MalformedEndpointExits) {
  const char* argv[] = {"prog", "--listen=nonsense"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.get_endpoint("listen", {"127.0.0.1", 1}), testing::ExitedWithCode(2),
              "expected host:port");
}

TEST(FlagsDeathTest, MalformedDurationExits) {
  const char* argv[] = {"prog", "--net-timeout=500"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EXIT(f.get_duration("net-timeout", SimDuration(0)), testing::ExitedWithCode(2),
              "unit suffix");
}

// ------------------------------------------------------- CoalescingQueue

struct Entry {
  std::uint64_t key = 0;
  int value = 0;
};
using Queue = util::CoalescingQueue<Entry, &Entry::key>;

/// What every caller does: merge into the queued slot, else append.
/// Returns true when it coalesced.
bool upsert(Queue& q, std::uint64_t key, int value) {
  if (Entry* slot = q.find(key)) {
    slot->value = value;
    return true;
  }
  q.push(Entry{key, value});
  return false;
}

std::vector<int> values(const Queue& q) {
  std::vector<int> out;
  for (std::size_t i = 0; i < q.size(); ++i) out.push_back(q[i].value);
  return out;
}

TEST(CoalescingQueueTest, StartsEmpty) {
  Queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.find(1), nullptr);
  EXPECT_EQ(q.find(0), nullptr);
}

TEST(CoalescingQueueTest, PreservesInsertionOrder) {
  Queue q;
  for (int i = 1; i <= 5; ++i) EXPECT_FALSE(upsert(q, 10 + i, i));
  EXPECT_EQ(values(q), (std::vector<int>{1, 2, 3, 4, 5}));
  for (int i = 1; i <= 5; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front().value, i);
    EXPECT_EQ(q.pop_front().value, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CoalescingQueueTest, DistinctKeysQueueSeparately) {
  Queue q;
  upsert(q, 1, 1);
  upsert(q, 2, 2);
  EXPECT_EQ(q.size(), 2u);
}

TEST(CoalescingQueueTest, ReplaceInPlaceKeepsPosition) {
  Queue q;
  for (int i = 1; i <= 5; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  EXPECT_TRUE(upsert(q, 2, 99));  // newest payload into slot 2
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(values(q), (std::vector<int>{1, 99, 3, 4, 5}));
  EXPECT_EQ(q.find(2)->value, 99);
}

TEST(CoalescingQueueTest, ZeroKeyNeverCoalesces) {
  Queue q;
  EXPECT_FALSE(upsert(q, 0, 1));
  EXPECT_FALSE(upsert(q, 0, 2));
  EXPECT_EQ(q.find(0), nullptr);
  EXPECT_EQ(values(q), (std::vector<int>{1, 2}));
  // Popping an unindexed entry leaves keyed ones findable.
  upsert(q, 7, 3);
  q.pop_front();
  ASSERT_NE(q.find(7), nullptr);
  EXPECT_EQ(q.find(7)->value, 3);
}

TEST(CoalescingQueueTest, RemoveIfKeepsSurvivorOrderAndReindexes) {
  Queue q;
  for (int i = 1; i <= 6; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  upsert(q, 0, 7);  // unkeyed survivor
  EXPECT_EQ(q.remove_if([](const Entry& e) { return e.key != 0 && e.key % 2 == 0; }), 3u);
  EXPECT_EQ(values(q), (std::vector<int>{1, 3, 5, 7}));
  // A surviving key coalesces into its moved slot (5 sat at 4, now at 2) ...
  EXPECT_TRUE(upsert(q, 5, 50));
  EXPECT_EQ(values(q), (std::vector<int>{1, 3, 50, 7}));
  // ... and a removed key appends as a fresh entry.
  EXPECT_EQ(q.find(4), nullptr);
  EXPECT_FALSE(upsert(q, 4, 40));
  EXPECT_EQ(values(q), (std::vector<int>{1, 3, 50, 7, 40}));
}

TEST(CoalescingQueueTest, RemoveIfVisitsLiveEntriesOnceFrontToBack) {
  Queue q;
  for (int i = 1; i <= 8; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  q.pop_front();
  q.pop_front();
  // Stateful predicate: drop the first two odd values it meets.
  std::vector<int> seen;
  int budget = 2;
  EXPECT_EQ(q.remove_if([&](const Entry& e) {
              seen.push_back(e.value);
              if (budget > 0 && e.value % 2 == 1) {
                --budget;
                return true;
              }
              return false;
            }),
            2u);
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(values(q), (std::vector<int>{4, 6, 7, 8}));
  EXPECT_TRUE(upsert(q, 7, 70));
  EXPECT_EQ(values(q), (std::vector<int>{4, 6, 70, 8}));
}

TEST(CoalescingQueueTest, RemoveIfNothingKeepsQueueIntact) {
  Queue q;
  for (int i = 1; i <= 4; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  q.pop_front();  // a dead prefix the no-op removal must account for
  EXPECT_EQ(q.remove_if([](const Entry&) { return false; }), 0u);
  EXPECT_EQ(values(q), (std::vector<int>{2, 3, 4}));
  EXPECT_TRUE(upsert(q, 3, 30));
  EXPECT_EQ(values(q), (std::vector<int>{2, 30, 4}));
}

TEST(CoalescingQueueTest, RePushAfterPopQueuesFresh) {
  Queue q;
  upsert(q, 1, 1);
  upsert(q, 2, 2);
  EXPECT_EQ(q.pop_front().value, 1);
  EXPECT_EQ(q.find(1), nullptr);  // popped key left the index
  EXPECT_FALSE(upsert(q, 1, 10));
  EXPECT_EQ(values(q), (std::vector<int>{2, 10}));
}

TEST(CoalescingQueueTest, TakeIntoHandsBackTheCallersCapacity) {
  Queue q;
  std::vector<Entry> scratch;
  scratch.reserve(64);
  scratch.push_back({99, 99});  // stale contents are cleared
  const Entry* const buffer = scratch.data();

  for (int i = 1; i <= 3; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  q.pop_front();  // only live entries are taken
  q.take_into(scratch);
  ASSERT_EQ(scratch.size(), 2u);
  EXPECT_EQ(scratch[0].value, 2);
  EXPECT_EQ(scratch[1].value, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.find(2), nullptr);

  // The queue now owns the caller's old buffer: the next take returns it.
  EXPECT_FALSE(upsert(q, 2, 20));
  std::vector<Entry> next;
  q.take_into(next);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].value, 20);
  EXPECT_EQ(next.data(), buffer);
  EXPECT_EQ(next.capacity(), 64u);
}

TEST(CoalescingQueueTest, ClearDropsEverything) {
  Queue q;
  for (int i = 1; i <= 5; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  q.pop_front();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.find(3), nullptr);
  EXPECT_FALSE(upsert(q, 3, 30));
  EXPECT_EQ(values(q), (std::vector<int>{30}));
}

TEST(CoalescingQueueTest, CompactionShiftsIndexAndCoalescesInPlace) {
  Queue q;
  for (int i = 1; i <= 200; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  // 150 pops cross the compaction point (dead prefix >= 128 and >= half),
  // so every surviving slot moves down and the index is re-based.
  for (int i = 1; i <= 150; ++i) ASSERT_EQ(q.pop_front().value, i);
  ASSERT_EQ(q.size(), 50u);
  EXPECT_TRUE(upsert(q, 170, -170));
  EXPECT_EQ(q.size(), 50u);
  EXPECT_EQ(q[170 - 151].value, -170);
  for (int i = 151; i <= 200; ++i) {
    EXPECT_EQ(q.pop_front().value, i == 170 ? -170 : i);
  }
}

/// `n` distinct nonzero keys whose home slot in a `capacity`-slot index is
/// `slot`, skipping the keys in `avoid`.
std::vector<std::uint64_t> keys_homed_at(std::size_t slot, std::size_t capacity,
                                         std::size_t n,
                                         const std::vector<std::uint64_t>& avoid = {}) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1; out.size() < n; ++k) {
    if (Queue::home_slot(k, capacity) != slot) continue;
    if (std::find(avoid.begin(), avoid.end(), k) != avoid.end()) continue;
    out.push_back(k);
  }
  return out;
}

TEST(CoalescingQueueTest, EraseChainWrapsPastTheEndOfTheTable) {
  // Three keys homed at the last slot of the 8-slot index occupy 7, 0 and
  // 1; a key homed at 0 is displaced to 2. Popping the first key empties
  // slot 7, and the backward shift must carry the chain back across the
  // wrap: every survivor stays findable and coalesces in place.
  Queue q;
  const std::vector<std::uint64_t> last = keys_homed_at(7, 8, 3);
  const std::uint64_t zero = keys_homed_at(0, 8, 1, last)[0];
  const std::uint64_t keys[] = {last[0], last[1], last[2], zero};
  for (int i = 0; i < 4; ++i) upsert(q, keys[i], i + 1);
  ASSERT_EQ(q.index_capacity(), 8u);
  EXPECT_EQ(q.pop_front().value, 1);
  EXPECT_EQ(q.find(last[0]), nullptr);
  for (int i = 1; i < 4; ++i) {
    ASSERT_NE(q.find(keys[i]), nullptr) << "key " << i;
    EXPECT_TRUE(upsert(q, keys[i], 10 * (i + 1)));
  }
  EXPECT_EQ(values(q), (std::vector<int>{20, 30, 40}));
  // Pop the rest one at a time; each erase re-closes the chain.
  EXPECT_EQ(q.pop_front().value, 20);
  ASSERT_NE(q.find(zero), nullptr);
  EXPECT_EQ(q.find(zero)->value, 40);
  EXPECT_EQ(q.pop_front().value, 30);
  EXPECT_EQ(q.find(zero)->value, 40);
  EXPECT_FALSE(upsert(q, last[0], 5));  // re-enters the wrapped run
  EXPECT_EQ(values(q), (std::vector<int>{40, 5}));
}

TEST(CoalescingQueueTest, KeysCollidingOnTheirHomeSlotStayDistinct) {
  // 24 keys in three home slots of a 64-slot index (adjacent runs that
  // merge): each must coalesce only with itself, before and after entries
  // leave from the middle of the runs.
  Queue q;
  std::vector<std::uint64_t> keys;
  for (const std::size_t slot : {5u, 6u, 63u}) {
    for (const std::uint64_t k : keys_homed_at(slot, 64, 8, keys)) keys.push_back(k);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) upsert(q, keys[i], static_cast<int>(i));
  ASSERT_EQ(q.index_capacity(), 64u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(upsert(q, keys[i], 100 + static_cast<int>(i)));
  }
  EXPECT_EQ(q.size(), keys.size());
  // Remove every third key; survivors keep their values and order.
  const auto gone = [&](std::uint64_t k) {
    return (std::find(keys.begin(), keys.end(), k) - keys.begin()) % 3 == 0;
  };
  EXPECT_EQ(q.remove_if([&](const Entry& e) { return gone(e.key); }), 8u);
  std::vector<int> want;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (gone(keys[i])) {
      EXPECT_EQ(q.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(q.find(keys[i]), nullptr);
      EXPECT_EQ(q.find(keys[i])->value, 100 + static_cast<int>(i));
      want.push_back(100 + static_cast<int>(i));
    }
  }
  EXPECT_EQ(values(q), want);
}

TEST(CoalescingQueueTest, GrowBetweenCoalescesKeepsEverySlot) {
  // Coalesces interleave with the pushes that double the index (8 -> 16 ->
  // 32 -> 64); after each grow every queued key still maps to its slot.
  Queue q;
  std::size_t grows = 0;
  for (int i = 1; i <= 30; ++i) {
    const std::size_t before = q.index_capacity();
    EXPECT_FALSE(upsert(q, static_cast<std::uint64_t>(i), i));
    if (q.index_capacity() != before) ++grows;
    for (int j = 1; j <= i; j += 3) {
      EXPECT_TRUE(upsert(q, static_cast<std::uint64_t>(j), -j));
    }
  }
  EXPECT_EQ(grows, 4u);
  EXPECT_EQ(q.index_capacity(), 64u);
  ASSERT_EQ(q.size(), 30u);
  for (int i = 1; i <= 30; ++i) {
    EXPECT_EQ(q[static_cast<std::size_t>(i - 1)].value, (i - 1) % 3 == 0 ? -i : i);
  }
}

TEST(CoalescingQueueTest, CompactionRebaseThenCoalesceIntoEveryShiftedSlot) {
  Queue q;
  for (int i = 1; i <= 300; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  upsert(q, 0, 0);  // an unindexed entry rides along
  // 160 pops cross the compaction point: the live tail moves down to slot
  // 0 and every index entry is re-based in place.
  for (int i = 1; i <= 160; ++i) ASSERT_EQ(q.pop_front().value, i);
  ASSERT_EQ(q.size(), 141u);
  for (int i = 161; i <= 300; ++i) {
    EXPECT_TRUE(upsert(q, static_cast<std::uint64_t>(i), -i));
  }
  EXPECT_EQ(q.size(), 141u);
  EXPECT_FALSE(upsert(q, 160, 160));  // a popped key queues fresh at the back
  for (int i = 161; i <= 300; ++i) EXPECT_EQ(q.pop_front().value, -i);
  EXPECT_EQ(q.pop_front().value, 0);
  EXPECT_EQ(q.pop_front().value, 160);
  EXPECT_TRUE(q.empty());
}

TEST(CoalescingQueueTest, RemoveIfRebuildsTheIndex) {
  // The rebuild after a removal re-inserts only the survivors: removed keys
  // are gone, surviving keys coalesce into their new slots, and the index
  // keeps its capacity.
  Queue q;
  for (int i = 1; i <= 100; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  const std::size_t capacity = q.index_capacity();
  EXPECT_EQ(q.remove_if([](const Entry& e) { return e.key <= 90; }), 90u);
  EXPECT_EQ(q.index_capacity(), capacity);
  for (int i = 1; i <= 90; ++i) EXPECT_EQ(q.find(static_cast<std::uint64_t>(i)), nullptr);
  for (int i = 91; i <= 100; ++i) EXPECT_TRUE(upsert(q, static_cast<std::uint64_t>(i), -i));
  EXPECT_FALSE(upsert(q, 5, 5));
  EXPECT_EQ(values(q), (std::vector<int>{-91, -92, -93, -94, -95, -96, -97, -98, -99, -100, 5}));
}

TEST(CoalescingQueueTest, TakeAfterABurstReleasesTheStorage) {
  Queue q;
  for (int i = 1; i <= 10000; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  EXPECT_GE(q.index_capacity(), 20000u);
  std::vector<Entry> out;
  q.take_into(out);
  ASSERT_EQ(out.size(), 10000u);
  for (int i = 1; i <= 3; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
  EXPECT_LE(q.index_capacity(), 8u);
  EXPECT_LE(q.capacity(), 64u);
  EXPECT_EQ(values(q), (std::vector<int>{1, 2, 3}));

  // The same through clear(), where the queue still owns the burst's
  // buffer.
  Queue c;
  for (int i = 1; i <= 10000; ++i) upsert(c, static_cast<std::uint64_t>(i), i);
  c.clear();
  for (int i = 1; i <= 3; ++i) upsert(c, static_cast<std::uint64_t>(i), i);
  EXPECT_LE(c.index_capacity(), 8u);
  EXPECT_LE(c.capacity(), 64u);
}

TEST(CoalescingQueueTest, SteadySizeKeepsItsStorage) {
  // A queue that holds ~200 entries at every take settles on storage that
  // fits them and then keeps it: no release, no regrowth.
  Queue q;
  std::vector<Entry> out;
  std::size_t index_capacity = 0;
  const Entry* buffer = nullptr;
  for (int round = 0; round < 40; ++round) {
    for (int i = 1; i <= 200; ++i) upsert(q, static_cast<std::uint64_t>(i), i);
    if (round == 20) {
      index_capacity = q.index_capacity();
      buffer = &q.front();
    }
    if (round > 20) {
      EXPECT_EQ(q.index_capacity(), index_capacity) << "round " << round;
      EXPECT_EQ(&q.front(), buffer) << "round " << round;
    }
    q.clear();
  }
  EXPECT_EQ(index_capacity, 512u);
}

TEST(CoalescingQueueTest, MatchesLinearScanModel) {
  // 10k random pushes, pops, removals, takes and clears against a plain
  // vector searched linearly: contents and order must agree after every
  // step. Half the keys come from a small set (coalescing), half from a
  // large one, so the index grows, compacts and is released along the way.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Queue q;
    std::vector<Entry> model;
    std::vector<Entry> scratch;
    std::size_t peak_index = 0;
    for (int step = 0; step < 10000; ++step) {
      const double op = rng.next_double();
      if (op < 0.64) {
        const auto key = static_cast<std::uint64_t>(
            rng.next_below(2) == 0 ? rng.next_in(0, 40) : rng.next_in(0, 5000));
        const int value = step;
        const auto it = std::find_if(model.begin(), model.end(), [&](const Entry& e) {
          return key != 0 && e.key == key;
        });
        const bool found = it != model.end();
        if (found) {
          it->value = value;
        } else {
          model.push_back({key, value});
        }
        EXPECT_EQ(upsert(q, key, value), found);
      } else if (op < 0.98) {
        if (!model.empty()) {
          EXPECT_EQ(q.pop_front().value, model.front().value);
          model.erase(model.begin());
        }
      } else if (op < 0.998) {
        const auto mod = static_cast<std::uint64_t>(rng.next_in(2, 5));
        auto pred = [mod](const Entry& e) { return e.key % mod == 1; };
        const auto removed = static_cast<std::size_t>(
            std::count_if(model.begin(), model.end(), pred));
        model.erase(std::remove_if(model.begin(), model.end(), pred), model.end());
        EXPECT_EQ(q.remove_if(pred), removed);
      } else if (op < 0.999) {
        q.take_into(scratch);
        ASSERT_EQ(scratch.size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i) {
          EXPECT_EQ(scratch[i].value, model[i].value);
        }
        model.clear();
      } else {
        q.clear();
        model.clear();
      }
      ASSERT_EQ(q.size(), model.size()) << "step " << step;
      for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(q[i].key, model[i].key) << "step " << step << " slot " << i;
        ASSERT_EQ(q[i].value, model[i].value) << "step " << step << " slot " << i;
      }
      peak_index = std::max(peak_index, q.index_capacity());
    }
    EXPECT_GE(peak_index, 256u);  // the stream did grow the index
  }
}

// ------------------------------------------------------------------ IdSet

using Ids = util::IdSet<std::uint32_t>;

/// `n` distinct nonzero ids whose home slot in a `capacity`-slot table is
/// `slot`, skipping the ids in `avoid`.
std::vector<std::uint32_t> ids_homed_at(std::size_t slot, std::size_t capacity,
                                        std::size_t n,
                                        const std::vector<std::uint32_t>& avoid = {}) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t id = 1; out.size() < n; ++id) {
    if (Ids::home_slot(id, capacity) != slot) continue;
    if (std::find(avoid.begin(), avoid.end(), id) != avoid.end()) continue;
    out.push_back(id);
  }
  return out;
}

TEST(IdSetTest, InsertEraseContains) {
  Ids s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), 0u);  // nothing allocated before the first insert
  EXPECT_FALSE(s.contains(7));
  EXPECT_FALSE(s.erase(7));
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(7));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.capacity(), Ids::kInitialCapacity);
  EXPECT_TRUE(s.contains(7));
  EXPECT_TRUE(s.erase(7));
  EXPECT_FALSE(s.erase(7));
  EXPECT_FALSE(s.contains(7));
  EXPECT_TRUE(s.insert(7));  // re-insert after erase
  EXPECT_TRUE(s.contains(7));
}

TEST(IdSetTest, SortedIsAscendingWhateverTheTableOrder) {
  Ids s;
  std::vector<std::uint32_t> ids;
  for (int id = 97; id > 0; id -= 3) ids.push_back(static_cast<std::uint32_t>(id));
  for (const std::uint32_t id : ids) s.insert(id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(s.sorted(), ids);
}

TEST(IdSetTest, EraseChainWrapsPastTheEndOfTheTable) {
  // Three ids homed at the last slot occupy it and slots 0 and 1; an id
  // homed at 0 is displaced to 2. Erasing the first id empties the last
  // slot, and the backward shift must carry the run back across the wrap.
  const std::size_t cap = Ids::kInitialCapacity;
  const std::vector<std::uint32_t> last = ids_homed_at(cap - 1, cap, 3);
  const std::uint32_t zero = ids_homed_at(0, cap, 1, last)[0];
  Ids s;
  for (const std::uint32_t id : {last[0], last[1], last[2], zero}) s.insert(id);
  ASSERT_EQ(s.capacity(), cap);
  EXPECT_TRUE(s.erase(last[0]));
  EXPECT_FALSE(s.contains(last[0]));
  for (const std::uint32_t id : {last[1], last[2], zero}) EXPECT_TRUE(s.contains(id)) << id;
  EXPECT_TRUE(s.erase(last[1]));
  EXPECT_TRUE(s.contains(last[2]));
  EXPECT_TRUE(s.contains(zero));
  EXPECT_TRUE(s.erase(last[2]));
  EXPECT_TRUE(s.contains(zero));
  EXPECT_TRUE(s.insert(last[0]));  // re-enters the wrapped run
  EXPECT_TRUE(s.contains(last[0]));
  EXPECT_TRUE(s.contains(zero));
  EXPECT_EQ(s.size(), 2u);
}

TEST(IdSetTest, GrowthKeepsEveryId) {
  Ids s;
  std::size_t grows = 0;
  for (std::uint32_t id = 1; id <= 1000; ++id) {
    const std::size_t before = s.capacity();
    EXPECT_TRUE(s.insert(id * 7919));
    if (s.capacity() != before) ++grows;
    EXPECT_LE(s.size() * 2, s.capacity());  // never past half full
  }
  EXPECT_EQ(s.capacity(), 2048u);
  EXPECT_EQ(grows, 4u);  // 0 -> 256 -> 512 -> 1024 -> 2048
  for (std::uint32_t id = 1; id <= 1000; ++id) EXPECT_TRUE(s.contains(id * 7919));
  EXPECT_FALSE(s.contains(7918));
}

TEST(IdSetTest, MatchesUnorderedSetModel) {
  // Random inserts, erases and probes against std::unordered_set. Ids come
  // from a small range (re-insert after erase, long erase chains), from
  // ids homed in the table's last slots (runs that wrap), and from a wide
  // range (growth).
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Ids s;
    std::unordered_set<std::uint32_t> model;
    std::size_t peak = 0;
    std::vector<std::uint32_t> wrapping;
    const std::size_t cap = Ids::kInitialCapacity;
    for (std::size_t slot = cap - 3; slot < cap; ++slot) {
      for (const std::uint32_t id : ids_homed_at(slot, cap, 6, wrapping)) {
        wrapping.push_back(id);
      }
    }
    for (int step = 0; step < 20000; ++step) {
      const double pick = rng.next_double();
      std::uint32_t id = 0;
      if (pick < 0.4) {
        id = static_cast<std::uint32_t>(rng.next_in(1, 64));
      } else if (pick < 0.7) {
        id = wrapping[rng.next_below(wrapping.size())];
      } else {
        id = static_cast<std::uint32_t>(rng.next_in(1, 1 << 20));
      }
      // Inserts outweigh erases early, then the set drains and refills.
      const double op = rng.next_double();
      const double insert_share = (step / 2000) % 2 == 0 ? 0.6 : 0.3;
      if (op < insert_share) {
        ASSERT_EQ(s.insert(id), model.insert(id).second) << "step " << step;
      } else if (op < insert_share + 0.3) {
        ASSERT_EQ(s.erase(id), model.erase(id) > 0) << "step " << step;
      } else {
        ASSERT_EQ(s.contains(id), model.count(id) > 0) << "step " << step;
      }
      ASSERT_EQ(s.size(), model.size()) << "step " << step;
      peak = std::max(peak, s.capacity());
    }
    EXPECT_GE(peak, 2 * Ids::kInitialCapacity);  // the stream did grow the table
    std::vector<std::uint32_t> want(model.begin(), model.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(s.sorted(), want);
    for (const std::uint32_t id : wrapping) EXPECT_EQ(s.contains(id), model.count(id) > 0);
  }
}

}  // namespace
}  // namespace dyconits
