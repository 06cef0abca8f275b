// Unit tests of the benchmark's measurement primitives (measure.h). The
// per-workload smoke runs are registered next to this in CMakeLists.txt.
#include <gtest/gtest.h>

#include <vector>

#include "measure.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  // Descending, so percentile() has to sort.
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnSortedValues) {
  auto v = ramp(100);
  EXPECT_EQ(percentile(v, 0.5).value, 50.0);
  EXPECT_EQ(percentile(v, 0.99).value, 99.0);
  EXPECT_EQ(percentile(v, 1.0).value, 100.0);
  EXPECT_EQ(percentile(v, 0.0).value, 1.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  auto v = ramp(999);
  const Percentile short_run = percentile(v, 0.99);
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.supported);

  v = ramp(1000);
  const Percentile enough = percentile(v, 0.99);
  EXPECT_EQ(enough.value, 990.0);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.supported);
}

TEST(Percentile, MedianNeedsNoTail) {
  auto v = ramp(3);
  const Percentile p = percentile(v, 0.5);
  EXPECT_EQ(p.value, 2.0);
  EXPECT_TRUE(p.supported);
}

TEST(Percentile, EmptyIsUnsupportedZero) {
  std::vector<double> v;
  const Percentile p = percentile(v, 0.99);
  EXPECT_EQ(p.value, 0.0);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_FALSE(p.supported);
}

TEST(Percentile, MinSamplesMatchesTheRule) {
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  EXPECT_EQ(min_samples_for(0.9), 100u);
  auto v = ramp(min_samples_for(0.999));
  EXPECT_TRUE(percentile(v, 0.999).supported);
  v = ramp(min_samples_for(0.999) - 1);
  EXPECT_FALSE(percentile(v, 0.999).supported);
}

TEST(BlockPercentile, MedianOfFullBlocks) {
  // Three blocks of 1000; a noise burst lifts the tail of the middle one.
  std::vector<double> v;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(b == 1 && i > 980 ? 5000.0 : i);
  }
  v.push_back(1e9);  // a partial fourth block is ignored
  const Percentile p = block_percentile(v, 0.99);
  EXPECT_EQ(p.blocks, 3u);
  EXPECT_EQ(p.samples, 3001u);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.supported);
  EXPECT_EQ(p.value, 990.0);  // blocks give 990, 5000, 990
}

TEST(BlockPercentile, BlocksHoldWholeEpisodes) {
  // Six episodes of 800 samples, each with a peak of 4 samples. Blocks of
  // 1000 would hold the peak once or twice; blocks of two episodes hold it
  // twice each, so every block reads the same percentile.
  std::vector<double> v;
  for (int e = 0; e < 6; ++e) {
    for (int i = 1; i <= 800; ++i) v.push_back(i > 400 && i <= 404 ? 100.0 : i % 10);
  }
  const Percentile p = block_percentile(v, 0.99, 800);
  EXPECT_EQ(p.blocks, 3u);
  EXPECT_EQ(p.beyond, 16u);
  EXPECT_TRUE(p.supported);
  EXPECT_EQ(p.value, 9.0);
  EXPECT_EQ(block_percentile(v, 0.99).blocks, 4u);  // unaligned: 4800 / 1000
}

TEST(BlockPercentile, FallsBackToPooledBelowOneBlock) {
  auto v = ramp(500);
  const Percentile p = block_percentile(v, 0.99);
  EXPECT_EQ(p.blocks, 0u);
  EXPECT_EQ(p.value, 495.0);
  EXPECT_EQ(p.beyond, 5u);
  EXPECT_FALSE(p.supported);
}

TEST(Ledger, LateTicksFail) {
  Ledger l;
  l.add_tick(49.9, 50.0);
  l.add_tick(50.0, 50.0);  // exactly on budget is on time
  l.add_tick(50.1, 50.0);
  EXPECT_EQ(l.ticks, 3u);
  EXPECT_EQ(l.late_ticks, 1u);
  EXPECT_EQ(l.failed(), 1u);
  EXPECT_EQ(l.attempted(), 3u);
  EXPECT_NEAR(l.late_tick_pct(), 100.0 / 3.0, 1e-9);
}

TEST(Ledger, ShedLostAndRefusedUpdatesFail) {
  Ledger l;
  l.updates_applied = 90;
  l.updates_shed = 5;    // overload control
  l.updates_lost = 3;    // socket loss
  l.sends_refused = 2;   // sendto gave up
  EXPECT_EQ(l.updates_produced(), 100u);
  EXPECT_EQ(l.failed(), 10u);
  EXPECT_EQ(l.attempted(), 100u);
  EXPECT_DOUBLE_EQ(l.update_loss_pct(), 10.0);
}

TEST(Ledger, RefusedJoinsFail) {
  Ledger l;
  l.joins_attempted = 8;
  l.joins_refused = 2;
  EXPECT_EQ(l.failed(), 2u);
  EXPECT_EQ(l.attempted(), 8u);
  EXPECT_DOUBLE_EQ(l.join_refused_pct(), 25.0);
}

TEST(Ledger, CleanWindowHasNoFailures) {
  Ledger l;
  for (int i = 0; i < 10; ++i) l.add_tick(10.0, 50.0);
  l.updates_applied = 500;
  l.joins_attempted = 4;
  EXPECT_EQ(l.failed(), 0u);
  EXPECT_EQ(l.attempted(), 514u);
  EXPECT_EQ(l.update_loss_pct(), 0.0);
  EXPECT_EQ(l.join_refused_pct(), 0.0);
}

TEST(Ledger, MergeSumsEveryField) {
  Ledger a, b;
  a.add_tick(60.0, 50.0);
  a.updates_lost = 1;
  b.add_tick(10.0, 50.0);
  b.joins_attempted = 2;
  b.joins_refused = 1;
  b.updates_shed = 4;
  b.sends_refused = 1;
  b.updates_applied = 3;
  a.merge(b);
  EXPECT_EQ(a.ticks, 2u);
  EXPECT_EQ(a.late_ticks, 1u);
  EXPECT_EQ(a.failed(), 1u + 1u + 1u + 4u + 1u);
  EXPECT_EQ(a.updates_produced(), 9u);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false);
  { SpanLog::Scope s(log, "outer"); }
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpanLog, SelfTimeIsSpanMinusDirectChildren) {
  SpanLog log(true);
  log.set_tick(7);
  {
    SpanLog::Scope outer(log, "outer");
    {
      SpanLog::Scope inner(log, "inner");
      { SpanLog::Scope leaf(log, "leaf"); }
    }
    { SpanLog::Scope inner(log, "inner"); }
  }
  ASSERT_EQ(log.spans().size(), 4u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 1);
  EXPECT_EQ(log.spans()[3].parent, 0);
  for (const auto& s : log.spans()) EXPECT_EQ(s.tick, 7u);

  const auto t = log.totals(7, 7);
  const auto dur = [&](std::size_t i) {
    return static_cast<double>(log.spans()[i].end_ns - log.spans()[i].start_ns) / 1e6;
  };
  EXPECT_EQ(t.at("inner").count, 2u);
  EXPECT_NEAR(t.at("outer").busy_ms, dur(0), 1e-9);
  EXPECT_NEAR(t.at("outer").self_ms, dur(0) - dur(1) - dur(3), 1e-9);
  EXPECT_NEAR(t.at("inner").self_ms, dur(1) - dur(2) + dur(3), 1e-9);
  EXPECT_NEAR(t.at("leaf").self_ms, t.at("leaf").busy_ms, 1e-9);
}

TEST(SpanLog, TotalsFilterByTick) {
  SpanLog log(true);
  log.set_tick(1);
  { SpanLog::Scope s(log, "a"); }
  log.set_tick(2);
  { SpanLog::Scope s(log, "a"); }
  { SpanLog::Scope s(log, "b"); }
  EXPECT_EQ(log.totals(1, 1).at("a").count, 1u);
  EXPECT_EQ(log.totals(2, 2).count("a"), 1u);
  EXPECT_EQ(log.totals(2, 2).count("b"), 1u);
  EXPECT_EQ(log.totals(1, 2).at("a").count, 2u);
  EXPECT_TRUE(log.totals(3, 9).empty());
}

}  // namespace
}  // namespace perfbench
