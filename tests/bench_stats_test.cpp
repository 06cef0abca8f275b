// Unit tests for the multi-seed bench statistics and the regression gate
// (bench/bench_stats.h) — the arithmetic every BENCH_<pr>.json snapshot and
// every `verify.sh bench-gate` verdict rests on.
#include "bench/bench_stats.h"

#include <gtest/gtest.h>

namespace dyconits::bench {
namespace {

// ------------------------------------------------------------- vec stats

TEST(VecStats, MeanOfKnownVector) {
  EXPECT_DOUBLE_EQ(vec_mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(vec_mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(vec_mean({}), 0.0);
}

TEST(VecStats, SampleStddevUsesNMinusOne) {
  // {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sum of squared deviations 32,
  // sample variance 32/7.
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(vec_stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(VecStats, StddevOfSingleSampleIsZero) {
  EXPECT_DOUBLE_EQ(vec_stddev({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(vec_stddev({}), 0.0);
}

TEST(VecStats, CovPctOfKnownVector) {
  // mean 10, stddev 1 -> CoV 10%.
  const std::vector<double> xs = {9.0, 10.0, 11.0};
  EXPECT_NEAR(vec_cov_pct(xs), 100.0 * 1.0 / 10.0, 1e-9);
}

TEST(VecStats, CovOfZeroVarianceVectorIsZero) {
  EXPECT_DOUBLE_EQ(vec_cov_pct({7.0, 7.0, 7.0, 7.0, 7.0}), 0.0);
}

TEST(VecStats, CovOfZeroMeanIsZeroNotNan) {
  EXPECT_DOUBLE_EQ(vec_cov_pct({-1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(vec_cov_pct({0.0, 0.0, 0.0}), 0.0);
}

TEST(VecStats, PercentileNearestRank) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(vec_percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(vec_percentile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(vec_percentile(xs, 0.5), 6.0);  // idx = 0.5*9+0.5 = 5
  // Input order must not matter.
  EXPECT_DOUBLE_EQ(vec_percentile({10, 1, 5, 3, 8, 2, 9, 4, 7, 6}, 0.5), 6.0);
}

TEST(VecStats, NoiseBandIsWorstDeviationTimesSafety) {
  // mean 10, worst deviation 2 (the 12) -> 20% * safety.
  const std::vector<double> xs = {9.0, 10.0, 12.0, 9.0, 10.0};
  EXPECT_NEAR(noise_band_pct(xs), 20.0 * kNoiseBandSafety, 1e-9);
}

TEST(VecStats, NoiseBandOfSingleSampleIsZero) {
  EXPECT_DOUBLE_EQ(noise_band_pct({4.2}), 0.0);
}

TEST(VecStats, SummarizeFillsAllFields) {
  const auto s = summarize({4.0, 6.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_NEAR(s.band_pct, 20.0 * kNoiseBandSafety, 1e-9);
  ASSERT_EQ(s.values.size(), 3u);
}

// ------------------------------------------------------- aggregate_runs

TEST(Aggregate, CollectsPerSeedMetricValuesInOrder) {
  JsonReport a, b;
  a.bench = b.bench = "e_test";
  a.config = {{"players", json_num(10)}, {"seed", json_num(1)}};
  b.config = {{"players", json_num(10)}, {"seed", json_num(2)}};
  a.metrics = {{"tick_mean_ms", 10.0}, {"egress_kbps", 100.0}};
  b.metrics = {{"tick_mean_ms", 12.0}, {"egress_kbps", 110.0}};
  const auto agg = aggregate_runs({a, b}, {1, 2});
  EXPECT_EQ(agg.bench, "e_test");
  ASSERT_EQ(agg.seeds.size(), 2u);
  // seed is per-run, not cross-run config.
  for (const auto& [k, v] : agg.config) EXPECT_NE(k, "seed");
  const auto* tick = agg.find_metric("tick_mean_ms");
  ASSERT_NE(tick, nullptr);
  EXPECT_DOUBLE_EQ(tick->mean, 11.0);
  ASSERT_EQ(tick->values.size(), 2u);
  EXPECT_DOUBLE_EQ(tick->values[0], 10.0);
  EXPECT_DOUBLE_EQ(tick->values[1], 12.0);
}

// -------------------------------------------------------- classification

TEST(Classify, TimingsAreLowerBetter) {
  EXPECT_EQ(classify_metric("e14_egress", "tick_mean_ms"), MetricClass::LowerBetter);
  EXPECT_EQ(classify_metric("e13_overload", "cap_violations.x4"),
            MetricClass::LowerBetter);
  EXPECT_EQ(classify_metric("e14_egress", "pool_misses_per_tick"),
            MetricClass::LowerBetter);
}

TEST(Classify, ThroughputAndPassFlagsAreHigherBetter) {
  EXPECT_EQ(classify_metric("e12_parallel", "wire_match"), MetricClass::HigherBetter);
  EXPECT_EQ(classify_metric("e11_chaos", "replay_ok"), MetricClass::HigherBetter);
  EXPECT_EQ(classify_metric("e12_parallel", "speedup.t4"), MetricClass::HigherBetter);
  EXPECT_EQ(classify_metric("e2_scalability", "capacity_players.director"),
            MetricClass::HigherBetter);
}

TEST(Classify, DeterministicSimOutputsAreTwoSided) {
  EXPECT_EQ(classify_metric("e14_egress", "egress_bytes_per_sec"),
            MetricClass::TwoSided);
  EXPECT_EQ(classify_metric("e1_bandwidth", "update_kbps.director"),
            MetricClass::TwoSided);
  EXPECT_EQ(classify_metric("e3_consistency", "staleness_p99_ms.aoi"),
            MetricClass::LowerBetter);  // _ms wins: staleness growth is bad
}

TEST(Classify, RealSocketMetricsAreInformational) {
  EXPECT_EQ(classify_metric("e15_transport", "udp_mb_per_s"),
            MetricClass::Informational);
  EXPECT_EQ(classify_metric("e15_transport", "udp_roundtrip_ms"),
            MetricClass::Informational);
  // ...but the same prefix elsewhere is not special.
  EXPECT_EQ(classify_metric("e15_transport", "sim_mb_per_s"),
            MetricClass::HigherBetter);
}

// ------------------------------------------------------------ gate_metric

MetricSummary sum_of(std::vector<double> values) { return summarize(values); }

TEST(Gate, PassesInsideNoiseBand) {
  // Baseline 100 with a ±10% worst deviation -> 20% band (safety 2x).
  const auto base = sum_of({90, 100, 110});
  const auto cand = sum_of({95, 105, 115});  // +5% drift, inside band
  const auto f = gate_metric("e14_egress", "tick_mean_ms", base, cand, {});
  EXPECT_TRUE(f.gated);
  EXPECT_FALSE(f.failed);
}

TEST(Gate, FailsOutsideNoiseBand) {
  const auto base = sum_of({99, 100, 101});  // tight band (2% with safety)
  const auto cand = sum_of({119, 120, 121});  // +20%
  const auto f = gate_metric("e14_egress", "tick_mean_ms", base, cand, {});
  EXPECT_TRUE(f.failed);
  EXPECT_NEAR(f.change_pct, 20.0, 0.1);
}

TEST(Gate, FloorProtectsTightBands) {
  const auto base = sum_of({100, 100, 100});  // zero band
  const auto cand = sum_of({104, 104, 104});  // +4% < default 5% floor
  const auto f = gate_metric("e14_egress", "tick_mean_ms", base, cand, {});
  EXPECT_FALSE(f.failed);
  EXPECT_DOUBLE_EQ(f.threshold_pct, 5.0);
}

TEST(Gate, LowerBetterImprovementNeverFails) {
  const auto base = sum_of({100, 100, 100});
  const auto cand = sum_of({50, 50, 50});  // tick time halved
  const auto f = gate_metric("e14_egress", "tick_mean_ms", base, cand, {});
  EXPECT_FALSE(f.failed);
}

TEST(Gate, HigherBetterShrinkageFails) {
  const auto base = sum_of({100, 100, 100});
  const auto cand = sum_of({80, 80, 80});  // throughput -20%
  const auto f = gate_metric("e15_transport", "sim_mb_per_s", base, cand, {});
  EXPECT_TRUE(f.failed);
}

TEST(Gate, TwoSidedDriftFailsBothWays) {
  const auto base = sum_of({100, 100, 100});
  const auto up = sum_of({120, 120, 120});
  const auto down = sum_of({80, 80, 80});
  EXPECT_TRUE(gate_metric("e14_egress", "egress_bytes_per_sec", base, up, {}).failed);
  EXPECT_TRUE(
      gate_metric("e14_egress", "egress_bytes_per_sec", base, down, {}).failed);
}

TEST(Gate, WiderCandidateBandRaisesThreshold) {
  const auto base = sum_of({100, 100, 100});
  // Candidate mean 110 (+10%) but its own spread is ±15% -> 30% band.
  const auto cand = sum_of({93.5, 110.0, 126.5});
  const auto f = gate_metric("e14_egress", "tick_mean_ms", base, cand, {});
  EXPECT_FALSE(f.failed);
  EXPECT_GT(f.threshold_pct, 29.0);
}

TEST(Gate, ZeroBaselineUsesAbsoluteTolerance) {
  const auto base = sum_of({0, 0, 0});
  const auto within = sum_of({0.005, 0.005, 0.005});
  const auto beyond = sum_of({1.0, 1.0, 1.0});
  EXPECT_FALSE(
      gate_metric("e14_egress", "pool_misses_per_tick", base, within, {}).failed);
  EXPECT_TRUE(
      gate_metric("e14_egress", "pool_misses_per_tick", base, beyond, {}).failed);
}

TEST(Gate, InformationalNeverFails) {
  const auto base = sum_of({100, 100, 100});
  const auto cand = sum_of({500, 500, 500});
  const auto f = gate_metric("e15_transport", "udp_mb_per_s", base, cand, {});
  EXPECT_FALSE(f.gated);
  EXPECT_FALSE(f.failed);
}

// ----------------------------------------------------------- gate_reports

std::vector<MultiRunReport> one_bench_baseline() {
  MultiRunReport r;
  r.bench = "e14_egress";
  r.seeds = {1, 2, 3, 4, 5};
  r.metrics = {
      {"tick_mean_ms", sum_of({10, 10.2, 9.8, 10.1, 9.9})},
      {"egress_bytes_per_sec", sum_of({1e6, 1.01e6, 0.99e6, 1.0e6, 1.0e6})},
  };
  return {r};
}

TEST(GateReports, IdenticalSnapshotPasses) {
  const auto base = one_bench_baseline();
  std::vector<GateFinding> findings;
  EXPECT_TRUE(gate_reports(base, base, {}, findings));
  for (const auto& f : findings) EXPECT_FALSE(f.failed);
}

TEST(GateReports, MissingMetricFailsUnlessAllowed) {
  const auto base = one_bench_baseline();
  auto cand = base;
  cand[0].metrics.pop_back();  // lost egress_bytes_per_sec coverage
  std::vector<GateFinding> findings;
  EXPECT_FALSE(gate_reports(base, cand, {}, findings));
  GateOptions allow;
  allow.allow_missing = true;
  findings.clear();
  EXPECT_TRUE(gate_reports(base, cand, allow, findings));
}

TEST(GateReports, BenchMissingFromCandidateFailsUnlessAllowed) {
  auto base = one_bench_baseline();
  MultiRunReport dropped;
  dropped.bench = "e13_overload";
  dropped.metrics = {{"tick_on_p95_ms.x1", sum_of({3, 3, 3})},
                     {"cap_violations.x1", sum_of({0, 0, 0})}};
  base.push_back(dropped);
  const auto cand = one_bench_baseline();  // never ran e13_overload
  std::vector<GateFinding> findings;
  EXPECT_FALSE(gate_reports(base, cand, {}, findings));
  GateOptions allow;
  allow.allow_missing = true;
  findings.clear();
  EXPECT_TRUE(gate_reports(base, cand, allow, findings));
  std::size_t missing = 0;
  for (const auto& f : findings) {
    if (f.note.find("missing") == std::string::npos) continue;
    EXPECT_EQ(f.bench, "e13_overload");
    ++missing;
  }
  EXPECT_EQ(missing, 2u);
}

TEST(GateReports, NewMetricIsNotedNotFailed) {
  const auto base = one_bench_baseline();
  auto cand = base;
  cand[0].metrics.push_back({"brand_new_ms", sum_of({1, 1, 1})});
  std::vector<GateFinding> findings;
  EXPECT_TRUE(gate_reports(base, cand, {}, findings));
  bool noted = false;
  for (const auto& f : findings) {
    if (f.metric == "brand_new_ms") noted = f.note.find("new metric") != std::string::npos;
  }
  EXPECT_TRUE(noted);
}

TEST(GateReports, BenchWithoutBaselineIsNotedNotFailed) {
  const auto base = one_bench_baseline();
  auto cand = base;
  MultiRunReport extra;
  extra.bench = "e99_new";
  extra.metrics = {{"tick_mean_ms", sum_of({1, 1, 1})}};
  cand.push_back(extra);
  std::vector<GateFinding> findings;
  EXPECT_TRUE(gate_reports(base, cand, {}, findings));
}

// ------------------------------------------------- injection + self-test

TEST(SelfTest, InjectionMovesEveryGatedMetricTheBadWay) {
  const auto base = one_bench_baseline();
  const auto injected = inject_regression(base, 20.0);
  // tick_mean_ms is lower-better: must grow.
  EXPECT_GT(injected[0].find_metric("tick_mean_ms")->mean,
            base[0].find_metric("tick_mean_ms")->mean);
}

TEST(SelfTest, InjectionShrinksHigherBetterMetrics) {
  MultiRunReport r;
  r.bench = "e12_parallel";
  r.metrics = {{"speedup.t4", sum_of({3.0, 3.1, 2.9})}};
  const auto injected = inject_regression({r}, 20.0);
  EXPECT_LT(injected[0].find_metric("speedup.t4")->mean, 3.0);
}

TEST(SelfTest, PassesOnRealisticBaselineAndCatchesInjection) {
  std::string log;
  EXPECT_TRUE(gate_self_test(one_bench_baseline(), {}, &log));
  EXPECT_NE(log.find("tripped"), std::string::npos) << log;
}

TEST(SelfTest, SyntheticFixturePasses) {
  std::string log;
  EXPECT_TRUE(gate_self_test(synthetic_baseline(), {}, &log)) << log;
}

TEST(SelfTest, FailsWhenBaselineHasNoGatedMetrics) {
  MultiRunReport r;
  r.bench = "e15_transport";
  r.metrics = {{"udp_mb_per_s", sum_of({100, 101, 99})}};  // informational only
  std::string log;
  EXPECT_FALSE(gate_self_test({r}, {}, &log));
}

}  // namespace
}  // namespace dyconits::bench
