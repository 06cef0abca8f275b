// E9 — Player density sweep: the paper's motivating case. High-density
// areas (village centers) are where plain interest management stops
// helping: everyone legitimately subscribes to everyone. We shrink the
// village radius (packing the same players tighter) and watch vanilla's
// update traffic and tick time blow up quadratically while the Director
// holds them down by spending peripheral consistency.
//
// The director rows run with a bandwidth budget (--budget_mbps, default 4):
// density is exactly the case where distance shaping alone has no slack, so
// the savings must come from the Director's pressure-driven stages
// (multiplier + capped near bounds).
//
//   e9_density [--players=100] [--radii=120,60,30,15] [--duration=40]
//              [--budget_mbps=4] [--runs=N | --seeds=a,b,c] [--json=FILE]
#include "bench_util.h"

using namespace dyconits;
using namespace dyconits::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  check_flags(flags, {"radii", "budget_mbps"});
  const auto radii = flags.get_int_list("radii", {120, 60, 30, 15});

  const int rc = run_seeded(flags, [&](std::uint64_t seed) {
  JsonReport report;
  report.bench = "e9_density";
  report.config = {
      {"players", json_num(static_cast<double>(flags.get_int("players", 100)))},
      {"seed", json_num(static_cast<double>(seed))},
      {"budget_mbps", json_num(flags.get_double("budget_mbps", 4.0))},
  };
  print_title("E9: density sweep (fixed players, shrinking village radius)");
  std::printf("%-10s %-12s %12s %12s %12s %12s\n", "radius", "policy", "update KB/s",
              "tick p95 ms", "frames/s", "pos err");
  print_rule();
  for (const auto radius : radii) {
    double vanilla_rate = 0.0;
    for (const std::string policy : {"vanilla", "director"}) {
      auto cfg = base_config(flags, /*default_duration_s=*/40);
      cfg.seed = seed;
      cfg.players = static_cast<std::size_t>(flags.get_int("players", 100));
      cfg.policy = policy;
      if (policy == "director") {
        cfg.bandwidth_budget_bps = flags.get_double("budget_mbps", 4.0) * 1e6;
      }
      cfg.workload.kind = bots::WorkloadKind::Village;
      cfg.workload.hotspots = 1;
      cfg.workload.village_radius = static_cast<double>(radius);
      const auto r = run(cfg);
      const double rate = static_cast<double>(update_bytes(r)) / r.measured_seconds;
      if (policy == "vanilla") vanilla_rate = rate;
      report.metrics.push_back({"update_kbps." + policy + ".r" + std::to_string(radius),
                                rate / 1000.0});
      std::printf("%-10lld %-12s %12.1f %12.2f %12.0f %12.3f",
                  static_cast<long long>(radius), policy.c_str(), rate / 1000.0,
                  r.tick_ms.percentile(0.95), r.egress_frames_per_sec,
                  r.pos_error_mean.mean());
      if (policy != "vanilla" && vanilla_rate > 0) {
        std::printf("   (%+.0f%% update traffic)", pct_change(vanilla_rate, rate));
      }
      std::printf("\n");
    }
    print_rule();
  }
  return report;
  });
  finish_trace(flags);
  return rc;
}
