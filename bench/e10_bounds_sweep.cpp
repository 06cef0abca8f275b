// E10 — The consistency/capacity trade-off frontier: static conit bounds
// swept over (staleness θ, numerical δ). Each point trades observed
// staleness for bandwidth — the curve the dynamic policy navigates at
// runtime.
//
//   e10_bounds_sweep [--players=60] [--thetas=0,100,250,500,1000,2500]
//                    [--deltas_x10=5,40,320] [--duration=35]
//                    [--runs=N | --seeds=a,b,c] [--json=FILE]
#include "bench_util.h"

using namespace dyconits;
using namespace dyconits::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  check_flags(flags, {"thetas", "deltas_x10"});
  const auto thetas = flags.get_int_list("thetas", {0, 100, 250, 500, 1000, 2500});
  const auto deltas_x10 = flags.get_int_list("deltas_x10", {5, 40, 320});

  print_title("E10: static bounds sweep (θ staleness ms x δ numerical weight)");
  std::printf("%-8s %-8s %12s %12s %12s %12s %12s\n", "θ ms", "δ", "update KB/s",
              "stale p99", "coalesced %", "tick p95 ms", "pos err");
  print_rule();

  const int rc = run_seeded(flags, [&](std::uint64_t seed) {
  JsonReport report;
  report.bench = "e10_bounds_sweep";
  report.config = {
      {"players", json_num(static_cast<double>(flags.get_int("players", 60)))},
      {"seed", json_num(static_cast<double>(seed))},
  };
  double baseline_rate = 0.0;
  for (const auto theta : thetas) {
    for (const auto dx10 : deltas_x10) {
      const double delta = static_cast<double>(dx10) / 10.0;
      auto cfg = base_config(flags, /*default_duration_s=*/35);
      cfg.seed = seed;
      cfg.players = static_cast<std::size_t>(flags.get_int("players", 60));
      cfg.policy =
          "static:" + std::to_string(theta) + ":" + std::to_string(delta);
      cfg.record_staleness = true;
      const auto r = run(cfg);
      const double rate = static_cast<double>(update_bytes(r)) / r.measured_seconds;
      if (theta == thetas.front() && dx10 == deltas_x10.front()) baseline_rate = rate;
      report.metrics.push_back({"update_kbps.t" + std::to_string(theta) + ".d" +
                                    std::to_string(dx10),
                                rate / 1000.0});
      report.metrics.push_back({"staleness_p99_ms.t" + std::to_string(theta) + ".d" +
                                    std::to_string(dx10),
                                r.staleness_ms.percentile(0.99)});
      const auto& s = r.dyconit_stats;
      const double coalesce_pct =
          s.enqueued > 0 ? 100.0 * static_cast<double>(s.coalesced) /
                               static_cast<double>(s.enqueued)
                         : 0.0;
      std::printf("%-8lld %-8.1f %12.1f %12.0f %11.1f%% %12.2f %12.3f\n",
                  static_cast<long long>(theta), delta, rate / 1000.0,
                  r.staleness_ms.percentile(0.99), coalesce_pct,
                  r.tick_ms.percentile(0.95), r.pos_error_mean.mean());
    }
    print_rule();
  }
  std::printf("(first row is the tightest configuration: %0.1f KB/s of update traffic)\n",
              baseline_rate / 1000.0);
  return report;
  });
  finish_trace(flags);
  return rc;
}
