// E7 — Dynamic vs. static ablation: the paper's headline "dynamically
// managed" claim. Mid-run, every walker converges on one village hotspot
// (a player-driven flash crowd). A static distance policy (aoi) keeps its
// bounds and lets tick time/bandwidth spike with density; the Director
// detects the pressure, loosens peripheral bounds, and re-tightens when
// given headroom. Prints per-5s timelines.
//
// The Director's pressure signal here is a bandwidth budget (Mbit/s); the
// flash crowd's traffic exceeds it, the dispersed population does not.
// Bots walk to the hotspot at game speed, so the crowd builds over ~40 s.
//
//   e7_adaptation [--players=120] [--spike_at=40] [--relax_at=120]
//                 [--duration=180] [--budget_mbps=4]
//                 [--runs=N | --seeds=a,b,c] [--json=FILE]
#include <sstream>

#include "bench_util.h"

using namespace dyconits;
using namespace dyconits::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  check_flags(flags, {"policies", "spike_at", "relax_at", "budget_mbps"});
  const std::int64_t spike_at = flags.get_int("spike_at", 40);
  const std::int64_t relax_at = flags.get_int("relax_at", 120);

  std::vector<std::string> policies;
  {
    std::stringstream ss(flags.get_string("policies", "aoi,director"));
    std::string tok;
    while (std::getline(ss, tok, ',')) policies.push_back(tok);
  }

  const int rc = run_seeded(flags, [&](std::uint64_t seed) {
  JsonReport report;
  report.bench = "e7_adaptation";
  report.config = {
      {"players", json_num(static_cast<double>(flags.get_int("players", 120)))},
      {"seed", json_num(static_cast<double>(seed))},
      {"spike_at", json_num(static_cast<double>(spike_at))},
      {"relax_at", json_num(static_cast<double>(relax_at))},
      {"budget_mbps", json_num(flags.get_double("budget_mbps", 4.0))},
      {"policies", json_str(flags.get_string("policies", "aoi,director"))},
  };
  for (const auto& policy : policies) {
    auto cfg = base_config(flags, /*default_duration_s=*/180, /*default_warmup_s=*/10);
    cfg.seed = seed;
    cfg.players = static_cast<std::size_t>(flags.get_int("players", 120));
    cfg.warmup = SimDuration::seconds(10);
    cfg.policy = policy;
    cfg.workload.kind = bots::WorkloadKind::Walk;  // start spread out
    cfg.workload.spread_radius = 220.0;
    cfg.record_timelines = true;
    cfg.bandwidth_budget_bps = flags.get_double("budget_mbps", 4.0) * 1e6;

    std::fprintf(stderr, "  running policy=%s with flash crowd at t=%llds...\n",
                 policy.c_str(), static_cast<long long>(spike_at));

    bots::Simulation sim(cfg);
    bool spiked = false, relaxed = false;
    sim.set_tick_hook([&](bots::Simulation& s, SimTime now) {
      if (!spiked && now >= SimTime::zero() + SimDuration::seconds(spike_at)) {
        spiked = true;
        for (auto& bot : s.bots()) bot->set_home({0, 0, 0}, 14.0);  // flash crowd
      }
      if (!relaxed && now >= SimTime::zero() + SimDuration::seconds(relax_at)) {
        relaxed = true;
        // Crowd disperses again: bots fan back out to distinct homes.
        double angle = 0.0;
        for (auto& bot : s.bots()) {
          angle += 2.399963;  // golden angle: even fan-out
          bot->set_home({220.0 * std::cos(angle), 0, 220.0 * std::sin(angle)}, 40.0);
        }
      }
    });
    const auto r = sim.run();

    print_title("E7 timeline: policy=" + policy + "  (flash crowd at t=" +
                std::to_string(spike_at) + "s, disperses at t=" +
                std::to_string(relax_at) + "s)");
    std::printf("%8s %12s %12s %14s %14s\n", "t (s)", "tick ms", "egress KB/s",
                "queued upd.", "director scale");
    print_rule(70);
    const auto& reg = r.registry;
    const auto& tick = reg.all_series().at("tick_ms").points();
    const auto& egress = reg.all_series().at("egress_kbps").points();
    const auto& queued = reg.all_series().at("queued_updates").points();
    const auto* scale = reg.all_series().count("director_scale")
                            ? &reg.all_series().at("director_scale").points()
                            : nullptr;
    for (std::size_t i = 0; i < tick.size(); i += 5) {
      std::printf("%8.0f %12.2f %12.1f %14.0f", tick[i].first.as_seconds(),
                  tick[i].second, i < egress.size() ? egress[i].second : 0.0,
                  i < queued.size() ? queued[i].second : 0.0);
      if (scale != nullptr && i < scale->size()) {
        std::printf(" %14.2f", (*scale)[i].second);
      } else {
        std::printf(" %14s", "-");
      }
      std::printf("\n");
    }
    std::printf("post-warmup tick p95: %.2f ms | egress mean: %.1f KB/s\n",
                r.tick_ms.percentile(0.95), r.egress_bytes_per_sec / 1000.0);
    report.metrics.push_back({"tick_p95_ms." + policy, r.tick_ms.percentile(0.95)});
    report.metrics.push_back(
        {"egress_kbps." + policy, r.egress_bytes_per_sec / 1000.0});
  }
  return report;
  });
  finish_trace(flags);
  return rc;
}
