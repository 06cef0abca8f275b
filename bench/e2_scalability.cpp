// E2 — Tick duration vs. concurrent players, and the maximum player count
// each configuration supports within the tick SLO. Reproduces the paper's
// scalability result: the abstract claims up to 40% more concurrent
// players. The SLO defaults to half the 50 ms tick budget at p95 (a common
// operator threshold; Minecraft degrades visibly once ticks overrun).
//
//   e2_scalability [--players=50,75,100,125,150,175,200] [--policies=vanilla,director]
//                  [--slo_ms=25] [--duration=40]
//                  [--runs=N | --seeds=a,b,c] [--json=FILE]
#include <map>
#include <sstream>

#include "bench_util.h"

using namespace dyconits;
using namespace dyconits::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  check_flags(flags, {"policies", "slo_ms"});
  const auto player_counts = flags.get_int_list("players", {50, 75, 100, 125, 150, 175, 200});
  const double slo_ms = flags.get_double("slo_ms", 25.0);
  std::vector<std::string> policies;
  {
    std::stringstream ss(flags.get_string("policies", "vanilla,aoi,director"));
    std::string tok;
    while (std::getline(ss, tok, ',')) policies.push_back(tok);
  }

  const int rc = run_seeded(flags, [&](std::uint64_t seed) {
  JsonReport report;
  report.bench = "e2_scalability";
  report.config = {
      {"players_max", json_num(static_cast<double>(player_counts.back()))},
      {"seed", json_num(static_cast<double>(seed))},
      {"slo_ms", json_num(slo_ms)},
      {"policies", json_str(flags.get_string("policies", "vanilla,aoi,director"))},
  };
  print_title("E2: server tick duration vs players");
  std::printf("%-12s %8s %12s %12s %12s %10s\n", "policy", "players", "tick mean ms",
              "tick p95 ms", "tick p99 ms", "SLO ok");
  print_rule();

  // policy -> largest player count whose p95 met the SLO.
  std::map<std::string, std::int64_t> capacity;
  for (const auto& policy : policies) {
    for (const auto players : player_counts) {
      auto cfg = base_config(flags, /*default_duration_s=*/40);
      cfg.seed = seed;
      cfg.players = static_cast<std::size_t>(players);
      cfg.policy = policy;
      const auto r = run(cfg);
      const double p95 = r.tick_ms.percentile(0.95);
      const bool ok = p95 <= slo_ms;
      if (ok && players > capacity[policy]) capacity[policy] = players;
      if (players == player_counts.back()) {
        report.metrics.push_back({"tick_p95_ms." + policy, p95});
      }
      std::printf("%-12s %8zu %12.2f %12.2f %12.2f %10s\n", policy.c_str(), r.players,
                  r.tick_ms.mean(), p95, r.tick_ms.percentile(0.99), ok ? "yes" : "NO");
    }
    print_rule();
  }
  for (const auto& [policy, cap] : capacity) {
    report.metrics.push_back({"capacity_players." + policy,
                              static_cast<double>(cap)});
  }

  print_title("E2 summary: capacity at tick p95 <= " + std::to_string(slo_ms) + " ms");
  const std::int64_t vanilla_cap = capacity.count("vanilla") ? capacity["vanilla"] : 0;
  for (const auto& [policy, cap] : capacity) {
    std::printf("%-12s supports %4lld players", policy.c_str(),
                static_cast<long long>(cap));
    if (policy != "vanilla" && vanilla_cap > 0) {
      std::printf("  (%+.0f%% vs vanilla)",
                  pct_change(static_cast<double>(vanilla_cap), static_cast<double>(cap)));
    }
    std::printf("\n");
  }
  std::printf("(capacities are resolved at the sweep's granularity; pass a denser\n"
              " --players list for a finer crossover)\n");
  return report;
  });
  finish_trace(flags);
  return rc;
}
