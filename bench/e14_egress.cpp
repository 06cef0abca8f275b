// E14 — Zero-allocation egress (DESIGN.md §11). Measures what the pooled
// frame buffers, encode-once broadcast frames, chunk RLE cache, and the
// exact sizing visitor buy on the hot egress path: steady-state frame-buffer
// allocations per tick (pool misses — must amortize to zero), flush-phase
// mean time, and wire throughput.
//
//   e14_egress [--players=200] [--duration=45]
//              [--runs=N | --seeds=a,b,c] [--json=FILE]
//              [--assert-alloc-ceiling=X]   fail (exit 1) if steady-state
//                                           pool misses/tick exceed X
#include <cstring>

#include "bench_util.h"
#include "net/buffer_pool.h"

using namespace dyconits;
using namespace dyconits::bench;

namespace {

double phase_mean(const bots::SimulationResult& r, const char* name) {
  for (const auto& p : r.phases.phases) {
    if (p.name == name) return p.ms.mean();
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  check_flags(flags, {"policy", "assert-alloc-ceiling"});

  const int rc = run_seeded(flags, [&](std::uint64_t seed) {
    auto cfg = base_config(flags);
    cfg.seed = seed;
    cfg.players = static_cast<std::size_t>(flags.get_int("players", 200));
    cfg.policy = flags.get_string("policy", "director");
    cfg.profile_phases = true;

    const auto r = run(cfg);

    print_title("E14: zero-allocation egress");
  std::printf("%-34s %14s\n", "metric", "value");
  print_rule(50);
  std::printf("%-34s %14.1f\n", "egress KB/s", r.egress_bytes_per_sec / 1000.0);
  std::printf("%-34s %14.0f\n", "egress frames/s", r.egress_frames_per_sec);
  std::printf("%-34s %14.3f\n", "tick mean (ms)", r.tick_ms.mean());
  std::printf("%-34s %14.3f\n", "tick p95 (ms)", r.tick_ms.percentile(0.95));
  std::printf("%-34s %14.3f\n", "flush phase mean (ms)",
              phase_mean(r, "server.dyconit_flush"));
  std::printf("%-34s %14.3f\n", "serialize_send mean (ms)",
              phase_mean(r, "server.serialize_send"));
  std::printf("%-34s %14llu\n", "pool hits (window)",
              static_cast<unsigned long long>(r.pool_hits));
  std::printf("%-34s %14llu\n", "pool misses (window)",
              static_cast<unsigned long long>(r.pool_misses));
  std::printf("%-34s %14.4f\n", "allocations/tick (pool misses)",
              r.pool_misses_per_tick);
  std::printf("%-34s %14zu\n", "pool high water (buffers)", r.pool_high_water);

    print_title("E14b: measured tick-phase breakdown (ms per tick)");
    print_phase_breakdown(r);

    JsonReport report = simulation_report("e14_egress", cfg, r);
    report.metrics.push_back({"pool_hits", static_cast<double>(r.pool_hits)});
    report.metrics.push_back({"pool_misses", static_cast<double>(r.pool_misses)});
    report.metrics.push_back({"pool_misses_per_tick", r.pool_misses_per_tick});
    report.metrics.push_back({"pool_high_water", static_cast<double>(r.pool_high_water)});

    // Perf-smoke gate for scripts/verify.sh: steady-state frame-buffer heap
    // allocations must stay under the pinned ceiling (0 once capacity warms).
    const std::string ceiling_s = flags.get_string("assert-alloc-ceiling", "");
    if (!ceiling_s.empty()) {
      const double ceiling = std::atof(ceiling_s.c_str());
      if (r.pool_misses_per_tick > ceiling) {
        std::fprintf(stderr,
                     "FAIL: steady-state allocations/tick %.4f exceeds ceiling %.4f\n",
                     r.pool_misses_per_tick, ceiling);
        report.ok = false;
      } else {
        std::fprintf(stderr, "alloc ceiling ok: %.4f <= %.4f\n",
                     r.pool_misses_per_tick, ceiling);
      }
    }
    return report;
  });
  finish_trace(flags);
  return rc;
}
