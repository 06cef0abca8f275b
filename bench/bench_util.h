// Shared helpers for the experiment binaries (bench/e*.cpp). Each binary
// reproduces one table/figure of the paper's evaluation (see DESIGN.md §4
// and EXPERIMENTS.md) and prints a paper-style table on stdout. Progress
// goes to stderr so stdout stays machine-readable.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "bots/faults.h"
#include "bots/overload_schedule.h"
#include "bots/simulation.h"
#include "trace/trace_flags.h"
#include "util/flags.h"

namespace dyconits::bench {

/// Flags every bench binary accepts (base_config + tracing + help). Pass
/// binary-specific extras to check_flags.
inline std::vector<std::string> common_flag_names() {
  return {"players",          "duration",
          "warmup",           "seed",
          "seeds",            "runs",
          "json",             "view",
          "workload",         "faults",
          "fault-seed",       "overload",
          trace::kTraceFlag,  trace::kTraceBufferFlag,
          "help"};
}

/// Rejects misspelled flags (--player=100 used to be silently ignored) and
/// arms --trace recording. Call once, right after parsing.
inline void check_flags(const Flags& flags,
                        const std::vector<std::string>& extra = {}) {
  std::vector<std::string> allowed = common_flag_names();
  allowed.insert(allowed.end(), extra.begin(), extra.end());
  flags.assert_known(allowed);
  trace::configure_from_flags(flags);
}

/// Dumps the recorded trace (if --trace was given); call before exiting.
inline void finish_trace(const Flags& flags) {
  trace::write_trace_from_flags(flags, std::cerr);
}

/// Prints the measured per-phase tick breakdown of one run.
inline void print_phase_breakdown(const bots::SimulationResult& r) {
  std::printf("\n-- phase breakdown: policy=%s players=%zu --\n", r.policy.c_str(),
              r.players);
  trace::print_phase_table(std::cout, r.phases);
}

/// Baseline experiment configuration, overridable from the command line:
///   --players=N --duration=SECONDS --warmup=SECONDS --seed=N
///   --workload=walk|village|build|mixed --view=N
/// plus fault injection: --faults=FILE [--fault-seed=N] (see bots/faults.h
/// for the schedule format) and tracing: --trace=FILE [--trace-buffer=N].
/// The warmup is counted inside the duration, so a run whose warmup does
/// not end before its duration would measure nothing: it exits(2) instead.
/// Benches with other default durations pass them in.
inline bots::SimulationConfig base_config(const Flags& flags,
                                          std::int64_t default_duration_s = 45,
                                          std::int64_t default_warmup_s = 15) {
  bots::SimulationConfig cfg;
  cfg.players = static_cast<std::size_t>(flags.get_int("players", 50));
  cfg.duration = SimDuration::seconds(flags.get_int("duration", default_duration_s));
  cfg.warmup = SimDuration::seconds(flags.get_int("warmup", default_warmup_s));
  if (cfg.warmup >= cfg.duration) {
    std::fprintf(stderr, "--warmup=%.0f must be less than --duration=%.0f (seconds)\n",
                 cfg.warmup.as_seconds(), cfg.duration.as_seconds());
    std::exit(2);
  }
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.view_distance = static_cast<int>(flags.get_int("view", 8));
  cfg.workload.kind = bots::parse_workload(flags.get_string("workload", "village"));
  cfg.joins_per_tick = 4;
  const std::string fault_file = flags.get_string("faults", "");
  if (!fault_file.empty()) {
    std::string error;
    if (!bots::load_fault_schedule(fault_file, &cfg.faults, &error)) {
      std::fprintf(stderr, "--faults: %s\n", error.c_str());
      std::exit(2);
    }
  }
  cfg.fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 0));
  // --overload=FILE schedules stalled clients / flash crowds / spam bursts
  // (see bots/overload_schedule.h for the format).
  const std::string overload_file = flags.get_string("overload", "");
  if (!overload_file.empty()) {
    std::string error;
    if (!bots::load_overload_schedule(overload_file, &cfg.overload_schedule, &error)) {
      std::fprintf(stderr, "--overload: %s\n", error.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

/// Runs one simulation, narrating to stderr.
inline bots::SimulationResult run(bots::SimulationConfig cfg) {
  std::fprintf(stderr, "  running policy=%-14s players=%-4zu workload=%s ...",
               cfg.policy.c_str(), cfg.players, bots::workload_name(cfg.workload.kind));
  std::fflush(stderr);
  bots::Simulation sim(cfg);
  auto result = sim.run();
  std::fprintf(stderr, " done (%.0f KB/s, tick p95 %.2f ms)\n",
               result.egress_bytes_per_sec / 1000.0, result.tick_ms.percentile(0.95));
  return result;
}

/// Sum of egress bytes over the high-rate update message families — the
/// traffic dyconits manage (chunk streaming/keep-alives are out of scope).
inline std::uint64_t update_bytes(const bots::SimulationResult& r) {
  std::uint64_t b = 0;
  for (const auto type :
       {protocol::MessageType::EntityMove, protocol::MessageType::EntityMoveBatch,
        protocol::MessageType::BlockChange, protocol::MessageType::MultiBlockChange}) {
    const auto it = r.egress_bytes_by_type.find(type);
    if (it != r.egress_bytes_by_type.end()) b += it->second;
  }
  return b;
}

// ------------------------------------------- --json=FILE / --seeds / --runs
//
// Machine-readable run reports (schema in bench_stats.h), so experiment
// results can be committed and diffed (BENCH_*.json) instead of scraped
// out of stdout tables. With more than one seed the written report is the
// schema-2 cross-seed form: per-metric mean, CoV, and noise band.

/// Seeds for this invocation: --seeds=a,b,c wins; else --runs=N expands to
/// seed, seed+1, ..., seed+N-1 (base from --seed, default 42); else the
/// single --seed. Meterstick (PAPERS.md): report across >=5 seeds.
inline std::vector<std::uint64_t> seed_list(const Flags& flags) {
  std::vector<std::uint64_t> seeds;
  const std::string listed = flags.get_string("seeds", "");
  if (!listed.empty()) {
    std::stringstream ss(listed);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      seeds.push_back(static_cast<std::uint64_t>(std::stoull(tok)));
    }
    return seeds;
  }
  const auto base = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto runs = static_cast<std::uint64_t>(flags.get_int("runs", 1));
  for (std::uint64_t i = 0; i < std::max<std::uint64_t>(runs, 1); ++i) {
    seeds.push_back(base + i);
  }
  return seeds;
}

/// Honors --json=FILE for a set of per-seed reports: one seed writes the
/// schema-1 single-run report, several write the schema-2 cross-seed
/// summary. Exits(2) if the file cannot be created — a requested report
/// that silently vanishes poisons committed baselines.
inline bool maybe_write_json(const Flags& flags, const std::vector<JsonReport>& runs,
                             const std::vector<std::uint64_t>& seeds) {
  const std::string path = flags.get_string("json", "");
  if (path.empty() || runs.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: --json=%s: cannot open for writing\n", path.c_str());
    std::exit(2);
  }
  if (runs.size() == 1) {
    write_json_report(f, runs.front());
  } else {
    write_multi_run_json(f, aggregate_runs(runs, seeds));
  }
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

/// Single-report convenience overload (benches that drive their own seeds).
inline bool maybe_write_json(const Flags& flags, const JsonReport& r) {
  return maybe_write_json(flags, std::vector<JsonReport>{r}, seed_list(flags));
}

/// Multi-seed driver: runs `one_run(seed)` once per seed (announcing
/// repeats on stdout so tables stay attributable), aggregates the per-seed
/// JsonReports, and honors --json. Returns the process exit code: 1 if any
/// run cleared JsonReport::ok, else 0.
inline int run_seeded(const Flags& flags,
                      const std::function<JsonReport(std::uint64_t seed)>& one_run) {
  const auto seeds = seed_list(flags);
  std::vector<JsonReport> runs;
  bool ok = true;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (seeds.size() > 1) {
      std::printf("\n##### run %zu/%zu (seed %llu) #####\n", i + 1, seeds.size(),
                  static_cast<unsigned long long>(seeds[i]));
      std::fprintf(stderr, "-- run %zu/%zu (seed %llu)\n", i + 1, seeds.size(),
                   static_cast<unsigned long long>(seeds[i]));
    }
    runs.push_back(one_run(seeds[i]));
    ok = ok && runs.back().ok;
  }
  maybe_write_json(flags, runs, seeds);
  return ok ? 0 : 1;
}

/// Fills the shared parts of a simulation-backed report: config (players,
/// seed, policy, workload, duration), core egress/tick metrics,
/// and the per-phase breakdown with mean/p50/p95/p99.
inline JsonReport simulation_report(const std::string& bench,
                                    const bots::SimulationConfig& cfg,
                                    const bots::SimulationResult& r) {
  JsonReport out;
  out.bench = bench;
  out.config = {
      {"players", json_num(static_cast<double>(cfg.players))},
      {"seed", json_num(static_cast<double>(cfg.seed))},
      {"policy", json_str(cfg.policy)},
      {"workload", json_str(bots::workload_name(cfg.workload.kind))},
      {"view_distance", json_num(cfg.view_distance)},
      {"duration_s", json_num(cfg.duration.as_seconds())},
  };
  out.metrics = {
      {"egress_bytes_per_sec", r.egress_bytes_per_sec},
      {"egress_frames_per_sec", r.egress_frames_per_sec},
      {"tick_mean_ms", r.tick_ms.mean()},
      {"tick_p50_ms", r.tick_ms.percentile(0.5)},
      {"tick_p95_ms", r.tick_ms.percentile(0.95)},
      {"tick_p99_ms", r.tick_ms.percentile(0.99)},
  };
  for (const auto& p : r.phases.phases) {
    out.phases.push_back({p.name, p.ms.mean(), 0, 0, 0, /*has_percentiles=*/false});
  }
  return out;
}

inline void print_title(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline double pct_change(double baseline, double value) {
  return baseline > 0 ? 100.0 * (value - baseline) / baseline : 0.0;
}

}  // namespace dyconits::bench
