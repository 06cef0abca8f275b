// E11 — Chaos: graceful degradation under injected network faults
// (DESIGN.md §8, EXPERIMENTS.md E11). Sweeps per-frame loss rates while a
// fixed partition-and-heal plus one subscriber crash-and-restart run in the
// background, and reports what the paper's middleware must guarantee even
// then: bounded inconsistency (zero post-recovery bound violations),
// recovery latency after the last heal, and byte-identical replay from the
// same seed + fault plan.
//
//   e11_chaos [--players=24] [--duration=45] [--loss=0,2,5,10,20]
//             [--faults=FILE] [--fault-seed=N]
//             [--runs=N | --seeds=a,b,c] [--json=FILE]
#include <cstring>
#include <sstream>

#include "bench_util.h"

using namespace dyconits;
using namespace dyconits::bench;

namespace {

struct ChaosOutcome {
  bots::SimulationResult result;
  std::uint64_t bound_violations = 0;  // post-heal queues left over their bounds
  double recovery_s = -1.0;            // heal -> pos error back near baseline
  std::uint64_t fingerprint = 0;       // replay check: final world + wire state
};

/// One chaos run: `loss` on every link, a partition of a quarter of the
/// fleet at warmup+10s for 3s, and bot 0 crashing at warmup+17s for 3s.
ChaosOutcome run_chaos(const Flags& flags, std::uint64_t seed, double loss) {
  auto cfg = base_config(flags);
  cfg.seed = seed;
  cfg.players = static_cast<std::size_t>(flags.get_int("players", 24));
  // The replay check demands byte-identical reruns; the policy's load
  // signal must therefore come from the modeled cost, not host wall clock.
  cfg.deterministic_load = true;
  cfg.record_timelines = true;
  cfg.faults.link.loss = loss;
  const double part0 = cfg.warmup.as_seconds() + 10.0;
  const double crash0 = part0 + 7.0;
  cfg.faults.events.push_back(
      {bots::ScheduledFault::Kind::Partition, part0, part0 + 3.0, 0, 0.25});
  cfg.faults.events.push_back(
      {bots::ScheduledFault::Kind::Crash, crash0, crash0 + 3.0, 0, 0.0});
  const SimTime heal = SimTime::zero() + SimDuration::micros(
                                             static_cast<std::int64_t>((crash0 + 3.0) * 1e6));

  ChaosOutcome out;
  bots::Simulation sim(cfg);
  // Invariant check: after every post-heal tick (the policy has flushed),
  // no subscriber queue may still violate its bounds. Transient violations
  // *during* the fault window are expected — that is the degradation the
  // middleware is absorbing; leftover ones after recovery are bugs.
  sim.set_tick_hook([&](bots::Simulation& s, SimTime now) {
    if (now <= heal + SimDuration::seconds(1)) return;
    s.server().dyconits().for_each([&](dyconit::Dyconit& d) {
      d.for_each_subscriber([&](dyconit::SubscriberId, dyconit::Bounds& b,
                                const dyconit::SubscriberQueue& q) {
        if (q.violates(b, now)) ++out.bound_violations;
      });
    });
  });
  const auto ticks =
      static_cast<std::uint64_t>(cfg.duration.count_micros() /
                                 sim.server().config().tick_interval.count_micros());
  for (std::uint64_t i = 0; i < ticks; ++i) sim.step_tick();

  // Replay fingerprint before finalize: ground truth + exact wire totals.
  net::Fnv1a fp;
  sim.server().entities().for_each([&](const entity::Entity& e) {
    fp.u64(e.id);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(e.pos.x));
    std::memcpy(&bits, &e.pos.x, sizeof(bits));
    fp.u64(bits);
    std::memcpy(&bits, &e.pos.z, sizeof(bits));
    fp.u64(bits);
  });
  fp.u64(sim.network().total_bytes());
  fp.u64(sim.network().total_frames());
  fp.u64(sim.faults().injected_totals().dropped.frames);
  out.fingerprint = fp.value();

  sim.finalize();
  out.result = std::move(sim.result());

  // Recovery latency: first post-heal second where the mean positional
  // error is back within 1.5x of the pre-fault baseline (+0.25 blocks of
  // noise floor).
  const auto& series = out.result.registry.series("pos_error_mean");
  double baseline = 0.0;
  std::size_t n = 0;
  for (const auto& [t, v] : series.points()) {
    const double ts = t.as_seconds();
    if (ts >= cfg.warmup.as_seconds() && ts < part0) {
      baseline += v;
      ++n;
    }
  }
  if (n > 0) baseline /= static_cast<double>(n);
  for (const auto& [t, v] : series.points()) {
    if (t <= heal) continue;
    if (v <= baseline * 1.5 + 0.25) {
      out.recovery_s = (t - heal).as_seconds();
      break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  check_flags(flags, {"loss"});

  std::vector<double> losses;
  {
    std::stringstream ss(flags.get_string("loss", "0,2,5,10,20"));
    std::string tok;
    while (std::getline(ss, tok, ',')) losses.push_back(std::stod(tok) / 100.0);
  }

  const int rc = run_seeded(flags, [&](std::uint64_t seed) {
  JsonReport report;
  report.bench = "e11_chaos";
  report.config = {
      {"players", json_num(static_cast<double>(flags.get_int("players", 24)))},
      {"seed", json_num(static_cast<double>(seed))},
      {"losses", json_str(flags.get_string("loss", "0,2,5,10,20"))},
  };
  bool all_replay_ok = true;
  print_title("E11: graceful degradation vs per-frame loss rate");
  std::printf("(fixed schedule per run: 25%% partition for 3 s, then bot 0 "
              "crash/restart for 3 s)\n");
  std::printf("%6s %8s %8s %8s %8s %8s %8s %10s %10s %8s\n", "loss%", "dropped",
              "gaps", "resyncs", "served", "reconn", "pruned", "violate", "recover_s",
              "replay");
  print_rule(100);
  for (const double loss : losses) {
    auto out = run_chaos(flags, seed, loss);
    // Replay check: the identical config must reproduce the identical final
    // world and wire history, faults and all.
    const auto again = run_chaos(flags, seed, loss);
    const bool replay_ok = again.fingerprint == out.fingerprint;
    all_replay_ok = all_replay_ok && replay_ok;
    const auto& r = out.result;
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".loss%g", loss * 100.0);
    report.metrics.push_back({std::string("gaps") + suffix,
                              static_cast<double>(r.gaps_detected)});
    report.metrics.push_back({std::string("resyncs_served") + suffix,
                              static_cast<double>(r.resyncs_served)});
    report.metrics.push_back({std::string("bound_violations") + suffix,
                              static_cast<double>(out.bound_violations)});
    std::printf("%6.1f %8llu %8llu %8llu %8llu %8llu %8llu %10llu %10.1f %8s\n",
                loss * 100.0, static_cast<unsigned long long>(r.frames_dropped),
                static_cast<unsigned long long>(r.gaps_detected),
                static_cast<unsigned long long>(r.resyncs_requested),
                static_cast<unsigned long long>(r.resyncs_served),
                static_cast<unsigned long long>(r.reconnects),
                static_cast<unsigned long long>(r.replica_pruned),
                static_cast<unsigned long long>(out.bound_violations), out.recovery_s,
                replay_ok ? "ok" : "MISMATCH");
  }
  std::printf(
      "(violate: post-recovery subscriber queues still over their bounds after the\n"
      " policy flushed — must be 0; recover_s: seconds from last heal until client\n"
      " positional error returned to its pre-fault baseline)\n");
  report.metrics.push_back({"replay_ok", all_replay_ok ? 1.0 : 0.0});
  report.ok = all_replay_ok;
  return report;
  });
  finish_trace(flags);
  return rc;
}
