// Determinism suite (DESIGN.md §9): a run is a pure function of its seed
// and configuration. Every run here drives the full stack (server + bots +
// simulated network) from a fixed seed and checks:
//
//   - seeded replay: the hardest scenarios (resyncs under loss, the
//     overload ladder) run twice from one seed and must agree on
//     everything — the network's order-sensitive wire hash (every frame
//     that got on the wire: from, to, tag, seq, payload — see
//     SimNetwork::wire_hash), a final-state digest (entities, edited
//     ground-truth chunks, wire totals), the middleware's full Stats
//     ledger including the FP-sensitive weight_delivered accumulator, and
//     per-dyconit end-state counters;
//   - the golden wires: committed baselines pin the wire stream over time,
//     so a behavior change anywhere in the update path shows up as a
//     readable diff (first divergent tick + which byte family moved).
//     tests/golden/serial_wire.txt runs with overload control off;
//     tests/golden/overload_wire.txt pins the overload ladder scenario
//     (egress queues, chunk deferral, shedding) transition by transition.
//     Regenerate deliberately with scripts/rebaseline.sh.
//
// Knobs (all optional, for local soak and rebaselining):
//   DYCONITS_DET_TICKS=N   cap on measured ticks per replay run
//   DYCONITS_REBASELINE=1  rewrite both golden baselines and skip
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bots/simulation.h"
#include "world_digest.h"

namespace dyconits::bots {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

std::size_t det_ticks() {
  return static_cast<std::size_t>(env_u64("DYCONITS_DET_TICKS", 1000));
}

/// E2-style workload: a village hotspot, NPC mobs, environmental block
/// ticks, staggered joins — enough cross-dyconit traffic that any ordering
/// slip in the flush path shows up in the wire stream.
SimulationConfig det_config(std::uint64_t seed, std::size_t ticks) {
  SimulationConfig cfg;
  cfg.players = 16;
  cfg.policy = "director";
  cfg.seed = seed;
  cfg.view_distance = 4;
  cfg.link_latency = SimDuration::millis(25);
  cfg.link_jitter = 0.1;
  cfg.workload.kind = WorkloadKind::Village;
  cfg.joins_per_tick = 4;
  cfg.mobs = 8;
  cfg.env_ticks = 2;
  cfg.warmup = SimDuration::seconds(5);
  // run() executes duration / tick_interval ticks total (warmup included).
  cfg.duration = cfg.warmup + SimDuration::millis(static_cast<std::int64_t>(ticks) * 50);
  // The director's load input must be the modeled tick cost: with measured
  // wall clock in the loop, a slow host (e.g. a sanitizer build) crosses
  // the tick-pressure threshold differently from run to run and
  // legitimately changes the wire bytes. Byte-identity is only defined over
  // deterministic inputs (DESIGN.md §9).
  cfg.deterministic_load = true;
  return cfg;
}

/// Everything a run must reproduce exactly from its seed.
struct RunDigest {
  std::uint64_t wire_hash = 0;
  std::uint64_t world = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_frames = 0;
  std::uint64_t server_egress_bytes = 0;
  std::uint64_t resyncs_served = 0;

  // Middleware ledger; weight_delivered is FP and therefore only equal when
  // flush accounting ran in the exact same order.
  dyconit::Stats stats;

  // Per-dyconit end state, in canonical id order.
  struct DyconitRow {
    std::string id;
    std::size_t subscribers = 0;
    std::size_t queued = 0;
  };
  std::vector<DyconitRow> dyconits;
};

RunDigest digest_of(Simulation& sim) {
  RunDigest d;
  d.wire_hash = sim.network().wire_hash();
  d.world = world_digest(sim);
  d.total_bytes = sim.network().total_bytes();
  d.total_frames = sim.network().total_frames();
  d.server_egress_bytes = sim.network().egress_bytes(sim.server().endpoint());
  d.resyncs_served = sim.server().resyncs_served();
  d.stats = sim.server().dyconit_stats();
  sim.server().dyconits().for_each([&](dyconit::Dyconit& dy) {
    d.dyconits.push_back({dy.id().to_string(), dy.subscriber_count(), dy.total_queued()});
  });
  std::sort(d.dyconits.begin(), d.dyconits.end(),
            [](const RunDigest::DyconitRow& a, const RunDigest::DyconitRow& b) {
              return a.id < b.id;
            });
  return d;
}

void expect_same_run(const RunDigest& want, const RunDigest& got,
                     const std::string& label) {
  EXPECT_EQ(want.wire_hash, got.wire_hash) << label << ": wire bytes diverged";
  EXPECT_EQ(want.world, got.world) << label << ": final world state diverged";
  EXPECT_EQ(want.total_bytes, got.total_bytes) << label;
  EXPECT_EQ(want.total_frames, got.total_frames) << label;
  EXPECT_EQ(want.server_egress_bytes, got.server_egress_bytes) << label;
  EXPECT_EQ(want.resyncs_served, got.resyncs_served) << label;

  const dyconit::Stats& a = want.stats;
  const dyconit::Stats& b = got.stats;
  EXPECT_EQ(a.enqueued, b.enqueued) << label;
  EXPECT_EQ(a.coalesced, b.coalesced) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.dropped_no_subscriber, b.dropped_no_subscriber) << label;
  EXPECT_EQ(a.dropped_unsubscribe, b.dropped_unsubscribe) << label;
  EXPECT_EQ(a.flushes_staleness, b.flushes_staleness) << label;
  EXPECT_EQ(a.flushes_numerical, b.flushes_numerical) << label;
  EXPECT_EQ(a.flushes_forced, b.flushes_forced) << label;
  EXPECT_EQ(a.snapshots_requested, b.snapshots_requested) << label;
  EXPECT_EQ(a.dropped_snapshot, b.dropped_snapshot) << label;
  EXPECT_EQ(a.resyncs, b.resyncs) << label;
  // Bitwise, not approximate: same additions in the same order.
  EXPECT_EQ(a.weight_delivered, b.weight_delivered)
      << label << ": flush accounting order diverged";

  ASSERT_EQ(want.dyconits.size(), got.dyconits.size()) << label;
  for (std::size_t i = 0; i < want.dyconits.size(); ++i) {
    EXPECT_EQ(want.dyconits[i].id, got.dyconits[i].id) << label;
    EXPECT_EQ(want.dyconits[i].subscribers, got.dyconits[i].subscribers)
        << label << " " << want.dyconits[i].id;
    EXPECT_EQ(want.dyconits[i].queued, got.dyconits[i].queued)
        << label << " " << want.dyconits[i].id;
  }
}

// ----------------------------------------------------- resync mid-run

/// Resyncs requested mid-run must be served in canonical order: snapshot
/// streams ride the same wire as regular flushes, so any ordering slip
/// breaks replay.
TEST(SeededReplay, ResyncMidRunReplaysIdentically) {
  const std::size_t ticks = std::min<std::size_t>(det_ticks(), 600);
  auto run_with_resyncs = [&] {
    SimulationConfig cfg = det_config(7, ticks);
    cfg.faults.link.loss = 0.03;  // lost frames → gap detection → resyncs too
    Simulation sim(cfg);
    std::uint64_t tick_no = 0;
    sim.set_tick_hook([&](Simulation& s, SimTime) {
      ++tick_no;
      if (tick_no == 150 || tick_no == 151 || tick_no == 320) {
        auto& bots = s.bots();
        if (!bots.empty()) bots[tick_no % bots.size()]->request_resync();
      }
    });
    sim.run();
    return digest_of(sim);
  };

  const RunDigest first = run_with_resyncs();
  ASSERT_GT(first.resyncs_served, 0u) << "scenario never exercised resync";
  expect_same_run(first, run_with_resyncs(), "resync rerun");
}

// ----------------------------------------------------- wire checkpoints

struct Checkpoint {
  std::uint64_t tick = 0;
  std::uint64_t wire_hash = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t move_bytes = 0;   // EntityMove + EntityMoveBatch
  std::uint64_t block_bytes = 0;  // BlockChange + MultiBlockChange
  std::uint64_t chunk_bytes = 0;  // ChunkData
  int rung = -1;                  // ladder rung; -1 = not recorded
};

/// The wire as it stands after `tick`: order-sensitive hash, totals, and the
/// server's egress bytes split by update family.
Checkpoint checkpoint_of(Simulation& sim, std::uint64_t tick, int rung = -1) {
  const auto server = sim.server().endpoint();
  auto family = [&](protocol::MessageType a, protocol::MessageType b) {
    std::uint64_t n = sim.network().egress_bytes_by_tag(
        server, static_cast<std::uint8_t>(a));
    if (b != a) {
      n += sim.network().egress_bytes_by_tag(server, static_cast<std::uint8_t>(b));
    }
    return n;
  };
  Checkpoint c;
  c.tick = tick;
  c.wire_hash = sim.network().wire_hash();
  c.frames = sim.network().total_frames();
  c.bytes = sim.network().total_bytes();
  c.move_bytes = family(protocol::MessageType::EntityMove,
                        protocol::MessageType::EntityMoveBatch);
  c.block_bytes = family(protocol::MessageType::BlockChange,
                         protocol::MessageType::MultiBlockChange);
  c.chunk_bytes = family(protocol::MessageType::ChunkData,
                         protocol::MessageType::ChunkData);
  c.rung = rung;
  return c;
}

// ----------------------------------------------------- overload ladder

constexpr std::uint64_t kLadderSeed = 1337;
constexpr std::uint64_t kLadderTicks = 800;

struct LadderDigest {
  RunDigest run;
  /// One checkpoint per rung transition, at the tick it happened.
  std::vector<Checkpoint> rungs;
  /// The wire after the last tick, carrying the final rung.
  Checkpoint last;
  std::uint64_t transitions = 0;
};

/// The overload scenario: a constrained uplink, one stalled client, one
/// spamming client and a flash crowd, with overload control on. Queues
/// coalesce, bounds widen, chunks defer and a worst offender is kicked.
LadderDigest ladder_run(std::size_t ticks) {
  SimulationConfig cfg = det_config(kLadderSeed, ticks);
  cfg.server_egress_rate = 192 * 1024;  // constrained uplink
  cfg.overload.enabled = true;
  // Engage on uplink saturation, not CPU exhaustion (the modeled cost at
  // this scale never nears the 50 ms budget); see tests/overload_test.cpp.
  cfg.overload.budget_engage = 0.010;
  cfg.overload.budget_release = 0.004;
  cfg.overload.engage_ticks = 2;
  const double w = cfg.warmup.as_seconds();
  const double end = cfg.duration.as_seconds();
  cfg.overload_schedule.events.push_back(
      {ScheduledOverload::Kind::Stall, w + 1.0, end, 0, 0, 1.0});
  cfg.overload_schedule.events.push_back(
      {ScheduledOverload::Kind::Spam, w + 2.0, end, 0, 0, 4.0});
  cfg.overload_schedule.events.push_back(
      {ScheduledOverload::Kind::Flash, w + 5.0, 0, 0, 4, 1.0});

  Simulation sim(cfg);
  LadderDigest d;
  int last_rung = 0;
  sim.set_tick_hook([&](Simulation& s, SimTime) {
    const int rung = s.server().overload_rung();
    if (rung != last_rung) {
      d.rungs.push_back(checkpoint_of(s, s.server().tick_count(), rung));
      last_rung = rung;
    }
  });
  sim.run();
  d.run = digest_of(sim);
  d.last = checkpoint_of(sim, sim.server().tick_count(), sim.server().overload_rung());
  d.transitions = sim.server().overload_stats().ladder_transitions;
  return d;
}

/// The degradation ladder (DESIGN.md §10) is part of the determinism
/// contract: every rung decision is a pure function of the modeled tick
/// cost, so an overloaded run must replay byte-identically from its seed,
/// transition for transition.
TEST(SeededReplay, OverloadLadderReplaysIdentically) {
  const std::size_t ticks = std::min<std::size_t>(det_ticks(), kLadderTicks);
  const LadderDigest first = ladder_run(ticks);
  ASSERT_GT(first.transitions, 0u) << "scenario never engaged the ladder";
  const LadderDigest got = ladder_run(ticks);
  expect_same_run(first.run, got.run, "ladder rerun");
  EXPECT_EQ(first.transitions, got.transitions);
  EXPECT_EQ(first.last.rung, got.last.rung);
  // Transition-for-transition: same rung at the same tick with the same
  // bytes on the wire at that instant.
  ASSERT_EQ(first.rungs.size(), got.rungs.size());
  for (std::size_t i = 0; i < first.rungs.size(); ++i) {
    EXPECT_EQ(first.rungs[i].tick, got.rungs[i].tick) << "#" << i;
    EXPECT_EQ(first.rungs[i].rung, got.rungs[i].rung) << "#" << i;
    EXPECT_EQ(first.rungs[i].wire_hash, got.rungs[i].wire_hash)
        << "#" << i << " (wire diverged before this transition)";
  }
}

// ----------------------------------------------------- golden baselines

constexpr std::uint64_t kGoldenSeed = 42;
constexpr std::uint64_t kGoldenTicks = 600;
constexpr std::uint64_t kGoldenEvery = 25;

std::string golden_path(const char* name) {
  return std::string(DYCONITS_GOLDEN_DIR) + "/" + name;
}

std::vector<Checkpoint> golden_run() {
  Simulation sim(det_config(kGoldenSeed, kGoldenTicks));
  std::vector<Checkpoint> out;
  for (std::uint64_t t = 1; t <= kGoldenTicks; ++t) {
    sim.step_tick();
    if (t % kGoldenEvery == 0) out.push_back(checkpoint_of(sim, t));
  }
  return out;
}

/// `title` is the first header line; a rung column is written for
/// checkpoints that recorded one.
void write_baseline(const std::string& path, const std::string& title,
                    const std::vector<Checkpoint>& cps) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  const bool with_rung = !cps.empty() && cps.front().rung >= 0;
  out << "# " << title << "\n"
      << "# Regenerate deliberately with scripts/rebaseline.sh after any\n"
      << "# intended change to the update/wire path.\n"
      << "# tick wire_hash frames bytes move_bytes block_bytes chunk_bytes"
      << (with_rung ? " rung" : "") << "\n";
  char line[160];
  for (const Checkpoint& c : cps) {
    std::snprintf(line, sizeof(line), "%llu %016llx %llu %llu %llu %llu %llu",
                  (unsigned long long)c.tick, (unsigned long long)c.wire_hash,
                  (unsigned long long)c.frames, (unsigned long long)c.bytes,
                  (unsigned long long)c.move_bytes, (unsigned long long)c.block_bytes,
                  (unsigned long long)c.chunk_bytes);
    out << line;
    if (c.rung >= 0) out << " " << c.rung;
    out << "\n";
  }
}

bool read_baseline(const std::string& path, std::vector<Checkpoint>* out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    Checkpoint c;
    std::istringstream ss(line);
    ss >> c.tick >> std::hex >> c.wire_hash >> std::dec >> c.frames >> c.bytes >>
        c.move_bytes >> c.block_bytes >> c.chunk_bytes;
    if (ss.fail()) return false;
    if (!(ss >> c.rung)) c.rung = -1;  // optional column
    out->push_back(c);
  }
  return true;
}

/// Rewrites the baseline under DYCONITS_REBASELINE=1 (and skips); otherwise
/// fails at the first checkpoint that diverges from it, naming the byte
/// family that moved so the diff points at a subsystem.
void check_baseline(const std::string& path, const std::string& title,
                    const std::vector<Checkpoint>& got) {
  if (env_u64("DYCONITS_REBASELINE", 0) != 0) {
    write_baseline(path, title, got);
    GTEST_SKIP() << "rebaselined " << path << " (" << got.size() << " checkpoints)";
  }

  std::vector<Checkpoint> want;
  ASSERT_TRUE(read_baseline(path, &want))
      << "missing or unreadable golden baseline " << path
      << " — run scripts/rebaseline.sh";
  ASSERT_EQ(want.size(), got.size()) << "checkpoint count changed";

  for (std::size_t i = 0; i < want.size(); ++i) {
    const Checkpoint& w = want[i];
    const Checkpoint& g = got[i];
    if (w.tick == g.tick && w.rung == g.rung && w.wire_hash == g.wire_hash &&
        w.frames == g.frames && w.bytes == g.bytes) {
      continue;
    }
    std::string hint;
    if (g.tick != w.tick || g.rung != w.rung) {
      hint += " checkpoint (tick, rung) (" + std::to_string(w.tick) + ", " +
              std::to_string(w.rung) + ") -> (" + std::to_string(g.tick) + ", " +
              std::to_string(g.rung) + ")";
    }
    if (g.move_bytes != w.move_bytes) {
      hint += " move_bytes " + std::to_string(w.move_bytes) + " -> " +
              std::to_string(g.move_bytes) + " (entity movement path)";
    }
    if (g.block_bytes != w.block_bytes) {
      hint += " block_bytes " + std::to_string(w.block_bytes) + " -> " +
              std::to_string(g.block_bytes) + " (block-edit path)";
    }
    if (g.chunk_bytes != w.chunk_bytes) {
      hint += " chunk_bytes " + std::to_string(w.chunk_bytes) + " -> " +
              std::to_string(g.chunk_bytes) + " (chunk streaming/snapshot path)";
    }
    if (hint.empty()) hint = " same per-family byte totals (ordering or non-update frames)";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016llx vs %016llx",
                  (unsigned long long)w.wire_hash, (unsigned long long)g.wire_hash);
    FAIL() << "wire stream diverged from golden baseline " << path << " at tick "
           << w.tick << " (first divergent checkpoint): wire_hash " << buf
           << ", frames " << w.frames << " -> " << g.frames << ", bytes " << w.bytes
           << " -> " << g.bytes << ";" << hint
           << ". If this change is intended, run scripts/rebaseline.sh.";
  }
}

TEST(GoldenRun, SerialWireBaselineUnchanged) {
  check_baseline(golden_path("serial_wire.txt"),
                 "Serial-oracle wire baseline: seed " + std::to_string(kGoldenSeed) +
                     ", " + std::to_string(kGoldenTicks) + " ticks, checkpoint every " +
                     std::to_string(kGoldenEvery) + ".",
                 golden_run());
}

/// Pins the overload-control wire (egress queues, the ladder, chunk
/// deferral, overload disconnects), which the serial baseline runs with
/// overload off: one checkpoint per rung transition, then the final wire.
TEST(GoldenRun, OverloadWireBaselineUnchanged) {
  const LadderDigest d = ladder_run(kLadderTicks);
  std::vector<Checkpoint> got = d.rungs;
  got.push_back(d.last);
  check_baseline(golden_path("overload_wire.txt"),
                 "Overload-ladder wire baseline: seed " + std::to_string(kLadderSeed) +
                     ", " + std::to_string(kLadderTicks) +
                     " ticks, checkpoint per rung transition plus the final tick.",
                 got);
}

}  // namespace
}  // namespace dyconits::bots
