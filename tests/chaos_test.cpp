// Deterministic chaos suite (DESIGN.md §8): the full stack under network
// faults injected by the one fault layer, FaultInjectingTransport, wrapped
// around the SimNetwork link model. Re-asserts the §7 invariants *after
// recovery* — bounded inconsistency, eventual delivery (replicas converge
// exactly once the network heals and resyncs complete), closed accounting
// ledgers — plus byte-identical replay of any fault schedule from its seed.
//
// The fault seed matrix is driven by scripts/verify.sh via the
// DYCONITS_CHAOS_SEED environment variable (default 42).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "bots/faults.h"
#include "bots/simulation.h"
#include "world_digest.h"

namespace dyconits::bots {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("DYCONITS_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42ull;
}

SimulationConfig chaos_config(std::size_t players = 5) {
  SimulationConfig cfg;
  cfg.players = players;
  cfg.policy = "director";
  cfg.seed = chaos_seed();
  cfg.view_distance = 3;
  cfg.link_latency = SimDuration::millis(5);
  cfg.link_jitter = 0.0;
  cfg.workload.kind = WorkloadKind::Village;
  cfg.workload.hotspots = 1;
  cfg.workload.village_radius = 10.0;
  cfg.joins_per_tick = 10;
  cfg.keep_chunk_replica = true;
  cfg.warmup = SimDuration::seconds(5);
  return cfg;
}

/// Heals the network, asks every bot for a final catch-up resync, lets the
/// snapshot streams drain, then quiesces (bots paused, queues flushed,
/// network drained) so replicas can be compared against ground truth.
void heal_and_quiesce(Simulation& sim, int drain_ticks = 200) {
  sim.faults().heal_links();
  // A session that accumulated keepalive_missed_limit lost replies during
  // the fault window is torn down at the *next* keepalive interval — up to
  // 2 s after the heal. Settle past that window first so any doomed
  // teardown fires now instead of mid-drain (which would leave that bot
  // without a subscriber for the final flush).
  for (int i = 0; i < 200; ++i) sim.step_tick();
  // Then wait for the whole fleet to hold live, joined sessions again: a
  // torn-down bot needs up to 30 s of silence for its liveness detector to
  // notice, plus the join handshake.
  auto all_live = [&] {
    if (sim.server().player_count() < sim.bots().size()) return false;
    for (const auto& bot : sim.bots()) {
      if (!bot->joined()) return false;
    }
    return true;
  };
  for (int i = 0; i < 2400 && !all_live(); ++i) sim.step_tick();
  for (auto& bot : sim.bots()) bot->request_resync();
  for (int i = 0; i < drain_ticks; ++i) sim.step_tick();
  for (auto& bot : sim.bots()) bot->set_paused(true);
  for (int i = 0; i < 5; ++i) sim.step_tick();
  sim.server().dyconits().flush_all(sim.server());
  for (int i = 0; i < 5; ++i) sim.step_tick();
}

/// §7 invariant: replicas match ground truth exactly (f32 quantization
/// aside) once the system has recovered — no update was silently lost.
void expect_entities_converged(Simulation& sim, double tolerance = 0.01) {
  std::size_t checked = 0;
  for (const auto& bot : sim.bots()) {
    ASSERT_TRUE(bot->joined()) << bot->name() << " failed to (re)join";
    for (const auto& [id, rep] : bot->replica_entities()) {
      const entity::Entity* truth = sim.server().entities().find(id);
      ASSERT_NE(truth, nullptr)
          << bot->name() << " kept ghost entity " << id << " after resync";
      EXPECT_LT(world::distance(rep.pos, truth->pos), tolerance)
          << bot->name() << " entity " << id;
      if (world::distance(rep.pos, truth->pos) >= tolerance) {
        const auto bc = world::ChunkPos::of(bot->pos());
        const auto ec = world::ChunkPos::of(truth->pos);
        std::fprintf(stderr,
                     "DIAG %s self=%llu acks=%llu resyncs=%llu pruned=%llu "
                     "ent=%llu kind=%d chunkdist=(%d,%d) rep=(%.2f,%.2f) truth=(%.2f,%.2f)\n",
                     bot->name().c_str(), (unsigned long long)bot->self(),
                     (unsigned long long)bot->resync_acks_seen(),
                     (unsigned long long)bot->resyncs_requested(),
                     (unsigned long long)bot->replica_pruned(),
                     (unsigned long long)id, (int)truth->kind,
                     ec.x - bc.x, ec.z - bc.z, rep.pos.x, rep.pos.z,
                     truth->pos.x, truth->pos.z);
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

/// Middleware ledger (§7): every enqueued update is delivered, coalesced
/// into a delivered one, or dropped for an accounted reason.
void expect_dyconit_ledger_closed(Simulation& sim) {
  const dyconit::Stats& s = sim.server().dyconit_stats();
  EXPECT_EQ(sim.server().dyconits().total_queued(), 0u);  // post-quiesce
  EXPECT_EQ(s.enqueued, s.delivered + s.coalesced + s.dropped_no_subscriber +
                            s.dropped_unsubscribe + s.dropped_snapshot);
}

/// Fault-layer ledger per destination (net/faults.h): every copy the fault
/// layer accepted was refused, failed, dropped, delivered, or is still in
/// flight — held for reorder or waiting in the link model's inbox.
void expect_wire_ledger_closed(Simulation& sim) {
  auto check = [&](net::EndpointId ep) {
    const net::FaultStats& fs = sim.faults().fault_stats(ep);
    const net::Tally in_flight =
        sim.faults().held(ep) +
        net::Tally{sim.network().pending_count(ep), sim.network().pending_bytes(ep)};
    EXPECT_EQ(net::ledger_in(fs), net::ledger_out(fs, net::delivered(fs), in_flight))
        << sim.network().endpoint_name(ep);
  };
  check(sim.server().endpoint());
  for (const auto& bot : sim.bots()) check(bot->endpoint());
}

std::uint64_t frames_dropped(Simulation& sim) {
  return sim.faults().injected_totals().dropped.frames;
}

/// Replay fingerprint: the final world state plus exact wire totals.
std::uint64_t world_hash(Simulation& sim) {
  net::Fnv1a h;
  h.u64(world_digest(sim));
  h.u64(sim.network().total_bytes());
  h.u64(sim.network().total_frames());
  h.u64(frames_dropped(sim));
  h.u64(sim.server().resyncs_served());
  h.u64(sim.server().reconnects());
  return h.value();
}

// ------------------------------------------------------- probabilistic loss

class LossSweep : public ::testing::TestWithParam<int> {};  // loss in percent

TEST_P(LossSweep, RecoversAndConvergesAfterHeal) {
  auto cfg = chaos_config();
  cfg.faults.link.loss = static_cast<double>(GetParam()) / 100.0;
  Simulation sim(cfg);
  for (int i = 0; i < 400; ++i) sim.step_tick();
  if (GetParam() > 0) {
    EXPECT_GT(frames_dropped(sim), 0u);
  }
  heal_and_quiesce(sim);
  expect_entities_converged(sim);
  expect_dyconit_ledger_closed(sim);
  expect_wire_ledger_closed(sim);
  sim.finalize();
  if (GetParam() >= 10) {
    // Heavy loss must actually exercise the recovery machinery.
    EXPECT_GT(sim.result().gaps_detected, 0u);
    EXPECT_GT(sim.result().resyncs_requested, 0u);
    EXPECT_GT(sim.result().resyncs_served, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep, ::testing::Values(0, 5, 10, 20),
                         [](const auto& info) {
                           return "loss" + std::to_string(info.param) + "pct";
                         });

// --------------------------------------------------- reorder + duplication

TEST(ChaosTest, ReorderAndDuplicationConverge) {
  auto cfg = chaos_config();
  cfg.fifo_links = false;  // UDP-like: reorder is possible at all
  cfg.faults.link.reorder = 0.2;
  cfg.faults.link.reorder_extra = SimDuration::millis(80);
  cfg.faults.link.duplicate = 0.1;
  Simulation sim(cfg);
  for (int i = 0; i < 400; ++i) sim.step_tick();
  heal_and_quiesce(sim);
  expect_entities_converged(sim);
  expect_dyconit_ledger_closed(sim);
  expect_wire_ledger_closed(sim);
  sim.finalize();
  // Duplicates were delivered and recognized, not applied as new updates.
  EXPECT_GT(sim.result().frames_duplicated, 0u);
  EXPECT_GT(sim.result().dup_or_old_frames, 0u);
  EXPECT_EQ(sim.result().decode_failures, 0u);  // nothing was corrupted
}

TEST(ChaosTest, CorruptionIsRejectedNotApplied) {
  auto cfg = chaos_config();
  cfg.faults.link.corrupt = 0.05;
  Simulation sim(cfg);
  for (int i = 0; i < 400; ++i) sim.step_tick();
  heal_and_quiesce(sim);
  expect_entities_converged(sim);
  expect_wire_ledger_closed(sim);
  sim.finalize();
  // Corrupted frames must surface as decode failures (never crashes or
  // silently-applied garbage) and trigger resyncs that repair the replica.
  EXPECT_GT(sim.result().frames_corrupted, 0u);
  EXPECT_GT(sim.result().decode_failures, 0u);
  EXPECT_GT(sim.result().resyncs_requested, 0u);
}

// A `sendfail` directive models a sender-edge EAGAIN. The fault layer draws
// it on every send, so the server's transport ledger reports the failures
// and the silently vanished frames are repaired like losses.
TEST(ChaosTest, SendFailScheduleReportsSendFailures) {
  auto cfg = chaos_config();
  std::string error;
  ASSERT_TRUE(parse_fault_schedule("sendfail 0.05\n", &cfg.faults, &error)) << error;
  Simulation sim(cfg);
  for (int i = 0; i < 400; ++i) sim.step_tick();
  heal_and_quiesce(sim);
  expect_entities_converged(sim);
  expect_dyconit_ledger_closed(sim);
  expect_wire_ledger_closed(sim);
  sim.finalize();
  EXPECT_GT(sim.result().send_failures, 0u);
  EXPECT_GT(sim.result().resyncs_requested, 0u);
}

// ------------------------------------------------------- scheduled faults

TEST(ChaosTest, PartitionAndHeal) {
  auto cfg = chaos_config();
  // Half the fleet loses the server from t=8s to t=11s.
  cfg.faults.events.push_back({ScheduledFault::Kind::Partition, 8.0, 11.0, 0, 0.5});
  Simulation sim(cfg);
  for (int i = 0; i < 400; ++i) sim.step_tick();  // 20 s: well past the heal
  heal_and_quiesce(sim);
  expect_entities_converged(sim);
  expect_dyconit_ledger_closed(sim);
  expect_wire_ledger_closed(sim);
  sim.finalize();
  // The cut produced real damage (refused sends or in-flight drops) and the
  // partitioned bots resynced after the heal.
  EXPECT_GT(sim.result().frames_dropped, 0u);
  EXPECT_GT(sim.result().gaps_detected, 0u);
  EXPECT_GT(sim.result().resyncs_served, 0u);
}

TEST(ChaosTest, CrashAndRestart) {
  auto cfg = chaos_config();
  cfg.faults.events.push_back({ScheduledFault::Kind::Crash, 8.0, 10.0, 0, 0.0});
  Simulation sim(cfg);
  for (int i = 0; i < 400; ++i) sim.step_tick();
  heal_and_quiesce(sim);
  expect_entities_converged(sim);
  expect_wire_ledger_closed(sim);
  sim.finalize();
  // The crashed subscriber came back as a fresh session on the same
  // endpoint: the server must have torn down the old session and re-joined.
  EXPECT_GE(sim.result().reconnects, 1u);
  ASSERT_TRUE(sim.bots()[0]->joined());
}

// ------------------------------------------------------------ determinism

TEST(ChaosTest, SameSeedAndPlanReplayByteIdentical) {
  auto make = [] {
    auto cfg = chaos_config();
    cfg.faults.link.loss = 0.10;
    cfg.faults.link.duplicate = 0.02;
    cfg.faults.events.push_back({ScheduledFault::Kind::Partition, 8.0, 10.0, 0, 0.5});
    cfg.faults.events.push_back({ScheduledFault::Kind::Crash, 12.0, 14.0, 0, 0.0});
    return cfg;
  };
  std::uint64_t hashes[2];
  std::uint64_t dropped[2];
  for (int run = 0; run < 2; ++run) {
    Simulation sim(make());
    for (int i = 0; i < 400; ++i) sim.step_tick();
    hashes[run] = world_hash(sim);
    dropped[run] = frames_dropped(sim);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(dropped[0], dropped[1]);
  EXPECT_GT(dropped[0], 0u);  // the plan actually did something
}

// ----------------------------------------- server crash-restart (§13)

// The serving endpoint itself dies mid-run and restarts (DESIGN.md §13) —
// the sim-side mirror of `dyconits_server --crash-at-tick --restart`. Every
// client must notice the dead server through its liveness timer, re-enter
// the join handshake under jittered exponential backoff, and resume its
// session once the server is back; the entire outage, including every
// backoff jitter draw, must replay byte-identically from the seed.
TEST(ChaosTest, ServerCrashRestartSessionsResumeByteIdentical) {
  struct Outcome {
    std::uint64_t hash = 0;
    std::uint64_t liveness_resets = 0;
    std::uint64_t reconnects = 0;
    bool all_joined = false;
  };
  auto run = [] {
    auto cfg = chaos_config(3);
    // Arm outage detection: tight liveness, fast first retry, escalating
    // jittered backoff (the defaults sit out 30 s — too slow for this run).
    cfg.tweak_bot = [](BotConfig& bc) {
      bc.liveness_timeout = SimDuration::seconds(2);
      bc.join_retry = SimDuration::millis(500);
      bc.join_retry_backoff = 2.0;
      bc.join_retry_max = SimDuration::seconds(3);
    };
    Simulation sim(cfg);
    Outcome out;
    for (int i = 0; i < 200; ++i) sim.step_tick();  // 10 s: fleet settled
    const net::EndpointId srv = sim.server().endpoint();
    sim.faults().apply_event({sim.clock().now(), net::FaultEvent::Kind::Crash, srv});
    for (int i = 0; i < 60; ++i) sim.step_tick();   // 3 s blackout
    sim.faults().apply_event({sim.clock().now(), net::FaultEvent::Kind::Restart, srv});
    for (int i = 0; i < 300; ++i) sim.step_tick();  // 15 s to resume
    out.hash = world_hash(sim);
    out.reconnects = sim.server().reconnects();
    out.all_joined = true;
    for (const auto& bot : sim.bots()) {
      out.all_joined = out.all_joined && bot->joined();
      out.liveness_resets += bot->liveness_resets();
    }
    return out;
  };

  const Outcome a = run();
  EXPECT_TRUE(a.all_joined) << "a client never resumed after the restart";
  // Every client went through outage detection and a fresh join handshake.
  EXPECT_GE(a.liveness_resets, 3u);
  EXPECT_GE(a.reconnects, 3u);

  const Outcome b = run();
  EXPECT_EQ(a.hash, b.hash) << "server outage did not replay byte-identically";
  EXPECT_EQ(a.liveness_resets, b.liveness_resets);
  EXPECT_EQ(a.reconnects, b.reconnects);
}

// ---------------------------------------------------- long acceptance run

// The ISSUE acceptance scenario: a fixed-seed 10k-tick run at 10% loss with
// one partition-and-heal and one subscriber crash/restart. Post-recovery:
// zero bound violations, exact convergence (no lost non-coalesced update),
// and a byte-identical replay.
TEST(ChaosAcceptance, TenThousandTicksAtTenPercentLoss) {
  auto make = [] {
    auto cfg = chaos_config(4);
    cfg.view_distance = 2;
    cfg.faults.link.loss = 0.10;
    // Faults in the middle of the run; the last ~400 s are recovery.
    cfg.faults.events.push_back({ScheduledFault::Kind::Partition, 30.0, 35.0, 0, 0.5});
    cfg.faults.events.push_back({ScheduledFault::Kind::Crash, 50.0, 55.0, 0, 0.0});
    return cfg;
  };

  std::uint64_t hashes[2];
  for (int run = 0; run < 2; ++run) {
    Simulation sim(make());
    const SimTime heal = SimTime::zero() + SimDuration::seconds(55);
    std::uint64_t bound_violations = 0;
    sim.set_tick_hook([&](Simulation& s, SimTime now) {
      // Post-recovery invariant: once the scheduled faults are over (loss
      // stays on!), no subscriber queue may end a tick over its bounds.
      if (now <= heal + SimDuration::seconds(1)) return;
      s.server().dyconits().for_each([&](dyconit::Dyconit& d) {
        d.for_each_subscriber([&](dyconit::SubscriberId, dyconit::Bounds& b,
                                  const dyconit::SubscriberQueue& q) {
          if (q.violates(b, now)) ++bound_violations;
        });
      });
    });
    for (int i = 0; i < 10000; ++i) sim.step_tick();
    EXPECT_EQ(bound_violations, 0u) << "run " << run;
    hashes[run] = world_hash(sim);

    if (run == 0) {
      // Heal, resync, quiesce: every surviving update must have landed.
      sim.set_tick_hook({});
      heal_and_quiesce(sim);
      expect_entities_converged(sim);
      expect_dyconit_ledger_closed(sim);
      expect_wire_ledger_closed(sim);
      sim.finalize();
      EXPECT_GT(sim.result().gaps_detected, 0u);
      EXPECT_GT(sim.result().resyncs_served, 0u);
      EXPECT_GE(sim.result().reconnects, 1u);
    }
  }
  EXPECT_EQ(hashes[0], hashes[1]) << "chaos run did not replay byte-identically";
}

// A subscriber that stops consuming entirely (frozen client, dead last-mile
// link) must not grow server-side state without bound. With keep-alive
// teardown disabled — the knob that would otherwise end the experiment — the
// *only* thing bounding memory is the overload subsystem: once the inbox
// backlogs, sends divert into the capped egress queue and coalesce there.
TEST(ChaosAcceptance, StalledClientCannotGrowServerMemory) {
  auto cfg = chaos_config(5);
  cfg.view_distance = 2;
  cfg.deterministic_load = true;
  cfg.overload.enabled = true;
  // Never escalate to a disconnect: this test is about the queue cap
  // holding indefinitely, not about the ladder shedding the offender.
  cfg.overload.budget_engage = 1e9;
  cfg.tweak_server = [](server::ServerConfig& scfg) {
    scfg.keepalive_interval_ticks = 0;  // no liveness teardown
  };
  const double stall_at = cfg.warmup.as_seconds() + 5.0;
  cfg.overload_schedule.events.push_back(
      {ScheduledOverload::Kind::Stall, stall_at, 1e9, 0, 0, 1.0});

  Simulation sim(cfg);
  BotClient& stalled = *sim.bots()[0];
  const std::uint64_t cap = cfg.overload.queue_cap_bytes;
  // One tick's un-throttled burst can land in the inbox before the backlog
  // check sees it; beyond that, pending bytes must plateau.
  const std::uint64_t inbox_slack = cfg.overload.backlog_threshold_bytes + 64 * 1024;
  std::uint64_t queue_cap_violations = 0;
  std::uint64_t inbox_violations = 0;
  std::uint64_t peak_queue = 0, peak_inbox = 0;
  // The join burst legitimately puts the whole view's chunks in flight at
  // once (in-flight frames count as pending bytes), so the inbox invariant
  // only starts once the stall is in effect and that burst has landed.
  const SimTime inbox_check_from =
      SimTime::zero() + SimDuration::seconds(static_cast<std::int64_t>(stall_at) + 2);
  sim.set_tick_hook([&](Simulation& s, SimTime now) {
    // Subscriber id == client endpoint id (GameServer::handle_join).
    const std::uint64_t q = s.server().egress_queue_bytes(stalled.endpoint());
    peak_queue = std::max(peak_queue, q);
    if (q > cap) ++queue_cap_violations;
    if (now < inbox_check_from) return;
    const std::uint64_t inbox = s.network().pending_bytes(stalled.endpoint());
    peak_inbox = std::max(peak_inbox, inbox);
    if (inbox > inbox_slack) ++inbox_violations;
  });
  for (int i = 0; i < 10000; ++i) sim.step_tick();

  EXPECT_EQ(queue_cap_violations, 0u)
      << "stalled client's egress queue exceeded the cap (peak " << peak_queue << ")";
  EXPECT_EQ(inbox_violations, 0u)
      << "stalled client's inbox kept growing (peak " << peak_inbox << ")";
  // The scenario must have actually diverted traffic into the queue —
  // otherwise the cap was never exercised.
  const auto& os = sim.server().overload_stats();
  EXPECT_GT(os.egress_queued, 0u);
  EXPECT_GT(os.egress_coalesced + os.egress_evicted_moves + os.egress_dropped_moves,
            0u)
      << "queue never hit coalescing or the cap";
  // The rest of the fleet was not collateral damage.
  for (std::size_t i = 1; i < sim.bots().size(); ++i) {
    EXPECT_TRUE(sim.bots()[i]->joined()) << "bot " << i;
  }
}

// ------------------------------------------------- fault schedule parsing

TEST(FaultScheduleTest, ParsesFullGrammar) {
  FaultScheduleConfig cfg;
  std::string error;
  const std::string text =
      "# comment line\n"
      "loss 0.1\n"
      "duplicate 0.02   # trailing comment\n"
      "corrupt 0.01\n"
      "reorder 0.05 80\n"
      "\n"
      "flap 10 12 3\n"
      "partition 20 25 0.5\n"
      "crash 30 33 0\n";
  ASSERT_TRUE(parse_fault_schedule(text, &cfg, &error)) << error;
  EXPECT_DOUBLE_EQ(cfg.link.loss, 0.1);
  EXPECT_DOUBLE_EQ(cfg.link.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(cfg.link.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(cfg.link.reorder, 0.05);
  EXPECT_EQ(cfg.link.reorder_extra.count_millis(), 80);
  ASSERT_EQ(cfg.events.size(), 3u);
  EXPECT_EQ(cfg.events[0].kind, ScheduledFault::Kind::Flap);
  EXPECT_EQ(cfg.events[0].bot, 3u);
  EXPECT_EQ(cfg.events[1].kind, ScheduledFault::Kind::Partition);
  EXPECT_DOUBLE_EQ(cfg.events[1].fraction, 0.5);
  EXPECT_EQ(cfg.events[2].kind, ScheduledFault::Kind::Crash);
  EXPECT_TRUE(cfg.any());
}

TEST(FaultScheduleTest, RejectsMalformedInputWithLineNumbers) {
  FaultScheduleConfig cfg;
  std::string error;
  EXPECT_FALSE(parse_fault_schedule("loss 1.5\n", &cfg, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_fault_schedule("loss 0.1\nflap 10 5 0\n", &cfg, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(parse_fault_schedule("wobble 0.1\n", &cfg, &error));
  EXPECT_NE(error.find("wobble"), std::string::npos);
  EXPECT_FALSE(parse_fault_schedule("partition 1 2 0\n", &cfg, &error));
  // A failed parse leaves *out untouched.
  EXPECT_FALSE(cfg.any());
}

}  // namespace
}  // namespace dyconits::bots
