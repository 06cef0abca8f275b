// Overload control (DESIGN.md §10): bounded egress queues, the degradation
// ladder, admission control, and the coalescing semantics that make a
// capped queue safe.
//
//  * Unit tests pin the EgressQueue overflow ladder (coalesce → evict moves
//    → defer chunks → drop move → poison) and the DegradationLadder's
//    engage/release hysteresis.
//  * A randomized property test proves coalescing is state-preserving: the
//    drained queue leaves a replica in exactly the state the raw stream
//    would have.
//  * End-to-end: admission refusals reach bots and are retried with
//    backoff; the acceptance run drives 4x saturating load for 10k ticks
//    and checks the cap, bound, and byte-identical-replay invariants.
//
// Knobs: DYCONITS_OVERLOAD_TICKS (acceptance run length, default 10000).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bots/overload_schedule.h"
#include "bots/simulation.h"
#include "dyconit/update.h"
#include "protocol/codec.h"
#include "server/overload.h"
#include "util/rng.h"

namespace dyconits::server {
namespace {

using protocol::AnyMessage;

using dyconit::coalesce_key_entity;

AnyMessage move_msg(entity::EntityId id, double x) {
  return protocol::EntityMove{id, {x, 64.0, 0.0}, 0.0f, 0.0f};
}

AnyMessage block_msg(std::int32_t x, world::Block b) {
  return protocol::BlockChange{{x, 10, 0}, b};
}

std::size_t wire_bytes(const AnyMessage& m) {
  return protocol::wire_size_of(m) + 4;
}

EgressQueue::PushResult push(EgressQueue& q, const AnyMessage& m, std::uint64_t key,
                             const OverloadConfig& cfg, OverloadStats& stats) {
  return q.push(m, SimTime::zero(), key, wire_bytes(m), cfg, stats);
}

TEST(EgressQueueTest, CoalescesSameKeyNewestWins) {
  EgressQueue q;
  OverloadConfig cfg;
  OverloadStats stats;
  EXPECT_EQ(push(q, move_msg(7, 1.0), coalesce_key_entity(7), cfg, stats),
            EgressQueue::PushResult::Queued);
  EXPECT_EQ(push(q, move_msg(7, 2.0), coalesce_key_entity(7), cfg, stats),
            EgressQueue::PushResult::Coalesced);
  EXPECT_EQ(q.frames(), 1u);
  EXPECT_EQ(stats.egress_coalesced, 1u);
  const auto* mv = std::get_if<protocol::EntityMove>(&q.front().msg);
  ASSERT_NE(mv, nullptr);
  EXPECT_DOUBLE_EQ(mv->pos.x, 2.0);  // the superseding position won

  // Distinct keys queue separately.
  EXPECT_EQ(push(q, move_msg(8, 3.0), coalesce_key_entity(8), cfg, stats),
            EgressQueue::PushResult::Queued);
  EXPECT_EQ(q.frames(), 2u);
}

TEST(EgressQueueTest, KeyZeroNeverCoalesces) {
  EgressQueue q;
  OverloadConfig cfg;
  OverloadStats stats;
  const AnyMessage chat = protocol::ChatBroadcast{1, "hello"};
  push(q, chat, 0, cfg, stats);
  push(q, chat, 0, cfg, stats);
  EXPECT_EQ(q.frames(), 2u);
  EXPECT_EQ(stats.egress_coalesced, 0u);
}

TEST(EgressQueueTest, ByteCapEvictsOldestMovesFirst) {
  EgressQueue q;
  OverloadConfig cfg;
  cfg.queue_cap_bytes = 256;
  cfg.queue_cap_frames = 0;  // bytes only
  OverloadStats stats;
  // Distinct entities so nothing coalesces; the cap must evict instead.
  for (entity::EntityId id = 1; id <= 64; ++id) {
    const auto res = push(q, move_msg(id, 1.0), coalesce_key_entity(id), cfg, stats);
    EXPECT_NE(res, EgressQueue::PushResult::DroppedPoison);
    EXPECT_LE(q.bytes(), cfg.queue_cap_bytes) << "after push " << id;
  }
  EXPECT_GT(stats.egress_evicted_moves, 0u);
  // The newest move must have survived (older ones are the superseded ones).
  bool found_last = false;
  while (!q.empty()) {
    const auto item = q.pop_front();
    if (const auto* mv = std::get_if<protocol::EntityMove>(&item.msg)) {
      if (mv->id == 64) found_last = true;
    }
  }
  EXPECT_TRUE(found_last);
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(EgressQueueTest, FrameCapRespected) {
  EgressQueue q;
  OverloadConfig cfg;
  cfg.queue_cap_bytes = 0;
  cfg.queue_cap_frames = 8;
  OverloadStats stats;
  for (entity::EntityId id = 1; id <= 40; ++id) {
    push(q, move_msg(id, 1.0), coalesce_key_entity(id), cfg, stats);
    EXPECT_LE(q.frames(), 8u);
  }
}

TEST(EgressQueueTest, OverflowLadderDefersChunksDropsMovesPoisonsOrdered) {
  EgressQueue q;
  OverloadConfig cfg;
  cfg.queue_cap_bytes = 200;
  OverloadStats stats;
  // Fill the queue with non-evictable (key 0, not entity-move) payload.
  while (push(q, AnyMessage{protocol::ChatBroadcast{1, "xxxxxxxxxxxxxxxx"}}, 0, cfg,
              stats) == EgressQueue::PushResult::Queued) {
  }
  const std::size_t full = q.bytes();
  // The terminating push above was itself an order-critical overflow.
  const std::uint64_t poisons_at_fill = stats.egress_dropped_ordered;

  // ChunkData bounces back to the streamer rather than occupying the queue.
  protocol::ChunkData cd;
  cd.pos = {1, 2};
  cd.rle.assign(64, 0x11);
  EXPECT_EQ(push(q, AnyMessage{cd}, 0, cfg, stats), EgressQueue::PushResult::DeferChunk);

  // A move is droppable: the next move supersedes it.
  EXPECT_EQ(push(q, move_msg(5, 1.0), coalesce_key_entity(5), cfg, stats),
            EgressQueue::PushResult::DroppedMove);
  EXPECT_EQ(stats.egress_dropped_moves, 1u);

  // Order-critical messages must never be silently dropped.
  EXPECT_EQ(push(q, AnyMessage{protocol::EntityDespawn{9}}, 0, cfg, stats),
            EgressQueue::PushResult::DroppedPoison);
  EXPECT_EQ(stats.egress_dropped_ordered, poisons_at_fill + 1);
  EXPECT_EQ(q.bytes(), full);  // none of the overflow paths grew the queue
}

TEST(EgressQueueTest, CoalesceGrowthReEnforcesTheCap) {
  EgressQueue q;
  OverloadConfig cfg;
  cfg.queue_cap_bytes = 160;
  OverloadStats stats;
  // A coalescable chat (the queue keys on the caller's say-so, not the
  // message type) plus moves filling the cap.
  const std::uint64_t chat_key = (3ull << 56) | 1;
  push(q, AnyMessage{protocol::ChatBroadcast{1, "a"}}, chat_key, cfg, stats);
  for (entity::EntityId id = 1; id <= 12; ++id) {
    push(q, move_msg(id, 1.0), coalesce_key_entity(id), cfg, stats);
  }
  ASSERT_LE(q.bytes(), cfg.queue_cap_bytes);
  // Replacing the chat with a much larger one grows the slot; the queue
  // must evict moves to stay under the cap.
  const auto res = push(q, AnyMessage{protocol::ChatBroadcast{1, std::string(60, 'y')}},
                        chat_key, cfg, stats);
  EXPECT_EQ(res, EgressQueue::PushResult::Coalesced);
  EXPECT_LE(q.bytes(), cfg.queue_cap_bytes);
  EXPECT_GT(stats.egress_evicted_moves, 0u);
}

TEST(EgressQueueTest, PopAndClearKeepAccountingExact) {
  EgressQueue q;
  OverloadConfig cfg;
  OverloadStats stats;
  // Enough traffic to trigger internal compaction (head_ >= 128).
  for (int round = 0; round < 3; ++round) {
    for (entity::EntityId id = 1; id <= 200; ++id) {
      push(q, move_msg(id, static_cast<double>(round)), coalesce_key_entity(id), cfg, stats);
    }
    std::size_t popped = 0;
    while (!q.empty()) {
      q.pop_front();
      ++popped;
    }
    EXPECT_EQ(popped, 200u);
    EXPECT_EQ(q.bytes(), 0u);
    EXPECT_EQ(q.frames(), 0u);
  }
  for (entity::EntityId id = 1; id <= 10; ++id) {
    push(q, move_msg(id, 0.0), coalesce_key_entity(id), cfg, stats);
  }
  EXPECT_EQ(q.clear(), 10u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(EgressQueueTest, CoalesceAfterCompactionHitsTheShiftedSlot) {
  EgressQueue q;
  OverloadConfig cfg;
  cfg.queue_cap_bytes = 0;
  cfg.queue_cap_frames = 0;
  OverloadStats stats;
  for (entity::EntityId id = 1; id <= 200; ++id) {
    push(q, move_msg(id, 1.0), coalesce_key_entity(id), cfg, stats);
  }
  // Popping 150 compacts the queue mid-way, shifting every surviving slot.
  for (int i = 0; i < 150; ++i) q.pop_front();
  const std::size_t frames = q.frames();
  const std::size_t bytes = q.bytes();
  ASSERT_EQ(frames, 50u);
  EXPECT_EQ(push(q, move_msg(170, 9.0), coalesce_key_entity(170), cfg, stats),
            EgressQueue::PushResult::Coalesced);
  EXPECT_EQ(q.frames(), frames);
  EXPECT_EQ(q.bytes(), bytes);  // same-width payload replaced in place
  for (entity::EntityId id = 151; id <= 200; ++id) {
    const EgressQueue::Item it = q.pop_front();
    const auto& mv = std::get<protocol::EntityMove>(it.msg);
    EXPECT_EQ(mv.id, id);
    EXPECT_DOUBLE_EQ(mv.pos.x, id == 170 ? 9.0 : 1.0);
  }
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(EgressQueueTest, EvictionAndCoalescingInterleaveAcrossIndexGrowth) {
  // A byte cap that holds ~60 frames while the stream offers ~150 distinct
  // keys: the queue fills to its cap, evicts moves, coalesces moves and
  // block edits, and pops, all while its index grows past 64 slots. A
  // linear-scan model of the same overflow ladder must agree on every
  // push result and on the drained stream.
  struct Model {
    std::vector<EgressQueue::Item> items;
    std::size_t bytes = 0;
    std::size_t cap = 0;
    void evict(std::size_t incoming) {
      for (auto it = items.begin(); it != items.end() && bytes + incoming > cap;) {
        if (dyconit::is_entity_move_key(it->key)) {
          bytes -= it->bytes;
          it = items.erase(it);
        } else {
          ++it;
        }
      }
    }
    EgressQueue::PushResult push(const AnyMessage& m, std::uint64_t key, std::size_t b) {
      for (auto& it : items) {
        if (key == 0 || it.key != key) continue;
        bytes = bytes - it.bytes + b;
        it.msg = m;
        it.bytes = b;
        if (bytes > cap) evict(0);
        return EgressQueue::PushResult::Coalesced;
      }
      if (bytes + b > cap) evict(b);
      if (bytes + b > cap) {
        return std::get_if<protocol::EntityMove>(&m) != nullptr
                   ? EgressQueue::PushResult::DroppedMove
                   : EgressQueue::PushResult::DroppedPoison;
      }
      items.push_back({m, SimTime::zero(), key, b});
      bytes += b;
      return EgressQueue::PushResult::Queued;
    }
  };

  EgressQueue q;
  OverloadConfig cfg;
  cfg.queue_cap_bytes = 60 * wire_bytes(move_msg(1, 1.0));
  cfg.queue_cap_frames = 0;
  OverloadStats stats;
  Model model;
  model.cap = cfg.queue_cap_bytes;
  Rng rng(2026);
  std::size_t peak_frames = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 15) {
      if (q.empty()) continue;
      const EgressQueue::Item got = q.pop_front();
      ASSERT_FALSE(model.items.empty());
      EXPECT_EQ(got.key, model.items.front().key) << "step " << step;
      EXPECT_EQ(protocol::encode(got.msg).payload,
                protocol::encode(model.items.front().msg).payload)
          << "step " << step;
      model.bytes -= model.items.front().bytes;
      model.items.erase(model.items.begin());
      continue;
    }
    AnyMessage m;
    std::uint64_t key = 0;
    if (op < 75) {
      const auto id = static_cast<entity::EntityId>(rng.next_below(120) + 1);
      m = move_msg(id, static_cast<double>(step));
      key = coalesce_key_entity(id);
    } else {
      const auto x = static_cast<std::int32_t>(rng.next_below(30));
      m = block_msg(x, step % 2 == 0 ? world::Block::Stone : world::Block::Air);
      key = dyconit::coalesce_key_block({x, 10, 0});
    }
    const std::size_t b = wire_bytes(m);
    EXPECT_EQ(q.push(m, SimTime::zero(), key, b, cfg, stats), model.push(m, key, b))
        << "step " << step;
    ASSERT_EQ(q.frames(), model.items.size()) << "step " << step;
    ASSERT_EQ(q.bytes(), model.bytes) << "step " << step;
    ASSERT_LE(q.bytes(), cfg.queue_cap_bytes);
    peak_frames = std::max(peak_frames, q.frames());
  }
  EXPECT_GT(stats.egress_evicted_moves, 0u);
  EXPECT_GT(stats.egress_coalesced, 0u);
  EXPECT_GT(peak_frames, 32u);  // an index of 64+ slots
  while (!q.empty()) {
    const EgressQueue::Item got = q.pop_front();
    ASSERT_FALSE(model.items.empty());
    EXPECT_EQ(got.key, model.items.front().key);
    EXPECT_EQ(protocol::encode(got.msg).payload,
              protocol::encode(model.items.front().msg).payload);
    model.items.erase(model.items.begin());
  }
  EXPECT_TRUE(model.items.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

// ------------------------------------------------------------------ ladder

TEST(DegradationLadderTest, EngagesOneRungPerConsecutiveWindow) {
  DegradationLadder ladder;
  OverloadConfig cfg;
  cfg.engage_ticks = 3;
  const SimDuration budget = SimDuration::millis(50);
  const SimDuration over = SimDuration::millis(80);
  EXPECT_EQ(ladder.rung(), kRungNormal);
  // Two over-ticks then a dead-band tick: no engagement (counter resets).
  ladder.on_tick(over, budget, cfg);
  ladder.on_tick(over, budget, cfg);
  ladder.on_tick(SimDuration::millis(40), budget, cfg);  // between release and engage
  EXPECT_EQ(ladder.rung(), kRungNormal);
  // Three consecutive: one rung, and the counter restarts.
  ladder.on_tick(over, budget, cfg);
  ladder.on_tick(over, budget, cfg);
  EXPECT_TRUE(ladder.on_tick(over, budget, cfg));
  EXPECT_EQ(ladder.rung(), kRungWidenBounds);
  ladder.on_tick(over, budget, cfg);
  ladder.on_tick(over, budget, cfg);
  EXPECT_EQ(ladder.rung(), kRungWidenBounds);  // not yet
  ladder.on_tick(over, budget, cfg);
  EXPECT_EQ(ladder.rung(), kRungShedLowPriority);
}

TEST(DegradationLadderTest, TopsOutAtDisconnectAndReleasesWithHysteresis) {
  DegradationLadder ladder;
  OverloadConfig cfg;
  cfg.engage_ticks = 1;
  cfg.release_ticks = 4;
  const SimDuration budget = SimDuration::millis(50);
  for (int i = 0; i < 20; ++i) ladder.on_tick(SimDuration::millis(120), budget, cfg);
  EXPECT_EQ(ladder.rung(), kRungDisconnect);  // clamped at the top

  // Release needs release_ticks consecutive under-release ticks.
  const SimDuration calm = SimDuration::millis(10);  // 0.2 < budget_release 0.6
  ladder.on_tick(calm, budget, cfg);
  ladder.on_tick(calm, budget, cfg);
  ladder.on_tick(SimDuration::millis(40), budget, cfg);  // dead band: resets
  ladder.on_tick(calm, budget, cfg);
  ladder.on_tick(calm, budget, cfg);
  ladder.on_tick(calm, budget, cfg);
  EXPECT_EQ(ladder.rung(), kRungDisconnect);
  ladder.on_tick(calm, budget, cfg);  // 4th consecutive
  EXPECT_EQ(ladder.rung(), kRungDeferChunks);
  EXPECT_GE(ladder.transitions(), 5u);
}

// --------------------------------------------- coalescing property (oracle)

/// Replica model: the state a client ends up in after applying a stream of
/// atomic updates. Coalescing must be invisible at this level.
struct ModelReplica {
  std::map<entity::EntityId, double> entity_x;
  std::map<std::int32_t, world::Block> block_at;

  void apply(const AnyMessage& m) {
    if (const auto* mv = std::get_if<protocol::EntityMove>(&m)) {
      entity_x[mv->id] = mv->pos.x;
    } else if (const auto* bc = std::get_if<protocol::BlockChange>(&m)) {
      block_at[bc->pos.x] = bc->block;
    }
  }
  bool operator==(const ModelReplica& o) const {
    return entity_x == o.entity_x && block_at == o.block_at;
  }
};

TEST(CoalescingProperty, DrainedQueueMatchesUncoalescedOracle) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    EgressQueue q;
    OverloadConfig cfg;
    cfg.queue_cap_bytes = 0;  // property is about coalescing, not overflow
    cfg.queue_cap_frames = 0;
    OverloadStats stats;
    ModelReplica coalesced, oracle;

    for (int step = 0; step < 4000; ++step) {
      AnyMessage m;
      std::uint64_t key = 0;
      if (rng.chance(0.7)) {
        const auto id = static_cast<entity::EntityId>(rng.next_in(1, 12));
        m = move_msg(id, rng.next_double() * 100.0);
        key = coalesce_key_entity(id);
      } else {
        const auto x = static_cast<std::int32_t>(rng.next_in(0, 30));
        m = block_msg(x, rng.chance(0.5) ? world::Block::Planks : world::Block::Air);
        key = dyconit::coalesce_key_block({x, 10, 0});
      }
      oracle.apply(m);
      q.push(m, SimTime::zero(), key, wire_bytes(m), cfg, stats);
      // Partial drains mid-stream: coalescing after a drain must still
      // converge to the same final state.
      if (rng.chance(0.05)) {
        const std::size_t n = static_cast<std::size_t>(rng.next_in(1, 8));
        for (std::size_t i = 0; i < n && !q.empty(); ++i) {
          coalesced.apply(q.pop_front().msg);
        }
      }
    }
    while (!q.empty()) coalesced.apply(q.pop_front().msg);
    EXPECT_GT(stats.egress_coalesced, 0u) << "property never exercised coalescing";
    EXPECT_TRUE(coalesced == oracle) << "coalesced drain diverged from raw stream";
  }
}

}  // namespace
}  // namespace dyconits::server

// ===================================================================== e2e

namespace dyconits::bots {
namespace {

std::size_t overload_ticks() {
  const char* env = std::getenv("DYCONITS_OVERLOAD_TICKS");
  return env != nullptr ? static_cast<std::size_t>(std::strtoull(env, nullptr, 10))
                        : 10000;
}

/// Saturating-load scenario shared by the acceptance and admission tests:
/// a constrained uplink, one stalled client, a spam burst, a flash crowd.
SimulationConfig overload_config(std::uint64_t seed, std::size_t ticks) {
  SimulationConfig cfg;
  cfg.players = 12;
  cfg.policy = "director";
  cfg.seed = seed;
  cfg.view_distance = 3;
  cfg.link_latency = SimDuration::millis(5);
  cfg.link_jitter = 0.0;
  cfg.workload.kind = WorkloadKind::Village;
  cfg.workload.hotspots = 1;
  cfg.workload.village_radius = 10.0;
  cfg.joins_per_tick = 10;
  cfg.warmup = SimDuration::seconds(5);
  cfg.duration =
      cfg.warmup + SimDuration::millis(static_cast<std::int64_t>(ticks) * 50);
  cfg.deterministic_load = true;
  cfg.server_egress_rate = 128 * 1024;

  cfg.overload.enabled = true;
  // The uplink saturates long before the CPU budget does: engage the ladder
  // on the modeled send cost the 128 KB/s uplink cannot drain (~6.4 KB/tick
  // ~= 0.2 ms modeled), release at half that.
  cfg.overload.budget_engage = 0.010;
  cfg.overload.budget_release = 0.004;
  // Sends are bursty at this scale (bots act every few ticks), so a long
  // consecutive-tick engage window never fills; 2 consecutive over-budget
  // ticks is plenty of evidence against a 0.5 ms threshold.
  cfg.overload.engage_ticks = 2;

  const double w = cfg.warmup.as_seconds();
  const double end = cfg.duration.as_seconds();
  cfg.overload_schedule.events.push_back(
      {ScheduledOverload::Kind::Stall, w + 2.0, end, 0, 0, 1.0});
  cfg.overload_schedule.events.push_back(
      {ScheduledOverload::Kind::Spam, w + 4.0, end, 0, 0, 4.0});
  cfg.overload_schedule.events.push_back(
      {ScheduledOverload::Kind::Flash, w + 8.0, 0, 0, 3, 1.0});
  return cfg;
}

struct AcceptanceOutcome {
  std::uint64_t wire_hash = 0;
  std::uint64_t cap_violations = 0;
  std::uint64_t cost_violations = 0;   // modeled cost > 2x engage budget post-engage
  std::uint64_t cost_checked = 0;      // post-engage ticks the check ran on
  std::uint64_t bound_violations = 0;  // dyconit bounds violated post-stabilization
  std::int64_t max_cost_us = 0;        // peak modeled tick cost (diagnostics)
  std::uint64_t ticks_over_engage = 0; // diagnostics for threshold tuning
  bool engaged = false;
  server::OverloadStats stats;
  int final_rung = 0;
};

AcceptanceOutcome run_acceptance(std::size_t ticks) {
  const SimulationConfig cfg = overload_config(1337, ticks);
  Simulation sim(cfg);
  AcceptanceOutcome out;
  const std::size_t cap = cfg.overload.queue_cap_bytes;
  // "2x budget after the ladder engages": budget here is the engage
  // threshold the watchdog steers to, scaled to the uplink (see
  // overload_config). Grace ticks let one escalation round act.
  const auto budget2x = SimDuration::micros(static_cast<std::int64_t>(
      2.0 * cfg.overload.budget_engage *
      static_cast<double>(SimDuration::millis(50).count_micros())));
  std::uint64_t engaged_at = 0;
  const std::uint64_t total = static_cast<std::uint64_t>(
      cfg.duration.count_micros() / SimDuration::millis(50).count_micros());
  const std::uint64_t settle_end = total > total / 4 ? total - total / 4 : 0;

  sim.set_tick_hook([&](Simulation& s, SimTime) {
    const std::uint64_t tick = s.server().tick_count();
    for (const auto& bot : s.bots()) {
      if (!bot->joined()) continue;
      // Subscriber id == client endpoint id (GameServer::handle_join).
      if (s.server().egress_queue_bytes(bot->endpoint()) > cap) ++out.cap_violations;
    }
    out.max_cost_us = std::max(out.max_cost_us, s.server().last_tick_cpu().count_micros());
    if (s.server().last_tick_cpu() > budget2x / 2) ++out.ticks_over_engage;
    if (!out.engaged && s.server().overload_rung() > 0) {
      out.engaged = true;
      engaged_at = tick;
    }
    // Once the ladder has had 200 ticks to act, the modeled cost must be
    // pinned near the engage budget — that is the point of shedding.
    if (out.engaged && tick > engaged_at + 200) {
      ++out.cost_checked;
      if (s.server().last_tick_cpu() > budget2x) ++out.cost_violations;
    }
    // Last quarter of the run: shedding has stabilized; every subscriber
    // that is still connected must be held within its (possibly widened)
    // bounds at tick end, exactly as in the chaos suite.
    if (tick >= settle_end) {
      const SimTime now = s.clock().now();
      s.server().dyconits().for_each([&](dyconit::Dyconit& d) {
        d.for_each_subscriber([&](dyconit::SubscriberId, dyconit::Bounds& b,
                                  const dyconit::SubscriberQueue& q) {
          if (q.violates(b, now)) ++out.bound_violations;
        });
      });
    }
  });
  sim.run();
  out.wire_hash = sim.network().wire_hash();
  out.stats = sim.server().overload_stats();
  out.final_rung = sim.server().overload_rung();
  return out;
}

TEST(OverloadAcceptance, SaturatingLoadTenThousandTicks) {
  const std::size_t ticks = overload_ticks();
  const AcceptanceOutcome first = run_acceptance(ticks);

  // The scenario must actually overload the server...
  ASSERT_TRUE(first.engaged) << "ladder never engaged: scenario proves nothing"
                             << " (peak modeled cost " << first.max_cost_us
                             << "us, ticks over engage " << first.ticks_over_engage << ")";
  EXPECT_GT(first.stats.egress_queued, 0u);
  EXPECT_GT(first.stats.egress_coalesced, 0u);
  // ...and the controller must hold its invariants while overloaded.
  EXPECT_EQ(first.cap_violations, 0u) << "a per-subscriber queue exceeded the cap";
  // Sustained-cost criterion: once the ladder has acted, the modeled tick
  // cost must be pinned within 2x the engage budget. Isolated spikes (a
  // kicked player rejoining re-streams its chunks) are permitted; sustained
  // excursions are not.
  ASSERT_GT(first.cost_checked, 0u);
  EXPECT_LE(first.cost_violations, first.cost_checked / 100)
      << "modeled tick cost left 2x the engage budget after the ladder acted ("
      << first.cost_violations << "/" << first.cost_checked << " ticks)";
  EXPECT_EQ(first.bound_violations, 0u)
      << "a connected subscriber's bounds were violated after shedding stabilized";
  EXPECT_LE(first.stats.peak_queue_bytes,
            overload_config(1337, ticks).overload.queue_cap_bytes);

  // Byte-identical replay from the seed (DESIGN.md §9): every ladder
  // decision is a pure function of simulated state, so a rerun agrees on
  // the wire, every overload counter and every invariant tally.
  const AcceptanceOutcome got = run_acceptance(ticks);
  EXPECT_EQ(first.wire_hash, got.wire_hash);
  EXPECT_EQ(first.cap_violations, got.cap_violations);
  EXPECT_EQ(first.cost_violations, got.cost_violations);
  EXPECT_EQ(first.cost_checked, got.cost_checked);
  EXPECT_EQ(first.bound_violations, got.bound_violations);
  EXPECT_EQ(first.max_cost_us, got.max_cost_us);
  EXPECT_EQ(first.ticks_over_engage, got.ticks_over_engage);
  EXPECT_EQ(first.engaged, got.engaged);
  EXPECT_EQ(first.final_rung, got.final_rung);
  const server::OverloadStats& a = first.stats;
  const server::OverloadStats& b = got.stats;
  EXPECT_EQ(a.egress_queued, b.egress_queued);
  EXPECT_EQ(a.egress_coalesced, b.egress_coalesced);
  EXPECT_EQ(a.egress_drained, b.egress_drained);
  EXPECT_EQ(a.egress_evicted_moves, b.egress_evicted_moves);
  EXPECT_EQ(a.egress_dropped_moves, b.egress_dropped_moves);
  EXPECT_EQ(a.egress_dropped_ordered, b.egress_dropped_ordered);
  EXPECT_EQ(a.egress_dropped_disconnect, b.egress_dropped_disconnect);
  EXPECT_EQ(a.chunks_deferred, b.chunks_deferred);
  EXPECT_EQ(a.joins_refused, b.joins_refused);
  EXPECT_EQ(a.overload_disconnects, b.overload_disconnects);
  EXPECT_EQ(a.ladder_transitions, b.ladder_transitions);
  EXPECT_EQ(a.peak_queue_bytes, b.peak_queue_bytes);
}

// ------------------------------------------------------------- admission

TEST(OverloadAdmission, RefusesAtRungAndBotsRetryWithBackoff) {
  // Ladder pinned high: near-zero engage threshold and no release, so the
  // flash crowd arrives strictly after the refusal rung is reached.
  SimulationConfig cfg = overload_config(7, 600);
  cfg.overload.budget_engage = 1e-9;
  cfg.overload.budget_release = 0.0;  // ratio is never negative: no release
  cfg.overload.engage_ticks = 2;
  cfg.overload.admission_refuse_rung = 1;
  cfg.overload.admission_retry_ms = 2000;
  // Keep the scenario about admission: no worst-offender kicks, and no
  // stalled/spamming clients (a stalled bot would eventually be torn down
  // by the keep-alive timeout and muddy the player-count check).
  cfg.overload.disconnect_interval_ticks = 1000000;
  const auto flash = cfg.overload_schedule.events.back();
  cfg.overload_schedule.events.clear();
  cfg.overload_schedule.events.push_back(flash);

  Simulation sim(cfg);
  const auto ticks = static_cast<std::uint64_t>(
      cfg.duration.count_micros() / sim.server().config().tick_interval.count_micros());
  for (std::uint64_t i = 0; i < ticks; ++i) sim.step_tick();
  sim.finalize();
  const SimulationResult& r = sim.result();

  ASSERT_GT(r.joins_refused, 0u) << "flash crowd was never refused";
  EXPECT_GT(r.join_refusals, 0u) << "no bot saw a JoinRefused";
  // Conservation: every refusal the server sent was seen by a bot (modulo
  // frames still in flight at the end of the run).
  EXPECT_LE(r.join_refusals, r.joins_refused);
  EXPECT_LE(r.joins_refused - r.join_refusals, 3u);

  // Backoff: a refused bot retries no faster than retry_after_ms, so over
  // the post-flash window each of the 3 flash bots is bounded.
  const double flash_window_s = cfg.duration.as_seconds() - (cfg.warmup.as_seconds() + 8.0);
  const auto per_bot_max = static_cast<std::uint64_t>(flash_window_s / 2.0) + 2;
  EXPECT_LE(r.join_refusals, 3 * per_bot_max) << "bots retried faster than the backoff";

  // The original fleet was admitted before the ladder climbed and stays.
  std::size_t flash_joined = 0;
  for (std::size_t i = cfg.players - 3; i < cfg.players; ++i) {
    if (sim.bots()[i]->joined()) ++flash_joined;
  }
  EXPECT_EQ(flash_joined, 0u) << "a refused bot joined while the rung was held high";
  EXPECT_EQ(sim.server().player_count(), cfg.players - 3);
}

TEST(OverloadAdmission, RefuseRungZeroNeverRefuses) {
  SimulationConfig cfg = overload_config(7, 400);
  cfg.overload.budget_engage = 1e-9;
  cfg.overload.budget_release = 0.0;
  cfg.overload.engage_ticks = 2;
  cfg.overload.admission_refuse_rung = 0;  // disabled
  cfg.overload.disconnect_interval_ticks = 1000000;
  Simulation sim(cfg);
  const auto ticks = static_cast<std::uint64_t>(
      cfg.duration.count_micros() / sim.server().config().tick_interval.count_micros());
  for (std::uint64_t i = 0; i < ticks; ++i) sim.step_tick();
  sim.finalize();
  EXPECT_EQ(sim.result().joins_refused, 0u);
  EXPECT_EQ(sim.result().join_refusals, 0u);
}

// ------------------------------------------------------ schedule parsing

TEST(OverloadScheduleTest, ParsesFullGrammar) {
  const std::string text =
      "# scenario\n"
      "stall 10 20 3   # bot 3 freezes\n"
      "flash 30 40\n"
      "spam 15 25 4.5\n"
      "\n";
  OverloadScheduleConfig cfg;
  std::string error;
  ASSERT_TRUE(parse_overload_schedule(text, &cfg, &error)) << error;
  ASSERT_EQ(cfg.events.size(), 3u);
  EXPECT_EQ(cfg.events[0].kind, ScheduledOverload::Kind::Stall);
  EXPECT_DOUBLE_EQ(cfg.events[0].start_s, 10.0);
  EXPECT_DOUBLE_EQ(cfg.events[0].end_s, 20.0);
  EXPECT_EQ(cfg.events[0].bot, 3u);
  EXPECT_EQ(cfg.events[1].kind, ScheduledOverload::Kind::Flash);
  EXPECT_DOUBLE_EQ(cfg.events[1].start_s, 30.0);
  EXPECT_EQ(cfg.events[1].count, 40u);
  EXPECT_EQ(cfg.events[2].kind, ScheduledOverload::Kind::Spam);
  EXPECT_DOUBLE_EQ(cfg.events[2].factor, 4.5);
}

TEST(OverloadScheduleTest, RejectsMalformedInputWithLineNumbers) {
  OverloadScheduleConfig cfg;
  cfg.events.push_back({});  // must remain untouched on failure
  std::string error;

  EXPECT_FALSE(parse_overload_schedule("stall 10 5 0\n", &cfg, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  EXPECT_FALSE(parse_overload_schedule("flash 10 0\n", &cfg, &error));
  EXPECT_FALSE(parse_overload_schedule("spam 1 2 0\n", &cfg, &error));
  EXPECT_FALSE(parse_overload_schedule("# fine\nwat 1 2 3\n", &cfg, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("wat"), std::string::npos) << error;

  EXPECT_EQ(cfg.events.size(), 1u) << "*out was modified on failure";
}

TEST(OverloadScheduleTest, LoadRejectsMissingFile) {
  OverloadScheduleConfig cfg;
  std::string error;
  EXPECT_FALSE(load_overload_schedule("/nonexistent/overload.txt", &cfg, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace dyconits::bots
