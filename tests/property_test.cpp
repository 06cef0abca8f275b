// Property-based tests of the middleware invariants (DESIGN.md §7), swept
// over bound configurations and random update streams with TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "dyconit/system.h"
#include "util/rng.h"

namespace dyconits::dyconit {
namespace {

using protocol::EntityMove;

constexpr SimDuration kTick = SimDuration::millis(50);

struct CollectingSink : FlushSink {
  struct Rec {
    SubscriberId to;
    EntityMove mv;
    SimTime created;
    SimTime flushed;
    double weight;
  };
  explicit CollectingSink(const SimClock& clock) : clock(clock) {}

  void deliver(SubscriberId to, std::uint64_t,
               const std::vector<FlushedUpdate>& updates) override {
    for (const auto& u : updates) {
      recs.push_back(
          {to, std::get<EntityMove>(*u.msg), u.created, clock.now(), u.weight});
    }
  }

  const SimClock& clock;
  std::vector<Rec> recs;
};

/// Drives a random but seed-deterministic stream of entity-move updates
/// into one dyconit and ticks the system.
struct StreamDriver {
  StreamDriver(std::uint64_t seed, Bounds bounds)
      : rng(seed), sys(clock), sink(clock), bounds(bounds) {
    sys.subscribe(unit, 1, bounds);
  }

  void run(int ticks, int updates_per_tick) {
    for (int t = 0; t < ticks; ++t) {
      clock.advance(kTick);
      for (int i = 0; i < updates_per_tick; ++i) {
        const auto entity = static_cast<std::uint32_t>(rng.next_below(8) + 1);
        const double x = rng.next_double_in(-100, 100);
        Update u;
        u.msg = EntityMove{entity, {x, 0, 0}, 0, 0};
        u.weight = rng.next_double_in(0.05, 1.0);
        u.created = clock.now();
        u.coalesce_key = coalesce_key_entity(entity);
        sys.update(unit, std::move(u));
        ground_truth[entity] = x;
      }
      sys.tick(sink);
      check_invariants();
    }
  }

  void check_invariants() {
    const Dyconit* d = sys.find(unit);
    if (d == nullptr) return;
    const_cast<Dyconit*>(d)->for_each_subscriber(
        [&](SubscriberId, Bounds& b, const SubscriberQueue& q) {
          if (q.empty()) return;
          // Post-tick: the queue respects both bounds.
          EXPECT_LT(clock.now() - q.oldest_created(), b.staleness)
              << "staleness invariant violated after tick";
          EXPECT_LE(q.total_weight(), b.numerical)
              << "numerical invariant violated after tick";
        });
  }

  SimClock clock;
  Rng rng;
  DyconitSystem sys;
  CollectingSink sink;
  Bounds bounds;
  DyconitId unit = DyconitId::chunk_entities({0, 0});
  std::map<std::uint32_t, double> ground_truth;
};

// -------------------------------------------------- bound-holding property

class BoundsSweep
    : public ::testing::TestWithParam<std::tuple<int /*θ ms*/, double /*δ*/>> {};

TEST_P(BoundsSweep, QueuesRespectBoundsAfterEveryTick) {
  const auto [theta_ms, delta] = GetParam();
  StreamDriver d(0xBEE5 + theta_ms, {SimDuration::millis(theta_ms), delta});
  d.run(200, 6);
  EXPECT_GT(d.sink.recs.size(), 0u);
}

TEST_P(BoundsSweep, DeliveredStalenessBoundedByThetaPlusTick) {
  const auto [theta_ms, delta] = GetParam();
  StreamDriver d(0xF00D + theta_ms, {SimDuration::millis(theta_ms), delta});
  d.run(200, 6);
  for (const auto& r : d.sink.recs) {
    EXPECT_LE((r.flushed - r.created).count_millis(), theta_ms + kTick.count_millis());
  }
}

TEST_P(BoundsSweep, LastWriteWinsAfterForcedFlush) {
  const auto [theta_ms, delta] = GetParam();
  StreamDriver d(0xCAFE + theta_ms, {SimDuration::millis(theta_ms), delta});
  d.run(150, 6);
  d.sys.flush_all(d.sink);
  // Replaying every delivered update in order must reproduce ground truth.
  std::map<std::uint32_t, double> replica;
  for (const auto& r : d.sink.recs) replica[r.mv.id] = r.mv.pos.x;
  ASSERT_EQ(replica.size(), d.ground_truth.size());
  for (const auto& [id, x] : d.ground_truth) {
    EXPECT_NEAR(replica[id], x, 1e-6) << "entity " << id;
  }
}

TEST_P(BoundsSweep, WeightIsConserved) {
  const auto [theta_ms, delta] = GetParam();
  StreamDriver d(0xAB + theta_ms, {SimDuration::millis(theta_ms), delta});
  d.run(100, 4);
  d.sys.flush_all(d.sink);
  // Every enqueued unit of weight is either delivered or was dropped with a
  // counted reason; with one stable subscriber nothing is dropped.
  double delivered = 0;
  for (const auto& r : d.sink.recs) delivered += r.weight;
  EXPECT_NEAR(delivered, d.sys.stats().weight_delivered, 1e-9);
  EXPECT_EQ(d.sys.stats().dropped_unsubscribe, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, BoundsSweep,
    ::testing::Combine(::testing::Values(0, 50, 100, 250, 1000),
                       ::testing::Values(0.0, 0.5, 2.0, 10.0, 1e9)),
    [](const auto& info) {
      return "theta" + std::to_string(std::get<0>(info.param)) + "_delta10x" +
             std::to_string(static_cast<int>(std::min(std::get<1>(info.param), 1e6) * 10));
    });

// ------------------------------------------------------------ monotonicity

TEST(MonotonicityProperty, LooserBoundsNeverDeliverMore) {
  // Deliveries (and delivered messages) must be monotonically non-
  // increasing as bounds loosen, for an identical update stream.
  const std::pair<int, double> configs[] = {
      {0, 0.0}, {50, 0.5}, {100, 1.0}, {250, 2.0}, {500, 4.0}, {2000, 16.0}};
  std::size_t prev = SIZE_MAX;
  for (const auto& [theta, delta] : configs) {
    StreamDriver d(0x5EED, {SimDuration::millis(theta), delta});  // same seed!
    d.run(200, 6);
    const std::size_t delivered = d.sink.recs.size();
    EXPECT_LE(delivered, prev) << "θ=" << theta << " δ=" << delta;
    prev = delivered;
  }
}

TEST(MonotonicityProperty, ZeroBoundsDeliverEveryTick) {
  StreamDriver d(0x111, Bounds::zero());
  d.run(100, 5);
  // Same-entity updates within one tick may coalesce (a real server also
  // sends one position per entity per tick), but nothing survives a tick:
  EXPECT_EQ(d.sys.total_queued(), 0u);
  EXPECT_EQ(d.sink.recs.size(), d.sys.stats().enqueued - d.sys.stats().coalesced);
  for (const auto& r : d.sink.recs) {
    EXPECT_EQ(r.flushed, r.created);  // delivered on the tick it was made
  }
}

TEST(MonotonicityProperty, InfiniteBoundsDeliverNothingUntilForced) {
  StreamDriver d(0x222, Bounds::infinite());
  d.run(100, 5);
  EXPECT_TRUE(d.sink.recs.empty());
  d.sys.flush_all(d.sink);
  // All 8 possible entities coalesced to one update each.
  EXPECT_LE(d.sink.recs.size(), 8u);
  EXPECT_GT(d.sink.recs.size(), 0u);
}

// ----------------------------------------------------------- ordering

TEST(OrderingProperty, DeliveryPreservesEnqueueOrderPerFlush) {
  // Updates to distinct entities (no coalescing interference) must come out
  // in enqueue order within each flush.
  SimClock clock;
  DyconitSystem sys(clock);
  CollectingSink sink(clock);
  const auto unit = DyconitId::chunk_entities({0, 0});
  sys.subscribe(unit, 1, Bounds{SimDuration::millis(500), 1e9});

  Rng rng(0x333);
  std::vector<std::uint32_t> enqueue_order;
  for (int t = 0; t < 9; ++t) {
    clock.advance(kTick);
    const auto entity = static_cast<std::uint32_t>(t + 1);
    Update u;
    u.msg = EntityMove{entity, {static_cast<double>(t), 0, 0}, 0, 0};
    u.created = clock.now();
    u.coalesce_key = coalesce_key_entity(entity);
    sys.update(unit, std::move(u));
    enqueue_order.push_back(entity);
    sys.tick(sink);
  }
  sys.flush_all(sink);
  ASSERT_EQ(sink.recs.size(), enqueue_order.size());
  for (std::size_t i = 0; i < sink.recs.size(); ++i) {
    EXPECT_EQ(sink.recs[i].mv.id, enqueue_order[i]);
  }
}

// ------------------------------------------ multi-subscriber independence

class FanoutSweep : public ::testing::TestWithParam<int /*subscribers*/> {};

TEST_P(FanoutSweep, EachSubscriberGetsTheFullStream) {
  const int subs = GetParam();
  SimClock clock;
  DyconitSystem sys(clock);
  CollectingSink sink(clock);
  const auto unit = DyconitId::chunk_entities({0, 0});
  for (int s = 1; s <= subs; ++s) {
    // Mixed bounds: odd subscribers immediate, even ones loose.
    sys.subscribe(unit, static_cast<SubscriberId>(s),
                  s % 2 == 1 ? Bounds::zero() : Bounds{SimDuration::millis(300), 5.0});
  }
  Rng rng(42);
  std::map<std::uint32_t, double> truth;
  for (int t = 0; t < 100; ++t) {
    clock.advance(kTick);
    const auto entity = static_cast<std::uint32_t>(rng.next_below(4) + 1);
    const double x = rng.next_double_in(-10, 10);
    Update u;
    u.msg = EntityMove{entity, {x, 0, 0}, 0, 0};
    u.created = clock.now();
    u.coalesce_key = coalesce_key_entity(entity);
    sys.update(unit, std::move(u));
    truth[entity] = x;
    sys.tick(sink);
  }
  sys.flush_all(sink);

  // Per subscriber, the final replayed state equals ground truth.
  for (int s = 1; s <= subs; ++s) {
    std::map<std::uint32_t, double> replica;
    for (const auto& r : sink.recs) {
      if (r.to == static_cast<SubscriberId>(s)) replica[r.mv.id] = r.mv.pos.x;
    }
    ASSERT_EQ(replica.size(), truth.size()) << "subscriber " << s;
    for (const auto& [id, x] : truth) EXPECT_NEAR(replica[id], x, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Subscribers, FanoutSweep, ::testing::Values(1, 2, 5, 16),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// ------------------------------------------------ coalescing effectiveness

TEST(CoalescingProperty, HighRateSameKeyCollapsesToQueueOfOne) {
  SimClock clock;
  DyconitSystem sys(clock);
  CollectingSink sink(clock);
  const auto unit = DyconitId::chunk_entities({0, 0});
  sys.subscribe(unit, 1, Bounds{SimDuration::millis(1000), 1e9});
  for (int t = 0; t < 19; ++t) {  // just under the staleness bound
    clock.advance(kTick);
    Update u;
    u.msg = EntityMove{1, {static_cast<double>(t), 0, 0}, 0, 0};
    u.weight = 0.1;
    u.created = clock.now();
    u.coalesce_key = coalesce_key_entity(1);
    sys.update(unit, std::move(u));
    sys.tick(sink);
  }
  EXPECT_TRUE(sink.recs.empty());
  EXPECT_EQ(sys.total_queued(), 1u);
  EXPECT_EQ(sys.stats().coalesced, 18u);
  sys.flush_all(sink);
  ASSERT_EQ(sink.recs.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.recs[0].mv.pos.x, 18.0);       // newest payload
  EXPECT_NEAR(sink.recs[0].weight, 1.9, 1e-9);         // accumulated weight
}

TEST(CoalescingProperty, SavingsGrowWithUpdateRate) {
  // For a fixed staleness bound, doubling the update rate roughly doubles
  // the absolute number of coalesced (never-sent) updates.
  std::uint64_t prev_coalesced = 0;
  for (const int rate : {2, 4, 8}) {
    StreamDriver d(0x777, {SimDuration::millis(500), 1e9});
    d.run(100, rate);
    EXPECT_GT(d.sys.stats().coalesced, prev_coalesced);
    prev_coalesced = d.sys.stats().coalesced;
  }
}

// ------------------------------------------ full-scan equivalence oracle

/// Reference model of the middleware that keeps a private queue per
/// (dyconit, subscriber), examines every one of them on every tick and
/// GC-checks every dyconit, in canonical order (std::map). DyconitSystem
/// shares queues among subscribers, visits only queues whose cached due
/// time has come and GC candidates; both must make the same sink calls and
/// reach the same Stats.
///
/// The model also tags each queue with the shared queue DyconitSystem
/// should hold it in (`share`): subscribers that become non-empty on one
/// update share a tag, and a queue that changes alone takes a fresh one.
/// The tags count the sharing events the oracle must reach (Coverage) and
/// predict the system's queue_appends and queue_splits.
class FullScanModel {
 public:
  struct Rec {
    bool snapshot = false;
    SubscriberId to = 0;
    DyconitId unit;  // snapshot requests only
    std::uint32_t entity = 0;
    double x = 0;
    SimTime created;
    std::uint64_t weight_bits = 0;
    bool operator==(const Rec&) const = default;
  };

  struct Coverage {
    std::size_t shared3 = 0;           ///< a queue opened with >= 3 members
    std::size_t exclusion_splits = 0;  ///< an originator left a shared queue
    std::size_t shed_splits = 0;       ///< a shed member left a shared queue
    std::size_t partial_flushes = 0;   ///< a tick took a queue from some members only
  };

  explicit FullScanModel(const SimClock& clock) : clock_(clock) {}

  void subscribe(DyconitId id, SubscriberId sub, Bounds b) { units_[id][sub].bounds = b; }

  void unsubscribe(DyconitId id, SubscriberId sub) {
    const auto it = units_.find(id);
    if (it == units_.end()) return;
    const auto s = it->second.find(sub);
    if (s == it->second.end()) return;
    stats.dropped_unsubscribe += s->second.entries.size();
    it->second.erase(s);
  }

  void unsubscribe_all(SubscriberId sub) {
    for (auto& [id, subs] : units_) unsubscribe(id, sub);
  }

  void set_bounds(DyconitId id, SubscriberId sub, Bounds b) {
    const auto it = units_.find(id);
    if (it == units_.end()) return;
    const auto s = it->second.find(sub);
    if (s != it->second.end()) s->second.bounds = b;
  }

  /// A policy retune: every subscription gets `pick(unit, sub)`.
  template <typename Pick>
  void retune(Pick pick) {
    for (auto& [id, subs] : units_) {
      for (auto& [sub, q] : subs) q.bounds = pick(id, sub);
    }
  }

  void set_shed(SubscriberId sub, ShedDirective d) {
    if (d.any()) {
      shed_[sub] = d;
    } else {
      shed_.erase(sub);
    }
  }

  void update(DyconitId id, const Update& u, SubscriberId exclude) {
    auto& subs = units_[id];
    const auto ex = subs.find(exclude);
    if (ex != subs.end() && ex->second.share != 0 && holders(subs, ex->second.share) > 1) {
      ex->second.share = ++last_share_;
      ++coverage.exclusion_splits;
      ++splits;
    }
    std::set<std::uint64_t> appended;
    std::size_t opened = 0;
    const std::uint64_t fresh = last_share_ + 1;
    std::size_t targets = 0;
    for (auto& [sub, q] : subs) {
      if (sub == exclude) continue;
      if (q.share == 0) {
        q.share = fresh;
        ++opened;
      }
      appended.insert(q.share);
      ++targets;
      ++stats.enqueued;
      q.total += u.weight;
      const auto hit = std::find_if(q.entries.begin(), q.entries.end(), [&](const Update& e) {
        return u.coalesce_key != 0 && e.coalesce_key == u.coalesce_key;
      });
      if (hit != q.entries.end()) {
        hit->msg = u.msg;
        hit->weight += u.weight;
        ++stats.coalesced;
      } else {
        q.entries.push_back(u);
      }
    }
    if (targets == 0) ++stats.dropped_no_subscriber;
    if (opened > 0) last_share_ = fresh;
    if (opened >= 3) ++coverage.shared3;
    appends += appended.size();
  }

  /// Returns how many queues the tick acted on: flushed, snapshotted or
  /// shed from.
  std::size_t tick() {
    std::size_t acted = 0;
    for (auto& [id, subs] : units_) {
      std::set<std::uint64_t> taken;  // shares some member flushed or dropped
      for (auto& [sub, q] : subs) {
        const std::uint64_t share = q.share;
        acted += tick_queue(id, subs, sub, q) ? 1 : 0;
        if (share != 0 && q.share == 0) taken.insert(share);
      }
      for (const auto& [sub, q] : subs) {
        if (q.share != 0 && taken.count(q.share) > 0) ++coverage.partial_flushes;
      }
    }
    std::erase_if(units_, [](const auto& kv) { return kv.second.empty(); });
    return acted;
  }

  void flush_subscriber(SubscriberId sub) {
    for (auto& [id, subs] : units_) {
      const auto s = subs.find(sub);
      if (s != subs.end() && !s->second.entries.empty()) {
        deliver(sub, s->second, FlushReason::Forced);
      }
    }
  }

  void resync_subscriber(SubscriberId sub) {
    for (auto& [id, subs] : units_) {
      const auto s = subs.find(sub);
      if (s == subs.end()) continue;
      if (!s->second.entries.empty()) deliver(sub, s->second, FlushReason::Forced);
      recs.push_back({true, sub, id, 0, 0, SimTime::zero(), 0});
      ++stats.snapshots_requested;
    }
    ++stats.resyncs;
  }

  void flush_all() {
    for (auto& [id, subs] : units_) {
      for (auto& [sub, q] : subs) {
        if (!q.entries.empty()) deliver(sub, q, FlushReason::Forced);
      }
    }
  }

  std::size_t dyconit_count() const { return units_.size(); }
  std::size_t nonempty_queues() const {
    std::size_t n = 0;
    for (const auto& [id, subs] : units_) {
      for (const auto& [sub, q] : subs) n += q.entries.empty() ? 0 : 1;
    }
    return n;
  }

  bool has_shed() const { return !shed_.empty(); }

  Stats stats;
  std::size_t snapshot_threshold = 0;
  std::vector<Rec> recs;
  Coverage coverage;
  std::uint64_t appends = 0;  ///< expected Stats::queue_appends
  std::uint64_t splits = 0;   ///< expected Stats::queue_splits

 private:
  struct Queue {
    Bounds bounds;
    std::vector<Update> entries;
    double total = 0.0;
    std::uint64_t share = 0;  ///< 0 while empty
    void clear() {
      entries.clear();
      total = 0.0;
      share = 0;
    }
  };

  static std::size_t holders(const std::map<SubscriberId, Queue>& subs, std::uint64_t share) {
    return static_cast<std::size_t>(std::count_if(
        subs.begin(), subs.end(), [&](const auto& kv) { return kv.second.share == share; }));
  }

  bool tick_queue(const DyconitId& id, const std::map<SubscriberId, Queue>& subs,
                  SubscriberId sub, Queue& q) {
    const SimTime now = clock_.now();
    const auto d = shed_.find(sub);
    const ShedDirective dir = d == shed_.end() ? ShedDirective{} : d->second;
    bool shed_some = false;
    if (dir.shed_entity_moves) {
      std::size_t shed = 0;
      double shed_weight = 0.0;
      std::vector<Update> kept;
      for (const Update& e : q.entries) {
        if (is_entity_move_key(e.coalesce_key)) {
          ++shed;
          shed_weight += e.weight;
        } else {
          kept.push_back(e);
        }
      }
      if (shed > 0) {
        shed_some = true;
        if (holders(subs, q.share) > 1) {
          q.share = ++last_share_;
          ++coverage.shed_splits;
          ++splits;
        }
        q.entries = kept;
        q.total -= shed_weight;
        stats.shed_updates += shed;
        stats.shed_weight += shed_weight;
      }
    }
    std::size_t threshold = snapshot_threshold;
    if (dir.snapshot_threshold_override > 0 &&
        (threshold == 0 || dir.snapshot_threshold_override < threshold)) {
      threshold = dir.snapshot_threshold_override;
    }
    if (threshold > 0 && q.entries.size() > threshold) {
      stats.dropped_snapshot += q.entries.size();
      ++stats.snapshots_requested;
      recs.push_back({true, sub, id, 0, 0, SimTime::zero(), 0});
      q.clear();
      return true;
    }
    if (q.entries.empty()) {
      q.share = 0;
      return shed_some;
    }
    const SimDuration age = now - q.entries.front().created;
    if (age >= q.bounds.staleness) {
      deliver(sub, q, FlushReason::Staleness);
    } else if (q.total > q.bounds.numerical) {
      deliver(sub, q, FlushReason::Numerical);
    } else {
      return shed_some;
    }
    return true;
  }

  void deliver(SubscriberId sub, Queue& q, FlushReason reason) {
    switch (reason) {
      case FlushReason::Staleness: ++stats.flushes_staleness; break;
      case FlushReason::Numerical: ++stats.flushes_numerical; break;
      case FlushReason::Forced: ++stats.flushes_forced; break;
    }
    for (const Update& e : q.entries) {
      ++stats.delivered;
      stats.weight_delivered += e.weight;
      const auto& mv = std::get<EntityMove>(e.msg);
      recs.push_back({false, sub, {}, mv.id, mv.pos.x, e.created,
                      std::bit_cast<std::uint64_t>(e.weight)});
    }
    q.clear();
  }

  const SimClock& clock_;
  std::map<DyconitId, std::map<SubscriberId, Queue>> units_;
  ShedDirectiveMap shed_;
  std::uint64_t last_share_ = 0;
};

struct OracleRecordingSink : FlushSink {
  void deliver(SubscriberId to, std::uint64_t batch,
               const std::vector<FlushedUpdate>& updates) override {
    std::vector<FullScanModel::Rec> batch_recs;
    for (const auto& u : updates) {
      const auto& mv = std::get<EntityMove>(*u.msg);
      batch_recs.push_back({false, 0, {}, mv.id, mv.pos.x, u.created,
                            std::bit_cast<std::uint64_t>(u.weight)});
      recs.push_back({false, to, {}, mv.id, mv.pos.x, u.created,
                      std::bit_cast<std::uint64_t>(u.weight)});
    }
    // One batch id always names the same contents.
    EXPECT_NE(batch, 0u);
    const auto [it, fresh] = batches.try_emplace(batch, batch_recs);
    if (!fresh) {
      EXPECT_EQ(it->second, batch_recs) << "batch " << batch;
    }
  }
  void request_snapshot(SubscriberId to, const DyconitId& unit) override {
    recs.push_back({true, to, unit, 0, 0, SimTime::zero(), 0});
  }
  std::vector<FullScanModel::Rec> recs;
  std::map<std::uint64_t, std::vector<FullScanModel::Rec>> batches;
};

void expect_same_stats(const Stats& want, const Stats& got) {
  EXPECT_EQ(want.enqueued, got.enqueued);
  EXPECT_EQ(want.coalesced, got.coalesced);
  EXPECT_EQ(want.delivered, got.delivered);
  EXPECT_EQ(want.dropped_no_subscriber, got.dropped_no_subscriber);
  EXPECT_EQ(want.dropped_unsubscribe, got.dropped_unsubscribe);
  EXPECT_EQ(want.flushes_staleness, got.flushes_staleness);
  EXPECT_EQ(want.flushes_numerical, got.flushes_numerical);
  EXPECT_EQ(want.flushes_forced, got.flushes_forced);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.weight_delivered),
            std::bit_cast<std::uint64_t>(got.weight_delivered));
  EXPECT_EQ(want.snapshots_requested, got.snapshots_requested);
  EXPECT_EQ(want.dropped_snapshot, got.dropped_snapshot);
  EXPECT_EQ(want.resyncs, got.resyncs);
  EXPECT_EQ(want.shed_updates, got.shed_updates);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.shed_weight),
            std::bit_cast<std::uint64_t>(got.shed_weight));
}

/// Drives DyconitSystem and FullScanModel with one seeded operation stream
/// and checks after every step that they agree; adds the sharing events
/// reached to `coverage`.
void run_oracle(std::uint64_t seed, int steps, FullScanModel::Coverage& coverage) {
  SimClock clock;
  Rng rng(seed);
  DyconitSystem sys(clock);
  FullScanModel model(clock);
  OracleRecordingSink sink;

  const DyconitId units[] = {
      DyconitId::chunk_entities({0, 0}), DyconitId::chunk_entities({1, 0}),
      DyconitId::chunk_blocks({0, 0}),   DyconitId::region_entities({0, 0}),
      DyconitId::global_entities(),      DyconitId::chunk_entities({-1, 2}),
  };
  const Bounds bounds[] = {
      Bounds::zero(),
      {SimDuration::millis(50), 0.5},
      {SimDuration::millis(100), 2.0},
      {SimDuration::millis(300), 1e9},
      Bounds::infinite(),
  };
  constexpr SubscriberId kSubs = 6;
  const std::size_t threshold = rng.next_below(2) == 0 ? 0 : 4 + rng.next_below(4);
  sys.set_snapshot_threshold(threshold);
  model.snapshot_threshold = threshold;

  // Live subscriptions, held as the server holds them: a retune goes
  // through the handle subscribe returned.
  std::map<std::pair<DyconitId, SubscriberId>, Subscription> held;

  auto pick_unit = [&] { return units[rng.next_below(std::size(units))]; };
  auto pick_sub = [&] { return static_cast<SubscriberId>(rng.next_below(kSubs) + 1); };
  auto pick_bounds = [&] { return bounds[rng.next_below(std::size(bounds))]; };
  double next_x = 0;

  auto do_tick = [&] {
    const std::size_t nonempty = model.nonempty_queues();
    const std::uint64_t visited0 = sys.stats().queues_visited;
    const std::size_t acted = model.tick();
    sys.tick(sink);
    const std::uint64_t visited = sys.stats().queues_visited - visited0;
    // A round examines shared queues, never more than the non-empty
    // private queues; each queue it acts on is examined. Without shed
    // directives every examined queue has a member that acts.
    EXPECT_LE(visited, nonempty);
    if (acted > 0) {
      EXPECT_GT(visited, 0u);
    }
    if (!model.has_shed()) {
      EXPECT_LE(visited, acted);
    }
  };

  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 40) {
      Update u;
      const auto entity = static_cast<std::uint32_t>(rng.next_below(5) + 1);
      u.msg = EntityMove{entity, {next_x++, 0, 0}, 0, 0};
      u.weight = rng.next_double_in(0.05, 1.5);
      u.created = clock.now();
      const std::uint64_t key = rng.next_below(3);
      u.coalesce_key = key == 0   ? 0
                       : key == 1 ? coalesce_key_entity(entity)
                                  : coalesce_key_block({static_cast<int>(entity), 64, 0});
      const SubscriberId exclude =
          rng.next_below(3) == 0 ? kNoSubscriber : pick_sub();
      const DyconitId unit = pick_unit();
      model.update(unit, u, exclude);
      sys.update(unit, u, exclude);
    } else if (op < 52) {
      const DyconitId unit = pick_unit();
      const SubscriberId sub = pick_sub();
      const Bounds b = pick_bounds();
      model.subscribe(unit, sub, b);
      held[{unit, sub}] = sys.subscribe(unit, sub, b);
    } else if (op < 58) {
      const DyconitId unit = pick_unit();
      const SubscriberId sub = pick_sub();
      model.unsubscribe(unit, sub);
      sys.unsubscribe(unit, sub);
      held.erase({unit, sub});
    } else if (op < 62) {
      // Unsubscribe then resubscribe the same id before the next tick.
      const DyconitId unit = pick_unit();
      const SubscriberId sub = pick_sub();
      const Bounds b = pick_bounds();
      model.unsubscribe(unit, sub);
      sys.unsubscribe(unit, sub);
      model.subscribe(unit, sub, b);
      held[{unit, sub}] = sys.subscribe(unit, sub, b);
    } else if (op < 66) {
      // A retune tightens a (possibly pending) queue, then the server
      // flushes again at the same sim time.
      const DyconitId unit = pick_unit();
      const SubscriberId sub = pick_sub();
      model.set_bounds(unit, sub, Bounds::zero());
      if (const auto it = held.find({unit, sub}); it != held.end()) {
        sys.set_bounds(it->second, Bounds::zero());
      }
      do_tick();
    } else if (op < 70) {
      const SubscriberId sub = pick_sub();
      ShedDirective d;
      d.shed_entity_moves = rng.next_below(2) == 0;
      d.snapshot_threshold_override = rng.next_below(2) == 0 ? 0 : 2 + rng.next_below(3);
      model.set_shed(sub, d);
      sys.set_shed_directive(sub, d);
    } else if (op < 73) {
      const SubscriberId sub = pick_sub();
      model.flush_subscriber(sub);
      sys.flush_subscriber(sub, sink);
    } else if (op < 75) {
      const SubscriberId sub = pick_sub();
      model.resync_subscriber(sub);
      sys.resync_subscriber(sub, sink);
    } else if (op < 77) {
      const SubscriberId sub = pick_sub();
      model.unsubscribe_all(sub);
      sys.unsubscribe_all(sub);
      std::erase_if(held, [sub](const auto& e) { return e.first.second == sub; });
    } else if (op < 78) {
      model.flush_all();
      sys.flush_all(sink);
    } else if (op < 82) {
      // A policy retune through for_each_subscriber moves bounds both
      // ways, then the server flushes again at the same sim time.
      const std::uint64_t salt = rng.next_u64();
      auto pick = [&](const DyconitId& unit, SubscriberId sub) {
        Rng r(salt ^ std::hash<DyconitId>{}(unit) ^ (std::uint64_t{sub} << 40));
        return bounds[r.next_below(std::size(bounds))];
      };
      model.retune(pick);
      sys.for_each([&](Dyconit& d) {
        d.for_each_subscriber([&](SubscriberId sub, Bounds& b, const SubscriberQueue&) {
          b = pick(d.id(), sub);
        });
      });
      do_tick();
    } else {
      clock.advance(SimDuration::millis(static_cast<std::int64_t>(rng.next_below(3)) * 25));
      do_tick();
    }
    ASSERT_EQ(model.recs, sink.recs) << "seed " << seed << " step " << step;
    model.recs.clear();
    sink.recs.clear();
    expect_same_stats(model.stats, sys.stats());
    EXPECT_EQ(model.appends, sys.stats().queue_appends);
    EXPECT_EQ(model.splits, sys.stats().queue_splits);
    sys.check_invariants();
    ASSERT_EQ(model.dyconit_count(), sys.dyconit_count()) << "seed " << seed << " step " << step;
    if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << " step " << step;
  }
  coverage.shared3 += model.coverage.shared3;
  coverage.exclusion_splits += model.coverage.exclusion_splits;
  coverage.shed_splits += model.coverage.shed_splits;
  coverage.partial_flushes += model.coverage.partial_flushes;
}

TEST(FullScanOracle, PendingOnlyTickMatchesFullScan) {
  FullScanModel::Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_oracle(seed, 300, coverage);
    if (::testing::Test::HasFailure()) return;
  }
  std::printf("sharing events: shared3=%zu exclusion_splits=%zu shed_splits=%zu "
              "partial_flushes=%zu\n",
              coverage.shared3, coverage.exclusion_splits, coverage.shed_splits,
              coverage.partial_flushes);
  // The stream must reach every way a shared queue diverges, or the
  // comparison above says nothing about it.
  EXPECT_GT(coverage.shared3, 0u);
  EXPECT_GT(coverage.exclusion_splits, 0u);
  EXPECT_GT(coverage.shed_splits, 0u);
  EXPECT_GT(coverage.partial_flushes, 0u);
}

}  // namespace
}  // namespace dyconits::dyconit
