// Unit tests for the dyconit core: queues, coalescing, bound enforcement,
// flush reasons, system lifecycle.
#include <gtest/gtest.h>

#include <map>

#include "dyconit/policy.h"
#include "dyconit/system.h"

namespace dyconits::dyconit {
namespace {

using protocol::EntityMove;

Update move_update(std::uint32_t entity, double x, double weight, SimTime t) {
  Update u;
  u.msg = EntityMove{entity, {x, 0, 0}, 0, 0};
  u.weight = weight;
  u.created = t;
  u.coalesce_key = coalesce_key_entity(entity);
  return u;
}

/// Sink that records every flushed update.
class RecordingSink : public FlushSink {
 public:
  struct Record {
    SubscriberId to;
    protocol::AnyMessage msg;
    SimTime created;
    double weight;
  };

  void deliver(SubscriberId to, std::uint64_t batch,
               const std::vector<FlushedUpdate>& updates) override {
    ++flush_calls;
    batches.push_back(batch);
    for (const auto& u : updates) records.push_back({to, *u.msg, u.created, u.weight});
  }

  std::vector<Record> records;
  std::vector<std::uint64_t> batches;  ///< batch id of each deliver call
  int flush_calls = 0;
};

// ---------------------------------------------------------- SubscriberQueue

TEST(SubscriberQueueTest, EnqueueAccumulates) {
  SubscriberQueue q;
  EXPECT_TRUE(q.empty());
  q.enqueue(move_update(1, 1, 0.5, SimTime(100)));
  q.enqueue(move_update(2, 2, 0.25, SimTime(200)));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.total_weight(), 0.75);
  EXPECT_EQ(q.oldest_created(), SimTime(100));
}

TEST(SubscriberQueueTest, CoalesceKeepsLatestPayloadOldestTime) {
  SubscriberQueue q;
  EXPECT_FALSE(q.enqueue(move_update(1, 1.0, 0.5, SimTime(100))));
  EXPECT_TRUE(q.enqueue(move_update(1, 9.0, 0.5, SimTime(200))));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.total_weight(), 1.0);           // weights add
  EXPECT_EQ(q.oldest_created(), SimTime(100));       // staleness from first write
  const auto& mv = std::get<EntityMove>(q.peek().front().msg);
  EXPECT_DOUBLE_EQ(mv.pos.x, 9.0);                   // last write wins
}

TEST(SubscriberQueueTest, ViolatesStaleness) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 0.1, SimTime(0)));
  const Bounds b{SimDuration::millis(100), 1000.0};
  EXPECT_FALSE(q.violates(b, SimTime(99'000)));
  EXPECT_TRUE(q.violates(b, SimTime(100'000)));  // inclusive at the bound
  EXPECT_EQ(q.violation_reason(b, SimTime(100'000)), FlushReason::Staleness);
}

TEST(SubscriberQueueTest, ViolatesNumerical) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 3.0, SimTime(0)));
  const Bounds b{SimDuration::seconds(100), 5.0};
  EXPECT_FALSE(q.violates(b, SimTime(1)));
  q.enqueue(move_update(1, 2, 2.5, SimTime(1)));  // coalesces; weight 5.5 > 5
  EXPECT_TRUE(q.violates(b, SimTime(2)));
  EXPECT_EQ(q.violation_reason(b, SimTime(2)), FlushReason::Numerical);
}

TEST(SubscriberQueueTest, ZeroBoundsViolateImmediately) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 0.001, SimTime(500)));
  EXPECT_TRUE(q.violates(Bounds::zero(), SimTime(500)));
}

TEST(SubscriberQueueTest, InfiniteBoundsNeverViolate) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 1e12, SimTime(0)));
  EXPECT_FALSE(q.violates(Bounds::infinite(), SimTime(0) + SimDuration::seconds(1000000)));
}

TEST(SubscriberQueueTest, EmptyNeverViolates) {
  SubscriberQueue q;
  EXPECT_FALSE(q.violates(Bounds::zero(), SimTime(1'000'000'000)));
}

TEST(SubscriberQueueTest, TakeIntoResets) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 1, SimTime(0)));
  q.enqueue(move_update(2, 2, 1, SimTime(0)));
  std::vector<Update> taken(7);  // stale contents are cleared
  q.take_into(taken);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.total_weight(), 0.0);
  // Coalesce index is reset too: re-enqueueing the same key starts fresh.
  EXPECT_FALSE(q.enqueue(move_update(1, 5, 1, SimTime(1))));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.total_weight(), 1.0);
}

TEST(SubscriberQueueTest, ShedEntityMovesCompactsSurvivors) {
  SubscriberQueue q;
  const auto block = [](std::int32_t x, double w) {
    Update u;
    u.msg = EntityMove{0, {static_cast<double>(x), 0, 0}, 0, 0};
    u.weight = w;
    u.coalesce_key = coalesce_key_block({x, 64, 0});
    return u;
  };
  q.enqueue(move_update(1, 1, 0.5, SimTime(0)));
  q.enqueue(block(10, 1.0));
  q.enqueue(move_update(2, 2, 0.25, SimTime(0)));
  q.enqueue(block(11, 2.0));
  Update unkeyed = block(12, 4.0);
  unkeyed.coalesce_key = 0;
  q.enqueue(unkeyed);

  double shed_weight = 0.0;
  EXPECT_EQ(q.shed_entity_moves(&shed_weight), 2u);
  EXPECT_DOUBLE_EQ(shed_weight, 0.75);
  EXPECT_DOUBLE_EQ(q.total_weight(), 7.0);
  // Survivors keep their order.
  ASSERT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(std::get<EntityMove>(q.peek()[0].msg).pos.x, 10.0);
  EXPECT_DOUBLE_EQ(std::get<EntityMove>(q.peek()[1].msg).pos.x, 11.0);
  EXPECT_DOUBLE_EQ(std::get<EntityMove>(q.peek()[2].msg).pos.x, 12.0);

  // A surviving key still coalesces into its (moved) slot ...
  Update again = block(11, 1.0);
  again.msg = EntityMove{0, {99, 0, 0}, 0, 0};
  EXPECT_TRUE(q.enqueue(again));
  ASSERT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(std::get<EntityMove>(q.peek()[1].msg).pos.x, 99.0);
  EXPECT_DOUBLE_EQ(q.peek()[1].weight, 3.0);
  // ... and a shed key appends as a fresh entry.
  EXPECT_FALSE(q.enqueue(move_update(1, 7, 0.5, SimTime(1))));
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(std::get<EntityMove>(q.peek()[3].msg).id, 1u);
  EXPECT_DOUBLE_EQ(q.total_weight(), 8.5);

  // Nothing left to shed is a no-op.
  double none = 0.0;
  EXPECT_EQ(q.shed_entity_moves(&none), 1u);  // the move just appended
  EXPECT_EQ(q.shed_entity_moves(&none), 0u);
  EXPECT_EQ(q.size(), 3u);
}

// ----------------------------------------------------------------- Dyconit

class DyconitTest : public ::testing::Test {
 protected:
  Stats stats_;
  Dyconit d_{DyconitId::chunk_entities({0, 0}), Bounds::zero()};
  RecordingSink sink_;
};

TEST_F(DyconitTest, SubscribeUnsubscribe) {
  EXPECT_FALSE(d_.subscribed(1));
  d_.subscribe(1, Bounds::zero());
  EXPECT_TRUE(d_.subscribed(1));
  EXPECT_EQ(d_.subscriber_count(), 1u);
  d_.unsubscribe(1, stats_);
  EXPECT_FALSE(d_.subscribed(1));
  EXPECT_TRUE(d_.idle());
}

TEST_F(DyconitTest, EnqueueFansOutToAllButExcluded) {
  d_.subscribe(1);
  d_.subscribe(2);
  d_.subscribe(3);
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), /*exclude=*/2, stats_);
  EXPECT_EQ(stats_.enqueued, 2u);
  EXPECT_EQ(d_.total_queued(), 2u);
}

TEST_F(DyconitTest, EnqueueWithNoSubscribersDrops) {
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  EXPECT_EQ(stats_.dropped_no_subscriber, 1u);
  EXPECT_EQ(stats_.enqueued, 0u);
}

TEST_F(DyconitTest, EnqueueWithOnlyOriginatorDrops) {
  d_.subscribe(1);
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), /*exclude=*/1, stats_);
  EXPECT_EQ(stats_.dropped_no_subscriber, 1u);
}

TEST_F(DyconitTest, UnsubscribeDropsQueued) {
  d_.subscribe(1);
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.enqueue(move_update(8, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.unsubscribe(1, stats_);
  EXPECT_EQ(stats_.dropped_unsubscribe, 2u);
}

TEST_F(DyconitTest, FlushDueZeroBoundsDeliversEverything) {
  d_.subscribe(1, Bounds::zero());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0), sink_, stats_);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 1u);
  EXPECT_EQ(stats_.delivered, 1u);
  EXPECT_EQ(stats_.flushes_staleness, 1u);
  EXPECT_EQ(d_.total_queued(), 0u);
}

TEST_F(DyconitTest, FlushDueRespectsBounds) {
  d_.subscribe(1, Bounds{SimDuration::millis(200), 100.0});
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0) + SimDuration::millis(100), sink_, stats_);
  EXPECT_TRUE(sink_.records.empty());  // within bounds: hold
  d_.flush_due(SimTime(0) + SimDuration::millis(200), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(DyconitTest, NumericalBoundTriggersFlush) {
  d_.subscribe(1, Bounds{SimDuration::seconds(1000), 2.0});
  d_.enqueue(move_update(7, 1, 1.5, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(1), sink_, stats_);
  EXPECT_TRUE(sink_.records.empty());
  d_.enqueue(move_update(7, 2, 1.5, SimTime(1)), kNoSubscriber, stats_);  // 3.0 > 2
  d_.flush_due(SimTime(2), sink_, stats_);
  ASSERT_EQ(sink_.records.size(), 1u);  // coalesced into one update
  EXPECT_EQ(stats_.flushes_numerical, 1u);
  EXPECT_DOUBLE_EQ(sink_.records[0].weight, 3.0);
}

TEST_F(DyconitTest, PerSubscriberBoundsIndependent) {
  d_.subscribe(1, Bounds::zero());
  d_.subscribe(2, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0), sink_, stats_);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 1u);
  EXPECT_EQ(d_.total_queued(), 1u);  // subscriber 2 still holds it
}

TEST_F(DyconitTest, ForcedFlushDeliversRegardless) {
  d_.subscribe(1, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_all(SimTime(1), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(stats_.flushes_forced, 1u);
}

TEST_F(DyconitTest, FlushSubscriberOnlyTouchesOne) {
  d_.subscribe(1, Bounds::infinite());
  d_.subscribe(2, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_subscriber(1, SimTime(1), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(d_.total_queued(), 1u);
}

TEST_F(DyconitTest, EmptyQueueFlushIsNoop) {
  d_.subscribe(1, Bounds::zero());
  d_.flush_all(SimTime(0), sink_, stats_);
  EXPECT_EQ(sink_.flush_calls, 0);
  EXPECT_EQ(stats_.flushes_forced, 0u);
}

TEST_F(DyconitTest, ResubscribeUpdatesBoundsKeepsQueue) {
  d_.subscribe(1, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.subscribe(1, Bounds::zero());  // re-subscribe with tighter bounds
  EXPECT_EQ(d_.total_queued(), 1u);
  d_.flush_due(SimTime(1), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(DyconitTest, BoundsOfFallsBackToDefault) {
  Dyconit d(DyconitId::global_blocks(), Bounds{SimDuration::millis(42), 7.0});
  EXPECT_EQ(d.bounds_of(99).staleness.count_millis(), 42);
  d.subscribe(5, Bounds::zero());
  EXPECT_TRUE(d.bounds_of(5).is_zero());
}

TEST_F(DyconitTest, SnapshotThresholdDropsQueueAndAsksForSnapshot) {
  struct SnapshotSink : RecordingSink {
    void request_snapshot(SubscriberId to, const DyconitId& unit) override {
      requests.emplace_back(to, unit);
    }
    std::vector<std::pair<SubscriberId, DyconitId>> requests;
  } sink;

  d_.set_snapshot_threshold(4);
  d_.subscribe(1, Bounds::infinite());
  for (std::uint32_t i = 1; i <= 10; ++i) {
    d_.enqueue(move_update(i, i, 1, SimTime(0)), kNoSubscriber, stats_);
  }
  d_.flush_due(SimTime(1), sink, stats_);
  EXPECT_TRUE(sink.records.empty());          // deltas were dropped, not sent
  ASSERT_EQ(sink.requests.size(), 1u);
  EXPECT_EQ(sink.requests[0].first, 1u);
  EXPECT_EQ(sink.requests[0].second, d_.id());
  EXPECT_EQ(stats_.snapshots_requested, 1u);
  EXPECT_EQ(stats_.dropped_snapshot, 10u);
  EXPECT_EQ(d_.total_queued(), 0u);
}

TEST_F(DyconitTest, SnapshotThresholdZeroDisables) {
  d_.subscribe(1, Bounds::infinite());
  for (std::uint32_t i = 1; i <= 10; ++i) {
    d_.enqueue(move_update(i, i, 1, SimTime(0)), kNoSubscriber, stats_);
  }
  d_.set_snapshot_threshold(0);
  d_.flush_due(SimTime(1), sink_, stats_);
  EXPECT_EQ(stats_.snapshots_requested, 0u);
  EXPECT_EQ(d_.total_queued(), 10u);
}

TEST_F(DyconitTest, QueueAtThresholdIsNotSnapshotted) {
  d_.set_snapshot_threshold(4);
  d_.subscribe(1, Bounds::zero());
  for (std::uint32_t i = 1; i <= 4; ++i) {
    d_.enqueue(move_update(i, i, 1, SimTime(0)), kNoSubscriber, stats_);
  }
  d_.flush_due(SimTime(0), sink_, stats_);  // size == threshold: normal flush
  EXPECT_EQ(stats_.snapshots_requested, 0u);
  EXPECT_EQ(sink_.records.size(), 4u);
}

TEST_F(DyconitTest, StalenessRecordingAtFlush) {
  stats_.record_staleness = true;
  d_.subscribe(1, Bounds{SimDuration::millis(100), 1e9});
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0) + SimDuration::millis(150), sink_, stats_);
  ASSERT_EQ(stats_.staleness_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(stats_.staleness_ms[0], 150.0);
}

// ------------------------------------------------------ shared queues

Update block_update(std::int32_t x, SimTime t) {
  Update u;
  u.msg = EntityMove{0, {static_cast<double>(x), 0, 0}, 0, 0};
  u.created = t;
  u.coalesce_key = coalesce_key_block({x, 64, 0});
  return u;
}

/// Records per subscriber: the x positions it was delivered, in order.
std::map<SubscriberId, std::vector<double>> xs_by_subscriber(const RecordingSink& sink) {
  std::map<SubscriberId, std::vector<double>> out;
  for (const auto& r : sink.records) out[r.to].push_back(std::get<EntityMove>(r.msg).pos.x);
  return out;
}

TEST_F(DyconitTest, IdleSubscribersShareOneQueue) {
  for (SubscriberId s = 1; s <= 4; ++s) d_.subscribe(s, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.enqueue(move_update(8, 2, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.enqueue(move_update(7, 3, 1, SimTime(0)), kNoSubscriber, stats_);
  // Counted per subscriber, appended once per shared queue.
  EXPECT_EQ(stats_.enqueued, 12u);
  EXPECT_EQ(stats_.coalesced, 4u);
  EXPECT_EQ(stats_.queue_appends, 3u);
  EXPECT_EQ(stats_.queue_splits, 0u);
  EXPECT_EQ(d_.total_queued(), 8u);
  d_.check_invariants();
  d_.flush_all(SimTime(1), sink_, stats_);
  ASSERT_EQ(sink_.flush_calls, 4);
  // All four took the same contents: one batch id.
  for (const std::uint64_t b : sink_.batches) EXPECT_EQ(b, sink_.batches.front());
  EXPECT_EQ(stats_.batches, 1u);
  for (const auto& [sub, xs] : xs_by_subscriber(sink_)) {
    EXPECT_EQ(xs, (std::vector<double>{3, 2})) << "subscriber " << sub;
  }
}

TEST_F(DyconitTest, ExcludedOriginatorSplitsOff) {
  for (SubscriberId s = 1; s <= 3; ++s) d_.subscribe(s, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.enqueue(move_update(8, 2, 1, SimTime(0)), /*exclude=*/2, stats_);
  EXPECT_EQ(stats_.queue_splits, 1u);
  EXPECT_EQ(stats_.enqueued, 5u);
  // Excluded again: its copy is private now, so no second split.
  d_.enqueue(move_update(9, 3, 1, SimTime(0)), /*exclude=*/2, stats_);
  EXPECT_EQ(stats_.queue_splits, 1u);
  d_.check_invariants();
  d_.flush_all(SimTime(1), sink_, stats_);
  const auto xs = xs_by_subscriber(sink_);
  EXPECT_EQ(xs.at(1), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(xs.at(2), (std::vector<double>{1}));
  EXPECT_EQ(xs.at(3), (std::vector<double>{1, 2, 3}));
  ASSERT_EQ(sink_.batches.size(), 3u);
  EXPECT_EQ(sink_.batches[0], sink_.batches[2]);
  EXPECT_NE(sink_.batches[0], sink_.batches[1]);
}

TEST_F(DyconitTest, ShedDirectiveSplitsOnlyTheShedMember) {
  for (SubscriberId s = 1; s <= 3; ++s) d_.subscribe(s, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 0.5, SimTime(0)), kNoSubscriber, stats_);
  d_.enqueue(block_update(2, SimTime(0)), kNoSubscriber, stats_);
  ShedDirectiveMap shed;
  shed[2].shed_entity_moves = true;
  d_.flush_due(SimTime(1), sink_, stats_, &shed);
  EXPECT_EQ(stats_.queue_splits, 1u);
  EXPECT_EQ(stats_.shed_updates, 1u);
  EXPECT_DOUBLE_EQ(stats_.shed_weight, 0.5);
  EXPECT_TRUE(sink_.records.empty());  // infinite bounds: nothing due
  EXPECT_EQ(d_.total_queued(), 5u);    // 2 + 1 + 2
  // A second round finds no move left in its view: no further split.
  d_.flush_due(SimTime(2), sink_, stats_, &shed);
  EXPECT_EQ(stats_.queue_splits, 1u);
  d_.check_invariants();
  d_.flush_all(SimTime(3), sink_, stats_);
  const auto xs = xs_by_subscriber(sink_);
  EXPECT_EQ(xs.at(1), (std::vector<double>{1, 2}));
  EXPECT_EQ(xs.at(2), (std::vector<double>{2}));
  EXPECT_EQ(xs.at(3), (std::vector<double>{1, 2}));
}

TEST_F(DyconitTest, DueMemberTakesAViewAndTheRestKeepTheQueue) {
  d_.subscribe(1, Bounds::zero());
  d_.subscribe(2, Bounds{SimDuration::millis(100), 1e9});
  d_.subscribe(3, Bounds{SimDuration::millis(100), 1e9});
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0), sink_, stats_);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 1u);
  EXPECT_EQ(d_.total_queued(), 2u);
  EXPECT_EQ(d_.next_due(), SimTime(0) + SimDuration::millis(100));
  // The queue of 2 and 3 takes the next update once; idle 1 opens another.
  d_.enqueue(move_update(8, 2, 1, SimTime(10)), kNoSubscriber, stats_);
  EXPECT_EQ(stats_.queue_appends, 3u);
  EXPECT_EQ(stats_.queue_splits, 0u);
  d_.check_invariants();
  d_.flush_due(SimTime(0) + SimDuration::millis(100), sink_, stats_);
  const auto xs = xs_by_subscriber(sink_);
  EXPECT_EQ(xs.at(1), (std::vector<double>{1, 2}));
  EXPECT_EQ(xs.at(2), (std::vector<double>{1, 2}));
  EXPECT_EQ(xs.at(3), (std::vector<double>{1, 2}));
  ASSERT_EQ(sink_.batches.size(), 4u);
  EXPECT_NE(sink_.batches[0], sink_.batches[2]);
  EXPECT_EQ(sink_.batches[2], sink_.batches[3]);
  EXPECT_EQ(d_.total_queued(), 0u);
}

TEST_F(DyconitTest, SnapshotDropsOnlyThatMembersView) {
  for (SubscriberId s = 1; s <= 3; ++s) d_.subscribe(s, Bounds::infinite());
  for (std::uint32_t i = 1; i <= 5; ++i) {
    d_.enqueue(move_update(i, i, 1, SimTime(0)), kNoSubscriber, stats_);
  }
  struct SnapshotSink : RecordingSink {
    void request_snapshot(SubscriberId to, const DyconitId&) override { requests.push_back(to); }
    std::vector<SubscriberId> requests;
  } sink;
  ShedDirectiveMap shed;
  shed[3].snapshot_threshold_override = 2;
  d_.flush_due(SimTime(1), sink, stats_, &shed);
  EXPECT_EQ(sink.requests, (std::vector<SubscriberId>{3}));
  EXPECT_EQ(stats_.dropped_snapshot, 5u);
  EXPECT_EQ(stats_.queue_splits, 0u);  // leaving needs no copy
  EXPECT_EQ(d_.total_queued(), 10u);
  d_.check_invariants();
}

TEST_F(DyconitTest, UnsubscribeLeavesTheSharedQueue) {
  Dyconit::Sub& first = d_.subscribe(1, Bounds::infinite());
  for (SubscriberId s = 2; s <= 3; ++s) d_.subscribe(s, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.set_bounds(first, Bounds::zero());
  EXPECT_EQ(d_.next_due(), Dyconit::kDueNow);
  d_.unsubscribe(1, stats_);
  EXPECT_EQ(stats_.dropped_unsubscribe, 1u);
  EXPECT_EQ(d_.total_queued(), 2u);
  d_.check_invariants();
  d_.flush_due(SimTime(1), sink_, stats_);
  EXPECT_TRUE(sink_.records.empty());  // the rest still have infinite bounds
  d_.flush_all(SimTime(1), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 2u);
}

TEST_F(DyconitTest, LooseningTheTightestMemberMovesTheQueueDueLater) {
  Dyconit::Sub& first = d_.subscribe(1, Bounds{SimDuration::millis(50), 1e9});
  d_.subscribe(2, Bounds{SimDuration::millis(200), 1e9});
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  EXPECT_EQ(d_.next_due(), SimTime(0) + SimDuration::millis(50));
  d_.set_bounds(first, Bounds{SimDuration::millis(300), 1e9});
  d_.flush_due(SimTime(0) + SimDuration::millis(60), sink_, stats_);
  EXPECT_EQ(d_.next_due(), SimTime(0) + SimDuration::millis(200));
  d_.check_invariants();
}

// ----------------------------------------------------------- DyconitSystem

class SystemTest : public ::testing::Test {
 protected:
  SimClock clock_;
  DyconitSystem sys_{clock_};
  RecordingSink sink_;
};

TEST_F(SystemTest, GetOrCreateIsIdempotent) {
  Dyconit& a = sys_.get_or_create(DyconitId::chunk_blocks({1, 1}));
  Dyconit& b = sys_.get_or_create(DyconitId::chunk_blocks({1, 1}));
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(sys_.dyconit_count(), 1u);
  EXPECT_EQ(sys_.find(DyconitId::chunk_blocks({2, 2})), nullptr);
}

TEST_F(SystemTest, UpdateStampsCreationTime) {
  clock_.advance(SimDuration::millis(123));
  sys_.subscribe(DyconitId::global_entities(), 1, Bounds::infinite());
  Update u = move_update(7, 1, 1, SimTime::zero());
  u.created = SimTime::zero();  // unset: system stamps it
  sys_.update(DyconitId::global_entities(), u);
  sys_.flush_all(sink_);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].created.count_micros(), 123000);
}

TEST_F(SystemTest, TickFlushesDueQueues) {
  const auto id = DyconitId::chunk_entities({0, 0});
  sys_.subscribe(id, 1, Bounds{SimDuration::millis(100), 1e9});
  sys_.update(id, move_update(7, 1, 1, clock_.now()));
  sys_.tick(sink_);
  EXPECT_TRUE(sink_.records.empty());
  clock_.advance(SimDuration::millis(100));
  sys_.tick(sink_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(SystemTest, TickGarbageCollectsSubscriberlessDyconits) {
  const auto id = DyconitId::chunk_blocks({5, 5});
  sys_.subscribe(id, 1, Bounds::zero());
  EXPECT_EQ(sys_.dyconit_count(), 1u);
  sys_.unsubscribe(id, 1);
  sys_.tick(sink_);
  EXPECT_EQ(sys_.dyconit_count(), 0u);
}

TEST_F(SystemTest, GcSparesDyconitsWithSubscribers) {
  const auto id = DyconitId::chunk_blocks({1, 2});
  sys_.subscribe(id, 1, Bounds::infinite());
  for (int i = 0; i < 10; ++i) sys_.tick(sink_);
  EXPECT_NE(sys_.find(id), nullptr);
  EXPECT_TRUE(sys_.is_subscribed(id, 1));
}

TEST_F(SystemTest, UnsubscribeAllClearsEverySubscription) {
  sys_.subscribe(DyconitId::chunk_blocks({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_blocks({0, 0}), 2, Bounds::infinite());
  sys_.update(DyconitId::chunk_blocks({0, 0}), move_update(9, 1, 1, clock_.now()));
  sys_.unsubscribe_all(1);
  EXPECT_FALSE(sys_.is_subscribed(DyconitId::chunk_blocks({0, 0}), 1));
  EXPECT_TRUE(sys_.is_subscribed(DyconitId::chunk_blocks({0, 0}), 2));
  EXPECT_EQ(sys_.stats().dropped_unsubscribe, 1u);
}

TEST_F(SystemTest, FlushSubscriberAcrossDyconits) {
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_entities({1, 0}), 1, Bounds::infinite());
  sys_.update(DyconitId::chunk_entities({0, 0}), move_update(7, 1, 1, clock_.now()));
  sys_.update(DyconitId::chunk_entities({1, 0}), move_update(8, 1, 1, clock_.now()));
  sys_.flush_subscriber(1, sink_);
  EXPECT_EQ(sink_.records.size(), 2u);
}

TEST_F(SystemTest, SetBoundsAffectsFlushDecision) {
  const auto id = DyconitId::chunk_entities({0, 0});
  const Subscription h = sys_.subscribe(id, 1, Bounds::infinite());
  sys_.update(id, move_update(7, 1, 1, clock_.now()));
  clock_.advance(SimDuration::seconds(10));
  sys_.tick(sink_);
  EXPECT_TRUE(sink_.records.empty());
  sys_.set_bounds(h, Bounds::zero());
  sys_.tick(sink_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(SystemTest, TickVisitsOnlyDueQueues) {
  // 400 dyconits x 50 subscribers with a 100 ms staleness bound: one update
  // reaches 50 subscribers, all due at t=100 ms. A round examines a queue
  // only once its due time has come, not every pending queue and never all
  // 20,000 subscriptions; subscribers that share a queue cost one visit.
  const Bounds hundred_ms{SimDuration::millis(100), 1e9};
  const auto hot = DyconitId::chunk_entities({123, 0});
  std::map<SubscriberId, Subscription> hot_subs;
  for (int d = 0; d < 400; ++d) {
    for (SubscriberId s = 1; s <= 50; ++s) {
      const auto id = DyconitId::chunk_entities({d, 0});
      const Subscription h = sys_.subscribe(id, s, hundred_ms);
      if (id == hot) hot_subs[s] = h;
    }
  }
  sys_.tick(sink_);  // settles GC of the freshly created dyconits
  const std::uint64_t visited0 = sys_.stats().queues_visited;
  sys_.update(hot, move_update(7, 1, 1, clock_.now()));
  EXPECT_EQ(sys_.total_queued(), 50u);

  // 0: the 50 pending queues are not due before t=100 ms, so neither this
  // round nor one at t=50 ms examines them.
  sys_.tick(sink_);
  clock_.advance(SimDuration::millis(50));
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 0u);
  EXPECT_TRUE(sink_.records.empty());

  // 1: tightening subscriber 7 makes exactly its queue due now.
  sys_.set_bounds(hot_subs.at(7), Bounds::zero());
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 1u);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 7u);

  // 1: at t=100 ms the other 49 subscribers come due together; they share
  // one queue, examined once, and each of them flushes.
  clock_.advance(SimDuration::millis(50));
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 2u);
  EXPECT_EQ(sink_.records.size(), 50u);
  EXPECT_EQ(sys_.total_queued(), 0u);

  // With infinite bounds a pending queue is never due: 50 more pending
  // subscribers cost no visit, and a forced flush empties them without one.
  for (const auto& [s, h] : hot_subs) sys_.set_bounds(h, Bounds::infinite());
  sys_.update(hot, move_update(8, 1, 1, clock_.now()));
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 2u);
  sys_.flush_all(sink_);
  EXPECT_EQ(sink_.records.size(), 100u);

  // With nothing pending and no unsubscribe, a tick does no work at all.
  const std::uint64_t gc1 = sys_.stats().gc_checked;
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 2u);
  EXPECT_EQ(sys_.stats().gc_checked, gc1);
  EXPECT_EQ(sys_.dyconit_count(), 400u);
}

TEST_F(SystemTest, SecondTickWithoutBoundChangeVisitsNothing) {
  // The server's second flush round of a tick: every queue the first round
  // left pending has a due time in the future, so it examines none.
  for (SubscriberId s = 1; s <= 8; ++s) {
    sys_.subscribe(DyconitId::chunk_entities({0, 0}), s,
                   s % 2 == 0 ? Bounds::zero() : Bounds{SimDuration::millis(200), 1e9});
  }
  sys_.update(DyconitId::chunk_entities({0, 0}), move_update(7, 1, 1, clock_.now()));
  sys_.tick(sink_);
  EXPECT_EQ(sink_.records.size(), 4u);  // the zero-bound half
  const std::uint64_t visited0 = sys_.stats().queues_visited;
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited, visited0);
  EXPECT_EQ(sys_.total_queued(), 4u);
}

TEST_F(SystemTest, SetBoundsTighteningMakesThatQueueDueThisTick) {
  const auto a = DyconitId::chunk_entities({0, 0});
  const auto b = DyconitId::chunk_entities({1, 0});
  Subscription b2;
  for (const auto& id : {a, b}) {
    for (SubscriberId s = 1; s <= 3; ++s) {
      const Subscription h = sys_.subscribe(id, s, Bounds::infinite());
      if (id == b && s == 2) b2 = h;
    }
    sys_.update(id, move_update(7, 1, 1, clock_.now()));
  }
  sys_.tick(sink_);
  const std::uint64_t visited0 = sys_.stats().queues_visited;
  sys_.set_bounds(b2, Bounds::zero());
  sys_.tick(sink_);  // same sim time
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 1u);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 2u);
  EXPECT_EQ(sys_.total_queued(), 5u);
}

TEST_F(SystemTest, RetuneTighteningMakesThatQueueDueThisTick) {
  // A policy that tightens one subscriber (standing at x=1) to zero.
  struct TightenAtOne : Policy {
    std::string name() const override { return "tighten-at-one"; }
    Bounds bounds_for(const DyconitId&, const world::Vec3& pos) const override {
      return pos.x == 1.0 ? Bounds::zero() : Bounds::infinite();
    }
  } policy;
  const auto id = DyconitId::chunk_entities({0, 0});
  for (SubscriberId s = 1; s <= 4; ++s) sys_.subscribe(id, s, Bounds::infinite());
  sys_.update(id, move_update(7, 1, 1, clock_.now()));
  sys_.tick(sink_);
  const std::uint64_t visited0 = sys_.stats().queues_visited;

  std::vector<PlayerView> players;
  for (SubscriberId s = 1; s <= 4; ++s) {
    players.push_back({s, s, {s == 3 ? 1.0 : 0.0, 0, 0}, SimDuration{}});
  }
  LoadSample load;
  PolicyContext ctx(sys_, players, load);
  retune_all_bounds(policy, ctx);
  sys_.tick(sink_);  // same sim time
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 1u);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 3u);
}

TEST_F(SystemTest, NumericalCrossingAtEnqueueFlushesBeforeStaleness) {
  const auto id = DyconitId::chunk_entities({0, 0});
  sys_.subscribe(id, 1, Bounds{SimDuration::seconds(10), 2.0});
  sys_.update(id, move_update(7, 1, 1.5, clock_.now()));
  clock_.advance(SimDuration::millis(50));
  sys_.tick(sink_);
  EXPECT_TRUE(sink_.records.empty());  // due at t=10 s: not examined
  const std::uint64_t visited0 = sys_.stats().queues_visited;
  sys_.update(id, move_update(7, 2, 1.5, clock_.now()));  // 3.0 > 2: due now
  clock_.advance(SimDuration::millis(50));
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 1u);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sys_.stats().flushes_numerical, 1u);
}

TEST_F(SystemTest, ShedDirectiveVisitsItsSubscribersQueuesEveryRound) {
  // Subscriber 1 holds a block update (never shed) in three dyconits with
  // infinite bounds; subscriber 2 holds the same but has no directive.
  for (int d = 0; d < 3; ++d) {
    const auto id = DyconitId::chunk_blocks({d, 0});
    sys_.subscribe(id, 1, Bounds::infinite());
    sys_.subscribe(id, 2, Bounds::infinite());
    Update u = move_update(7, 1, 1, clock_.now());
    u.coalesce_key = coalesce_key_block({d, 64, 0});
    sys_.update(id, u);
  }
  ShedDirective shed;
  shed.shed_entity_moves = true;
  sys_.set_shed_directive(1, shed);
  for (int round = 1; round <= 3; ++round) {
    const std::uint64_t visited0 = sys_.stats().queues_visited;
    sys_.tick(sink_);
    EXPECT_EQ(sys_.stats().queues_visited - visited0, 3u) << "round " << round;
  }
  EXPECT_TRUE(sink_.records.empty());
  EXPECT_EQ(sys_.stats().shed_updates, 0u);
  sys_.clear_shed_directives();
  const std::uint64_t visited1 = sys_.stats().queues_visited;
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited, visited1);
}

TEST_F(SystemTest, GcChecksOnlyDyconitsThatLostASubscriber) {
  for (int d = 0; d < 10; ++d) {
    sys_.subscribe(DyconitId::chunk_blocks({d, 0}), 1, Bounds::infinite());
    sys_.subscribe(DyconitId::chunk_blocks({d, 0}), 2, Bounds::infinite());
  }
  sys_.tick(sink_);
  const std::uint64_t gc0 = sys_.stats().gc_checked;
  sys_.unsubscribe(DyconitId::chunk_blocks({3, 0}), 1);  // still has subscriber 2
  sys_.unsubscribe(DyconitId::chunk_blocks({4, 0}), 1);
  sys_.unsubscribe(DyconitId::chunk_blocks({4, 0}), 2);  // now idle
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().gc_checked - gc0, 1u);
  EXPECT_EQ(sys_.dyconit_count(), 9u);
  EXPECT_EQ(sys_.find(DyconitId::chunk_blocks({4, 0})), nullptr);
}

TEST_F(SystemTest, ResubscribeBeforeTickKeepsOnePendingEntry) {
  const auto id = DyconitId::chunk_entities({0, 0});
  sys_.subscribe(id, 1, Bounds::infinite());
  sys_.update(id, move_update(7, 1, 1, clock_.now()));
  sys_.unsubscribe(id, 1);
  sys_.subscribe(id, 1, Bounds::zero());
  sys_.update(id, move_update(8, 2, 1, clock_.now()));
  const std::uint64_t visited0 = sys_.stats().queues_visited;
  sys_.tick(sink_);
  EXPECT_EQ(sys_.stats().queues_visited - visited0, 1u);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(std::get<EntityMove>(sink_.records[0].msg).id, 8u);
  EXPECT_EQ(sys_.stats().dropped_unsubscribe, 1u);
}

TEST_F(SystemTest, TotalQueuedCounts) {
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 2, Bounds::infinite());
  sys_.update(DyconitId::chunk_entities({0, 0}), move_update(7, 1, 1, clock_.now()));
  EXPECT_EQ(sys_.total_queued(), 2u);
}

// --------------------------------------------------------------- DyconitId

TEST(DyconitIdTest, RegionMapping) {
  EXPECT_EQ(DyconitId::region_blocks({0, 0}), DyconitId::region_blocks({3, 3}));
  EXPECT_NE(DyconitId::region_blocks({3, 3}), DyconitId::region_blocks({4, 3}));
  EXPECT_EQ(DyconitId::region_blocks({-1, -1}), DyconitId::region_blocks({-4, -4}));
  EXPECT_NE(DyconitId::region_blocks({-1, -1}), DyconitId::region_blocks({0, 0}));
}

TEST(DyconitIdTest, DomainsDistinct) {
  EXPECT_NE(DyconitId::chunk_blocks({1, 1}), DyconitId::chunk_entities({1, 1}));
  EXPECT_NE(DyconitId::global_blocks(), DyconitId::global_entities());
}

TEST(DyconitIdTest, CenterLocations) {
  const auto c = DyconitId::chunk_blocks({2, -1}).center();
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->x, 2 * 16 + 8.0);
  EXPECT_DOUBLE_EQ(c->z, -16 + 8.0);
  EXPECT_FALSE(DyconitId::global_blocks().center().has_value());
  EXPECT_FALSE(DyconitId::custom(7).center().has_value());
  const auto r = DyconitId::region_entities({0, 0}).center();
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->x, 32.0);  // region 0 spans chunks 0..3 = blocks 0..63
}

TEST(DyconitIdTest, EntityDomainPredicate) {
  EXPECT_TRUE(DyconitId::chunk_entities({0, 0}).is_entity_domain());
  EXPECT_TRUE(DyconitId::global_entities().is_entity_domain());
  EXPECT_FALSE(DyconitId::chunk_blocks({0, 0}).is_entity_domain());
}

TEST(DyconitIdTest, ToStringIsReadable) {
  EXPECT_EQ(DyconitId::chunk_blocks({3, -4}).to_string(), "chunk-blocks(3,-4)");
}

}  // namespace
}  // namespace dyconits::dyconit
