// A single dyconit: one consistency unit with a set of subscribers, each
// holding an outgoing update queue and its own inconsistency bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dyconit/bounds.h"
#include "dyconit/id.h"
#include "dyconit/update.h"
#include "util/coalescing_queue.h"

namespace dyconits::dyconit {

enum class FlushReason : std::uint8_t {
  Staleness = 0,  // oldest queued update reached the staleness bound
  Numerical = 1,  // accumulated weight exceeded the numerical bound
  Forced = 2,     // explicit flush (snapshot, shutdown, test)
};

/// Aggregate middleware counters; owned by DyconitSystem, updated by every
/// dyconit operation. `delivered` counts updates handed to the sink;
/// `coalesced` counts updates absorbed into a queued predecessor — each one
/// is a message the network never carries.
struct Stats {
  std::uint64_t enqueued = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_subscriber = 0;
  std::uint64_t dropped_unsubscribe = 0;
  std::uint64_t flushes_staleness = 0;
  std::uint64_t flushes_numerical = 0;
  std::uint64_t flushes_forced = 0;
  double weight_delivered = 0.0;
  /// Snapshot catch-up: queues dropped for being too far behind, and the
  /// updates discarded with them (replaced by fresh state from the game).
  std::uint64_t snapshots_requested = 0;
  std::uint64_t dropped_snapshot = 0;
  /// Recovery handshakes served (DyconitSystem::resync_subscriber calls).
  std::uint64_t resyncs = 0;
  /// Overload shedding (DESIGN.md §10): updates dropped from queues by a
  /// ShedDirective instead of being delivered, and their total weight.
  /// Shed entity moves are absolute state superseded by the next move;
  /// shed block backlog is converted into a snapshot request.
  std::uint64_t shed_updates = 0;
  double shed_weight = 0.0;
  /// Work counters for the flush round (DESIGN.md §3): (dyconit,
  /// subscriber) queues examined by flush_due, and dyconits examined by
  /// the garbage collector. Both follow pending queues and unsubscribes,
  /// not the number of subscriptions.
  std::uint64_t queues_visited = 0;
  std::uint64_t gc_checked = 0;

  /// When enabled (see DyconitSystem::set_record_staleness), per-update
  /// queueing delay in ms at flush time.
  bool record_staleness = false;
  std::vector<double> staleness_ms;

  std::uint64_t flushes() const {
    return flushes_staleness + flushes_numerical + flushes_forced;
  }
};

/// Overload-shedding directive for one subscriber (DESIGN.md §10). The
/// host's overload controller installs these before a flush round; they
/// are applied inside flush_due before the due check, so shed work is a
/// pure function of the queue contents.
struct ShedDirective {
  /// Drop queued entity-move updates (coalesce-key namespace 1). Safe to
  /// shed: moves carry absolute positions, so the next enqueued move for
  /// the same entity supersedes anything dropped.
  bool shed_entity_moves = false;
  /// Snapshot-threshold override (tighter wins over the global threshold):
  /// converts a deep backlog into a snapshot request — the game resends
  /// fresh state, repairing consistency instead of replaying the flood.
  std::size_t snapshot_threshold_override = 0;

  bool any() const { return shed_entity_moves || snapshot_threshold_override > 0; }
};

/// Per-subscriber shed directives, keyed by subscriber id.
using ShedDirectiveMap = std::unordered_map<SubscriberId, ShedDirective>;

/// Flush work taken from one (dyconit, subscriber) queue but not yet
/// accounted or delivered: Dyconit takes it from the queue (applying any
/// shed directive and the due check), then settles it into Stats and the
/// sink.
struct PendingFlush {
  enum class Kind : std::uint8_t {
    None = 0,      ///< nothing due
    Flush = 1,     ///< `updates` must be delivered
    Snapshot = 2,  ///< queue was dropped; ask the sink for a snapshot
  };
  Kind kind = Kind::None;
  FlushReason reason = FlushReason::Forced;
  std::vector<Update> updates;  ///< Flush: queue contents in enqueue order
  std::size_t dropped = 0;      ///< Snapshot: updates discarded with the queue
  /// Updates (and weight) removed by a ShedDirective in this take; folded
  /// into Stats when the flush settles.
  std::size_t shed = 0;
  double shed_weight = 0.0;

  /// Back to the default state, keeping the updates vector's capacity so a
  /// reused PendingFlush recycles storage instead of reallocating.
  void reset() {
    kind = Kind::None;
    reason = FlushReason::Forced;
    updates.clear();
    dropped = 0;
    shed = 0;
    shed_weight = 0.0;
  }
};

/// One subscriber's outgoing updates: the shared util::CoalescingQueue plus
/// the dyconit policy on top — the weight sum and the bound check.
class SubscriberQueue {
 public:
  using Queue = util::CoalescingQueue<Update, &Update::coalesce_key>;

  /// Returns true if the update was coalesced into an existing entry.
  bool enqueue(const Update& u);

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  double total_weight() const { return total_weight_; }

  /// Age-of-oldest entry; only meaningful when !empty(). Entries keep their
  /// first-enqueue timestamp across coalescing, and enqueue times are
  /// monotone, so the front entry is the oldest.
  SimTime oldest_created() const { return q_.front().created; }

  bool violates(const Bounds& b, SimTime now) const {
    if (empty()) return false;
    return (now - oldest_created()) >= b.staleness || total_weight_ > b.numerical;
  }

  /// Which bound tripped (call only when violates() is true).
  FlushReason violation_reason(const Bounds& b, SimTime now) const {
    return (now - oldest_created()) >= b.staleness ? FlushReason::Staleness
                                                   : FlushReason::Numerical;
  }

  /// Moves out all queued updates in enqueue order into `out` (cleared
  /// first) and resets the queue, swapping storage with `out` so a flush
  /// round recycles vector capacity instead of allocating per flush.
  void take_into(std::vector<Update>& out) {
    q_.take_into(out);
    total_weight_ = 0.0;
  }

  /// Discards everything queued (snapshot catch-up) without surrendering
  /// the queue's storage.
  void drop_all() {
    q_.clear();
    total_weight_ = 0.0;
  }

  /// Overload shedding: removes every queued entity move
  /// (is_entity_move_key), preserving the order of survivors. Returns how
  /// many were removed and adds their total weight to *weight.
  std::size_t shed_entity_moves(double* weight);

  const Queue& peek() const { return q_; }

 private:
  Queue q_;
  double total_weight_ = 0.0;
};

class Dyconit {
 public:
  Dyconit(DyconitId id, Bounds default_bounds);

  DyconitId id() const { return id_; }

  /// Bounds applied to subscribers that don't specify their own.
  Bounds default_bounds() const { return default_bounds_; }
  void set_default_bounds(Bounds b) { default_bounds_ = b; }

  /// Subscribing twice updates the bounds and keeps the queue.
  void subscribe(SubscriberId sub, Bounds b);
  void subscribe(SubscriberId sub) { subscribe(sub, default_bounds_); }

  /// Unsubscribes and drops any queued updates (counted in stats). Returns
  /// false if `sub` was not subscribed.
  bool unsubscribe(SubscriberId sub, Stats& stats);

  bool subscribed(SubscriberId sub) const { return subs_.count(sub) > 0; }
  std::size_t subscriber_count() const { return subs_.size(); }

  void set_bounds(SubscriberId sub, Bounds b);
  /// Bounds of a subscriber; default bounds if not subscribed.
  Bounds bounds_of(SubscriberId sub) const;

  /// Queues `u` toward every subscriber except `exclude` (the originator,
  /// which already knows its own action). Returns true when the dyconit
  /// was not scheduled and now has pending queues: the owner must then
  /// call flush_due on a later round (DyconitSystem keeps these on its
  /// active list).
  bool enqueue(const Update& u, SubscriberId exclude, Stats& stats);

  /// Flushes every subscriber queue that violates its bounds at `now`, in
  /// canonical (ascending subscriber id) order. If `snapshot_threshold` > 0,
  /// a queue holding more updates than that is dropped and the sink is
  /// asked for a snapshot instead. `shed` (optional) applies per-subscriber
  /// overload directives before the due check. Visits only the queues that
  /// received an update since they were last seen empty; an empty queue is
  /// never due, never snapshotted and has nothing to shed, so skipping it
  /// changes no sink call and no Stats field. Returns scheduled(): whether
  /// queues are still pending afterwards.
  bool flush_due(SimTime now, FlushSink& sink, Stats& stats,
                 std::size_t snapshot_threshold = 0,
                 const ShedDirectiveMap* shed = nullptr);

  /// True while some queue may be non-empty and flush_due has to visit it:
  /// set by an enqueue that returned true, recomputed by flush_due.
  bool scheduled() const { return scheduled_; }

  /// Subscriber ids in canonical (ascending) order — the order flush work
  /// is settled in. Lazily rebuilt after subscribe/unsubscribe; the
  /// reference is invalidated by either.
  const std::vector<SubscriberId>& sorted_subscribers() const;

  /// Unconditionally flushes one subscriber (no-op if queue empty).
  void flush_subscriber(SubscriberId sub, SimTime now, FlushSink& sink, Stats& stats,
                        FlushReason reason = FlushReason::Forced);

  void flush_all(SimTime now, FlushSink& sink, Stats& stats);

  /// Visits (subscriber, mutable bounds, queue) — used by adaptive policies
  /// to retune bounds in place.
  void for_each_subscriber(
      const std::function<void(SubscriberId, Bounds&, const SubscriberQueue&)>& fn);

  std::size_t total_queued() const;
  bool idle() const { return subs_.empty(); }

 private:
  struct Sub {
    Bounds bounds;
    SubscriberQueue queue;
    bool pending = false;  ///< id is on pending_
  };

  /// Applies `shed`, then decides whether the queue in `s` is due at `now`
  /// and, if so, takes its contents into `p` (reset by the caller).
  void take_due_core(Sub& s, SimTime now, std::size_t snapshot_threshold,
                     const ShedDirective& shed, PendingFlush& p);

  /// Accounts `p` and hands it to the sink (deliver or request_snapshot).
  /// No-op for Kind::None.
  void settle(SubscriberId sub, const PendingFlush& p, SimTime now, FlushSink& sink,
              Stats& stats);

  DyconitId id_;
  Bounds default_bounds_;
  std::unordered_map<SubscriberId, Sub> subs_;
  mutable std::vector<SubscriberId> sorted_subs_;
  mutable bool subs_dirty_ = true;

  /// Subscribers whose queue went from empty to non-empty since flush_due
  /// last found it empty, in no particular order, without duplicates (the
  /// Sub::pending flag). Unsubscribe removes the id.
  std::vector<SubscriberId> pending_;
  bool scheduled_ = false;

  // Flush-round scratch, reused so flush_due stays allocation-free in
  // steady state: round_ holds the ids being visited, take_scratch_
  // circulates update-vector capacity with the queues, views_scratch_
  // backs settle's borrowed views.
  std::vector<SubscriberId> round_;
  PendingFlush take_scratch_;
  std::vector<FlushSink::FlushedUpdate> views_scratch_;
};

}  // namespace dyconits::dyconit
