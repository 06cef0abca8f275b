// A single dyconit: one consistency unit with a set of subscribers, each
// holding an outgoing update queue and its own inconsistency bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
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
  /// the garbage collector. A queue is examined only once its cached due
  /// time has come (or its subscriber has a shed directive), so
  /// queues_visited follows the queues that flush, snapshot or shed, not
  /// the pending ones; gc_checked follows unsubscribes. Neither follows
  /// the number of subscriptions.
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

class DyconitSystem;

class Dyconit {
 public:
  /// Due-time sentinels: a queue due at kDueNow is due at any flush_due;
  /// next_due() is kNever while nothing is pending.
  static constexpr SimTime kDueNow{std::numeric_limits<std::int64_t>::min()};
  static constexpr SimTime kNever{std::numeric_limits<std::int64_t>::max()};

  Dyconit(DyconitId id, Bounds default_bounds);

  DyconitId id() const { return id_; }

  /// Bounds applied to subscribers that don't specify their own.
  Bounds default_bounds() const { return default_bounds_; }
  void set_default_bounds(Bounds b) { default_bounds_ = b; }

  /// Subscribing twice updates the bounds (and the queue's due time) and
  /// keeps the queue.
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
  /// which already knows its own action). Returns true when next_due()
  /// moved earlier (possibly from kNever): the owner must then re-key its
  /// flush schedule (DyconitSystem's due heap).
  bool enqueue(const Update& u, SubscriberId exclude, Stats& stats);

  /// Queues holding more than `n` updates are dropped at flush_due and the
  /// sink is asked for a snapshot instead (0 disables, the default). Due
  /// times account for it from enqueue on, so a change re-derives every
  /// pending queue's due time.
  void set_snapshot_threshold(std::size_t n);

  /// Flushes every subscriber queue that violates its bounds at `now`, in
  /// canonical (ascending subscriber id) order, or drops it for a snapshot
  /// (set_snapshot_threshold). `shed` (optional) applies per-subscriber
  /// overload directives before the due check. Visits only the queues whose
  /// cached due time has come or whose subscriber has a directive
  /// (DESIGN.md §3): the due time is never later than the first `now` at
  /// which the visit would act, so skipping the others changes no sink call
  /// and no Stats field but queues_visited.
  void flush_due(SimTime now, FlushSink& sink, Stats& stats,
                 const ShedDirectiveMap* shed = nullptr);

  /// True while some queue is non-empty.
  bool scheduled() const { return !pending_.empty(); }
  /// The earliest cached due time over the non-empty queues (kNever when
  /// there are none). No flush_due before it acts, unless a shed directive
  /// is installed; it may be earlier than needed, never later.
  SimTime next_due() const { return next_due_; }

  /// Subscriber ids in canonical (ascending) order — the order flush work
  /// is settled in. Lazily rebuilt after subscribe/unsubscribe; the
  /// reference is invalidated by either.
  const std::vector<SubscriberId>& sorted_subscribers() const;

  /// Unconditionally flushes one subscriber (no-op if queue empty).
  void flush_subscriber(SubscriberId sub, SimTime now, FlushSink& sink, Stats& stats,
                        FlushReason reason = FlushReason::Forced);

  void flush_all(SimTime now, FlushSink& sink, Stats& stats);

  /// Visits (subscriber, mutable bounds, queue) — used by adaptive policies
  /// to retune bounds in place. Each visited queue's due time is re-derived
  /// from the bounds `fn` leaves.
  void for_each_subscriber(
      const std::function<void(SubscriberId, Bounds&, const SubscriberQueue&)>& fn);

  std::size_t total_queued() const;
  bool idle() const { return subs_.empty(); }

 private:
  static constexpr std::size_t kNotPending = std::numeric_limits<std::size_t>::max();

  struct Sub {
    Bounds bounds;
    SubscriberQueue queue;
    std::size_t slot = kNotPending;  ///< its entry on pending_, if non-empty
  };

  /// A non-empty queue and its cached due time (see next_due()).
  struct PendingEntry {
    SimTime due;
    SubscriberId sub;
    Sub* s;  ///< subs_ is node-based: stable until the id is unsubscribed
  };

  /// A queue take_due_core would act on at any `now`: too long for the
  /// snapshot threshold, or over its numerical bound.
  bool over_bound(const Sub& s) const {
    return (snapshot_threshold_ > 0 && s.queue.size() > snapshot_threshold_) ||
           s.queue.total_weight() > s.bounds.numerical;
  }
  /// The first time take_due_core acts on the non-empty queue in `s` with
  /// no shed directive: kDueNow if over_bound, else when the oldest entry
  /// reaches the staleness bound.
  SimTime due_of(const Sub& s) const {
    return over_bound(s) ? kDueNow : s.queue.oldest_created() + s.bounds.staleness;
  }
  /// Re-derives the due time of a pending queue (may move either way);
  /// next_due_ only moves earlier.
  void refresh_due(Sub& s);
  /// pending_ bookkeeping; the last removal resets next_due_ to kNever.
  void add_pending(SubscriberId sub, Sub& s);
  void remove_pending(Sub& s);

  /// Applies `shed`, then decides whether the queue in `s` is due at `now`
  /// and, if so, takes its contents into `p` (reset by the caller).
  void take_due_core(Sub& s, SimTime now, const ShedDirective& shed, PendingFlush& p);

  /// Accounts `p` and hands it to the sink (deliver or request_snapshot).
  /// No-op for Kind::None.
  void settle(SubscriberId sub, const PendingFlush& p, SimTime now, FlushSink& sink,
              Stats& stats);

  DyconitId id_;
  Bounds default_bounds_;
  std::unordered_map<SubscriberId, Sub> subs_;
  mutable std::vector<SubscriberId> sorted_subs_;
  mutable bool subs_dirty_ = true;

  /// Exactly the non-empty queues, in no particular order (Sub::slot is
  /// each one's index), each with its due time. Every path that changes
  /// what take_due_core would do — enqueue, subscribe, set_bounds,
  /// for_each_subscriber, the snapshot threshold — re-derives or lowers
  /// the due time; a take that empties a queue removes its entry.
  std::vector<PendingEntry> pending_;
  SimTime next_due_ = kNever;
  std::size_t snapshot_threshold_ = 0;
  /// This dyconit's slot in its DyconitSystem's due heap.
  friend class DyconitSystem;
  std::size_t schedule_pos_ = kNotPending;

  // Flush-round scratch, reused so flush_due stays allocation-free in
  // steady state: round_ holds the queues being visited, take_scratch_
  // circulates update-vector capacity with the queues, views_scratch_
  // backs settle's borrowed views.
  struct Visit {
    SubscriberId sub;
    Sub* s;
    const ShedDirective* shed;
  };
  std::vector<Visit> round_;
  PendingFlush take_scratch_;
  std::vector<FlushSink::FlushedUpdate> views_scratch_;
};

}  // namespace dyconits::dyconit
