// A single dyconit: one consistency unit with a set of subscribers, each
// with its own inconsistency bounds, whose outgoing updates wait in queues
// shared by the subscribers they are identical for.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
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
  /// Work counters (DESIGN.md §3). queues_visited: shared queues examined
  /// by flush_due. A queue is examined once per round, however many of its
  /// members it settles, and only once its due time (the earliest of its
  /// members') has come or a member has a shed directive; so it follows the
  /// distinct queues that flush, snapshot or shed, not the pending ones or
  /// their subscribers. gc_checked: dyconits examined by the garbage
  /// collector; it follows unsubscribes. queue_appends: updates appended to
  /// a shared queue, one per live queue per update however many
  /// subscribers share it. queue_splits: private copies made when a member
  /// of a shared queue must diverge (it originated the update, or a shed
  /// directive removes entries from its view). batches: distinct flushed
  /// contents; members that take the same contents share one batch id
  /// (FlushSink::deliver), which is `batches` when it was assigned.
  std::uint64_t queues_visited = 0;
  std::uint64_t gc_checked = 0;
  std::uint64_t queue_appends = 0;
  std::uint64_t queue_splits = 0;
  std::uint64_t batches = 0;

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

/// The outgoing updates of the subscribers that share one queue: the
/// shared util::CoalescingQueue plus the dyconit policy on top — the weight
/// sum and the bound check.
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
  /// True if shed_entity_moves would remove anything.
  bool has_entity_moves() const;

  const Queue& peek() const { return q_; }

 private:
  Queue q_;
  double total_weight_ = 0.0;
};

class DyconitSystem;

/// A dyconit: one consistency unit with a set of subscribers, each with its
/// own inconsistency bounds. Pending updates live in shared queues
/// (DESIGN.md §3): subscribers whose queues would hold exactly the same
/// updates share one SubscriberQueue, so an update costs one append per
/// distinct queue state, not one per subscriber. A subscriber with nothing
/// queued is idle. Bounds and due checks stay per subscriber; a member
/// leaves its shared queue only when its private queue would differ.
class Dyconit {
 public:
  /// Due-time sentinels: a queue due at kDueNow is due at any flush_due;
  /// next_due() is kNever while nothing is pending.
  static constexpr SimTime kDueNow{std::numeric_limits<std::int64_t>::min()};
  static constexpr SimTime kNever{std::numeric_limits<std::int64_t>::max()};

  /// One subscriber's state: its bounds and which shared queue it is a
  /// member of. A reference stays valid until the subscriber unsubscribes,
  /// so a holder can retune it without a lookup (set_bounds(Sub&, Bounds)).
  struct Sub;

  Dyconit(DyconitId id, Bounds default_bounds);

  DyconitId id() const { return id_; }

  /// Bounds applied to subscribers that don't specify their own.
  Bounds default_bounds() const { return default_bounds_; }
  void set_default_bounds(Bounds b) { default_bounds_ = b; }

  /// Subscribing twice updates the bounds (and the queue's due time) and
  /// keeps the queue. Returns the subscriber's state.
  Sub& subscribe(SubscriberId sub, Bounds b);
  Sub& subscribe(SubscriberId sub) { return subscribe(sub, default_bounds_); }

  /// Unsubscribes and drops any queued updates (counted in stats). Returns
  /// false if `sub` was not subscribed.
  bool unsubscribe(SubscriberId sub, Stats& stats);

  bool subscribed(SubscriberId sub) const { return subs_.count(sub) > 0; }
  std::size_t subscriber_count() const { return subs_.size(); }

  /// Retunes a subscriber through its state (subscribe's result); a queue
  /// it shares re-derives its due time.
  void set_bounds(Sub& s, Bounds b);
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

  /// Flushes every subscriber whose queue violates its bounds at `now`, in
  /// canonical (ascending subscriber id) order, or drops the queue for a
  /// snapshot (set_snapshot_threshold). `shed` (optional) applies
  /// per-subscriber overload directives before the due check. Examines
  /// only the shared queues whose cached due time has come or which have a
  /// member with a directive (DESIGN.md §3): the due time is never later
  /// than the first `now` at which a member's visit would act, so skipping
  /// the others changes no sink call and no Stats field but
  /// queues_visited.
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

  /// Visits (subscriber, mutable bounds, its view of the queue) — used by
  /// adaptive policies to retune bounds in place. Each visited queue's due
  /// time is re-derived from the bounds `fn` leaves.
  void for_each_subscriber(
      const std::function<void(SubscriberId, Bounds&, const SubscriberQueue&)>& fn);

  /// Updates owed over all subscribers (a shared queue counts once per
  /// member).
  std::size_t total_queued() const;
  bool idle() const { return subs_.empty(); }

  /// Asserts the shared-queue invariants (DESIGN.md §3); nothing under
  /// NDEBUG. Call between operations, not from a sink callback.
  void check_invariants() const;

 private:
  static constexpr std::size_t kNotPending = std::numeric_limits<std::size_t>::max();
  /// Released queues are kept for reuse, at most one per idle subscriber
  /// (each may open a queue) and at least kMinSpares: a dyconit then holds
  /// no more queue storage than one private queue per subscriber would,
  /// and a subscriber that comes due and reopens a queue does not regrow
  /// its storage from empty.
  static constexpr std::size_t kMinSpares = 2;

  struct SharedQueue;
  struct Member {
    SubscriberId sub;
    Sub* s;
  };

  /// A take's outcome for one subscriber, not yet accounted or delivered.
  struct Take {
    enum class Kind : std::uint8_t {
      None = 0,      ///< nothing due
      Flush = 1,     ///< the contents of `queue` must be delivered
      Snapshot = 2,  ///< the view was dropped; ask the sink for a snapshot
    };
    Kind kind = Kind::None;
    FlushReason reason = FlushReason::Forced;
    const SubscriberQueue* queue = nullptr;  ///< Flush: contents in enqueue order
    std::uint64_t batch = 0;                 ///< Flush: the contents' batch id
    std::size_t dropped = 0;  ///< Snapshot: updates discarded with the view
    /// Updates (and weight) removed by a ShedDirective in this take; folded
    /// into Stats when the take settles.
    std::size_t shed = 0;
    double shed_weight = 0.0;
  };

  /// True if a queue holding `q` is past the snapshot threshold or the
  /// numerical bound `numerical`: take_due_core acts on it at any `now`.
  bool over_bound(const SubscriberQueue& q, double numerical) const {
    return (snapshot_threshold_ > 0 && q.size() > snapshot_threshold_) ||
           q.total_weight() > numerical;
  }
  /// The first time take_due_core acts on a non-empty `q` for a subscriber
  /// with bounds `b` and no shed directive.
  SimTime due_of(const SubscriberQueue& q, const Bounds& b) const {
    return over_bound(q, b.numerical) ? kDueNow : q.oldest_created() + b.staleness;
  }

  /// A spare (or new) empty queue, listed on pending_; the caller fills it
  /// and sets its due time.
  SharedQueue& open();
  /// Unlists an empty-membered queue and keeps it as a spare.
  void release(SharedQueue& g);
  /// Removes `s` from its queue's members (or from idle_), releasing a
  /// queue left without members, and returns its entry.
  Member unlink(Sub& s);
  /// `s` stops sharing its queue and goes idle (its view becomes empty).
  void leave(Sub& s);
  /// Gives `s` a private copy of its shared queue; returns the copy.
  SharedQueue& split(Sub& s, Stats& stats);
  /// Re-derives the members' minimum bounds and the due time of a live
  /// queue (it may move either way); next_due_ only moves earlier.
  void refresh(SharedQueue& g);
  /// Refreshes the live queues collected on touched_ and clears it.
  void refresh_touched();
  /// Frees spares beyond the bound above. Called where no released queue is
  /// still referenced (the end of a round, unsubscribe, flush_subscriber).
  void trim_spares();
  /// The batch id of `g`'s current contents, assigned on first take.
  std::uint64_t batch_of(SharedQueue& g, Stats& stats);

  /// Applies `shed` to the view of `s` (splitting it off first if the shed
  /// removes anything and the queue is shared), then decides whether the
  /// view is due at `now`. A snapshot drop makes `s` idle here; a flush
  /// leaves that to the caller, after the sink has read the contents.
  void take_due_core(Sub& s, SimTime now, const ShedDirective& shed, Take& p, Stats& stats);

  /// Accounts `p` and hands it to the sink (deliver or request_snapshot).
  /// No-op for Kind::None.
  void settle(SubscriberId sub, const Take& p, SimTime now, FlushSink& sink, Stats& stats);

  DyconitId id_;
  Bounds default_bounds_;
  std::unordered_map<SubscriberId, Sub> subs_;
  mutable std::vector<SubscriberId> sorted_subs_;
  mutable bool subs_dirty_ = true;

  /// The live shared queues, exactly the non-empty ones, in no particular
  /// order (SharedQueue::slot is each one's index). Every member of one
  /// holds exactly its contents as its view; idle_ lists the subscribers
  /// whose view is empty. spare_ keeps released queues for reuse (up to
  /// the bound at kMinSpares), so a queue's storage outlives its contents.
  std::vector<std::unique_ptr<SharedQueue>> pending_;
  std::vector<std::unique_ptr<SharedQueue>> spare_;
  std::vector<Member> idle_;
  SimTime next_due_ = kNever;
  std::size_t snapshot_threshold_ = 0;
  /// This dyconit's slot in its DyconitSystem's due heap.
  friend class DyconitSystem;
  std::size_t schedule_pos_ = kNotPending;

  // Round scratch, reused so flush_due stays allocation-free in steady
  // state: round_ holds the subscribers being visited, touched_ the queues
  // whose members or contents the round changed, views_scratch_ backs
  // settle's borrowed views (built once per batch).
  struct Visit {
    SubscriberId sub;
    Sub* s;
    const ShedDirective* shed;
  };
  std::vector<Visit> round_;
  std::vector<SharedQueue*> touched_;
  std::vector<FlushSink::FlushedUpdate> views_scratch_;
  std::uint64_t views_batch_ = 0;
};

struct Dyconit::Sub {
  Bounds bounds;
  SharedQueue* queue = nullptr;  ///< the queue it shares; nullptr while idle
  std::size_t slot = 0;          ///< its index in queue->members, or in idle_
};

/// One non-empty queue and the subscribers that share it. Every member's
/// view is the whole of `q`; `due` is the earliest member due time, derived
/// from the members' smallest bounds (refresh()). Line-aligned, with the
/// fields an enqueue touches first, so an append reads two cache lines.
struct alignas(64) Dyconit::SharedQueue {
  SubscriberQueue q;
  std::vector<Member> members;
  double min_numerical = 0.0;
  SimTime due = kNever;
  /// Batch id of the current contents once a member took them; 0 until
  /// then, and again after any change to the contents.
  std::uint64_t batch = 0;
  SimDuration min_staleness;
  std::size_t slot = 0;  ///< its index in pending_
};

#ifdef NDEBUG
inline void Dyconit::check_invariants() const {}
#else
inline void Dyconit::check_invariants() const {
  std::size_t members = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const SharedQueue& g = *pending_[i];
    assert(g.slot == i && "pending_ slot");
    assert(!g.q.empty() && "pending_ holds exactly the non-empty queues");
    assert(!g.members.empty() && "a live queue has members");
    assert(next_due_ <= g.due && "next_due() is the earliest queue due time");
    for (std::size_t j = 0; j < g.members.size(); ++j) {
      const Member& m = g.members[j];
      assert(m.s->queue == &g && m.s->slot == j && "member points at its queue");
      assert(&subs_.at(m.sub) == m.s && "member is subscribed");
      assert(g.due <= due_of(g.q, m.s->bounds) && "queue due no later than a member's");
    }
    members += g.members.size();
  }
  for (std::size_t j = 0; j < idle_.size(); ++j) {
    const Member& m = idle_[j];
    assert(m.s->queue == nullptr && m.s->slot == j && "idle subscriber has an empty view");
    assert(&subs_.at(m.sub) == m.s && "idle entry is subscribed");
  }
  assert(members + idle_.size() == subs_.size() && "every subscriber is listed once");
  for (const auto& g : spare_) {
    assert(g->q.empty() && g->members.empty() && "spares are empty");
  }
  assert((!pending_.empty() || next_due_ == kNever) && "nothing pending: next_due() is kNever");
  (void)members;
}
#endif

}  // namespace dyconits::dyconit
