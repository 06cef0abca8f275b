// DyconitSystem — the middleware facade the game server talks to.
//
// The integration surface is deliberately small (the paper's "thin
// middleware" claim): the server (1) subscribes/unsubscribes players as
// their interest sets change, (2) routes every state update through
// update(), and (3) calls tick() once per game tick with a sink that packs
// flushed updates into protocol frames. Everything else — queues, bounds
// enforcement, coalescing — is internal.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dyconit/dyconit.h"
#include "util/sim_time.h"

namespace dyconits::dyconit {

/// A held subscription (DyconitSystem::subscribe's result): lets its holder
/// retune the subscriber's bounds with no lookup. Valid until the
/// subscription ends (unsubscribe, unsubscribe_all); a dyconit with a
/// subscriber is never garbage-collected.
struct Subscription {
  Dyconit* dyconit = nullptr;
  Dyconit::Sub* sub = nullptr;
};

class DyconitSystem {
 public:
  explicit DyconitSystem(const SimClock& clock) : clock_(clock) {}

  /// Creates the dyconit on first use. `default_bounds` only applies at
  /// creation; existing dyconits keep their configuration.
  Dyconit& get_or_create(DyconitId id, Bounds default_bounds = Bounds::zero());
  Dyconit* find(DyconitId id);
  const Dyconit* find(DyconitId id) const;

  Subscription subscribe(DyconitId id, SubscriberId sub, Bounds b);
  void unsubscribe(DyconitId id, SubscriberId sub);
  /// Drops every subscription of `sub` (player disconnect).
  void unsubscribe_all(SubscriberId sub);
  bool is_subscribed(DyconitId id, SubscriberId sub) const;
  /// Retunes a subscription through its handle (subscribe's result): no
  /// hash lookups.
  void set_bounds(const Subscription& h, Bounds b);

  /// Queues an update for all subscribers of `id` except `exclude`. If the
  /// dyconit does not exist it is created with zero default bounds (and the
  /// update, having no subscribers, is dropped and counted).
  void update(DyconitId id, Update u, SubscriberId exclude = kNoSubscriber);

  /// One middleware tick: flushes every (dyconit, subscriber) queue that
  /// violates its bounds at clock.now() in canonical (dyconit, subscriber)
  /// order, then garbage-collects dyconits with no subscribers. Only
  /// queues whose cached due time has come are visited (all of a
  /// subscriber's queues while it has a shed directive), and only dyconits
  /// created or unsubscribed from since the last tick are GC-checked
  /// (DESIGN.md §3), so the cost follows the queues that flush, not the
  /// pending ones or the subscriptions.
  void tick(FlushSink& sink);

  /// Forced full flush (server shutdown, snapshot, tests).
  void flush_all(FlushSink& sink);
  /// Forced flush of everything owed to one subscriber.
  void flush_subscriber(SubscriberId sub, FlushSink& sink);

  /// Recovery handshake (DESIGN.md §8): for every dyconit `sub` is
  /// subscribed to, flush the owed queue, then ask the game for an
  /// authoritative snapshot (FlushSink::request_snapshot) so state lost on
  /// the wire is replayed. The subscriber's queues are empty afterwards —
  /// it is provably caught up as far as the middleware is concerned.
  void resync_subscriber(SubscriberId sub, FlushSink& sink);

  /// Subscriptions and updates must go through the methods above, not
  /// through the Dyconit reference: they keep tick()'s flush schedule and
  /// GC candidates. Bounds `fn` changes (Dyconit::for_each_subscriber)
  /// re-key the schedule when it returns.
  void for_each(const std::function<void(Dyconit&)>& fn);

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }
  void set_record_staleness(bool on) { stats_.record_staleness = on; }

  /// Queues longer than this are dropped at tick() in favor of a snapshot
  /// (FlushSink::request_snapshot). 0 disables.
  void set_snapshot_threshold(std::size_t n);
  std::size_t snapshot_threshold() const { return snapshot_threshold_; }

  /// Overload control (DESIGN.md §10): installs the shed directive applied
  /// to every queue owed to `sub` at subsequent tick()s, until cleared. A
  /// directive with any()==false clears.
  void set_shed_directive(SubscriberId sub, ShedDirective d);
  void clear_shed_directives() { shed_.clear(); }
  /// The directive for `sub`, or nullptr if none installed.
  const ShedDirective* shed_directive(SubscriberId sub) const;

  const SimClock& clock() const { return clock_; }
  std::size_t dyconit_count() const { return dyconits_.size(); }
  std::size_t total_queued() const;

  /// Asserts the schedule and shared-queue invariants (DESIGN.md §3):
  /// every due-heap key equals its dyconit's next_due(), exactly the
  /// dyconits with pending queues are on the heap (so no GC'd one is), and
  /// every dyconit's Dyconit::check_invariants holds. Compiles to nothing
  /// under NDEBUG.
  void check_invariants() const;

 private:
  /// Dyconits in canonical (DyconitId::operator<) order; lazily rebuilt
  /// after create/GC. Pointers stay valid across rebuilds (unique_ptr).
  const std::vector<Dyconit*>& sorted_dyconits();
  /// Erases the candidates that are idle. An idle dyconit has no queue, so
  /// it is not on the due heap.
  void gc();

  /// Puts `d` where its schedule belongs: on the due heap keyed by
  /// next_due() while it has pending queues, off it otherwise. Called
  /// after every operation that can change either.
  void reschedule(Dyconit& d);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  const SimClock& clock_;
  std::unordered_map<DyconitId, std::unique_ptr<Dyconit>> dyconits_;
  Stats stats_;
  std::size_t snapshot_threshold_ = 0;
  ShedDirectiveMap shed_;

  mutable std::vector<Dyconit*> sorted_cache_;
  mutable bool dyconits_dirty_ = true;

  /// The due heap: every dyconit with pending queues, in a binary min-heap
  /// on next_due(). Each dyconit records its slot (Dyconit::schedule_pos_),
  /// so a re-key is O(log n) and tick() reads the due ones off the top.
  /// round_ is the tick's scratch; tick() sorts it into canonical order.
  struct Scheduled {
    SimTime due;
    Dyconit* d;
  };
  std::vector<Scheduled> schedule_;
  std::vector<Dyconit*> round_;
  /// Dyconits that may have become idle since the last gc(): created, or
  /// lost their last subscriber. May hold duplicates and erased ids.
  std::vector<DyconitId> gc_candidates_;
};

#ifdef NDEBUG
inline void DyconitSystem::check_invariants() const {}
#else
inline void DyconitSystem::check_invariants() const {
  std::size_t scheduled = 0;
  for (const auto& [id, d] : dyconits_) {
    d->check_invariants();
    if (!d->scheduled()) {
      assert(d->schedule_pos_ == Dyconit::kNotPending && "idle dyconit is off the heap");
      continue;
    }
    ++scheduled;
    const std::size_t pos = d->schedule_pos_;
    assert(pos < schedule_.size() && schedule_[pos].d == d.get() && "heap slot");
    assert(schedule_[pos].due == d->next_due() && "heap key equals next_due()");
    assert((pos == 0 || schedule_[(pos - 1) / 2].due <= schedule_[pos].due) && "heap order");
  }
  // Each scheduled live dyconit owns a distinct slot; equal counts leave no
  // slot for a dyconit the collector erased.
  assert(scheduled == schedule_.size() && "no GC'd dyconit is scheduled");
  (void)scheduled;
}
#endif

}  // namespace dyconits::dyconit
