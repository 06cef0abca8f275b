#include "dyconit/dyconit.h"

#include <algorithm>

namespace dyconits::dyconit {

namespace {

// Folds one flush into the aggregate counters. weight_delivered is a
// floating-point sum, so callers settle flushes in canonical order to keep
// it reproducible (FP addition is not associative).
void account_flush(const PendingFlush& p, SimTime now, Stats& stats) {
  switch (p.reason) {
    case FlushReason::Staleness: ++stats.flushes_staleness; break;
    case FlushReason::Numerical: ++stats.flushes_numerical; break;
    case FlushReason::Forced: ++stats.flushes_forced; break;
  }
  for (const Update& u : p.updates) {
    ++stats.delivered;
    stats.weight_delivered += u.weight;
    if (stats.record_staleness) {
      stats.staleness_ms.push_back(
          static_cast<double>((now - u.created).count_micros()) / 1000.0);
    }
  }
}

}  // namespace

bool SubscriberQueue::enqueue(const Update& u) {
  total_weight_ += u.weight;
  if (Update* slot = q_.find(u.coalesce_key)) {
    // Last write wins: replace the payload in place, keep the original
    // position and creation time, accumulate the weight.
    slot->msg = u.msg;
    slot->weight += u.weight;
    return true;
  }
  q_.push(u);
  return false;
}

std::size_t SubscriberQueue::shed_entity_moves(double* weight) {
  double removed_weight = 0.0;
  const std::size_t removed = q_.remove_if([&](const Update& u) {
    if (!is_entity_move_key(u.coalesce_key)) return false;
    removed_weight += u.weight;
    return true;
  });
  if (removed == 0) return 0;
  total_weight_ -= removed_weight;
  if (weight != nullptr) *weight += removed_weight;
  return removed;
}

Dyconit::Dyconit(DyconitId id, Bounds default_bounds)
    : id_(id), default_bounds_(default_bounds) {}

void Dyconit::refresh_due(Sub& s) {
  PendingEntry& e = pending_[s.slot];
  e.due = due_of(s);
  next_due_ = std::min(next_due_, e.due);
}

void Dyconit::add_pending(SubscriberId sub, Sub& s) {
  s.slot = pending_.size();
  pending_.push_back({due_of(s), sub, &s});
  next_due_ = std::min(next_due_, pending_.back().due);
}

void Dyconit::remove_pending(Sub& s) {
  const std::size_t i = s.slot;
  pending_[i] = pending_.back();
  pending_[i].s->slot = i;
  pending_.pop_back();
  s.slot = kNotPending;
  if (pending_.empty()) next_due_ = kNever;
}

void Dyconit::subscribe(SubscriberId sub, Bounds b) {
  Sub& s = subs_[sub];  // creates if absent, keeps existing queue if present
  s.bounds = b;
  if (s.slot != kNotPending) refresh_due(s);
  subs_dirty_ = true;
}

bool Dyconit::unsubscribe(SubscriberId sub, Stats& stats) {
  const auto it = subs_.find(sub);
  if (it == subs_.end()) return false;
  stats.dropped_unsubscribe += it->second.queue.size();
  // next_due_ keeps the removed queue's due time; that is early, never late.
  if (it->second.slot != kNotPending) remove_pending(it->second);
  subs_.erase(it);
  subs_dirty_ = true;
  return true;
}

const std::vector<SubscriberId>& Dyconit::sorted_subscribers() const {
  if (subs_dirty_) {
    sorted_subs_.clear();
    sorted_subs_.reserve(subs_.size());
    for (const auto& [sub, s] : subs_) sorted_subs_.push_back(sub);
    std::sort(sorted_subs_.begin(), sorted_subs_.end());
    subs_dirty_ = false;
  }
  return sorted_subs_;
}

void Dyconit::set_bounds(SubscriberId sub, Bounds b) {
  const auto it = subs_.find(sub);
  if (it == subs_.end() || it->second.bounds == b) return;
  it->second.bounds = b;
  if (it->second.slot != kNotPending) refresh_due(it->second);
}

void Dyconit::set_snapshot_threshold(std::size_t n) {
  if (n == snapshot_threshold_) return;
  snapshot_threshold_ = n;
  for (const PendingEntry& e : pending_) refresh_due(*e.s);
}

Bounds Dyconit::bounds_of(SubscriberId sub) const {
  const auto it = subs_.find(sub);
  return it == subs_.end() ? default_bounds_ : it->second.bounds;
}

bool Dyconit::enqueue(const Update& u, SubscriberId exclude, Stats& stats) {
  if (subs_.empty() || (subs_.size() == 1 && subs_.count(exclude) > 0)) {
    ++stats.dropped_no_subscriber;
    return false;
  }
  const SimTime before = next_due_;
  for (auto& [sub, s] : subs_) {
    if (sub == exclude) continue;
    ++stats.enqueued;
    if (s.queue.enqueue(u)) ++stats.coalesced;
    if (s.slot == kNotPending) {
      add_pending(sub, s);
    } else if (pending_[s.slot].due != kDueNow && over_bound(s)) {
      // The front (and so the staleness due time) is unchanged; only the
      // length and the weight grew.
      pending_[s.slot].due = kDueNow;
      next_due_ = kDueNow;
    }
  }
  return next_due_ < before;
}

void Dyconit::take_due_core(Sub& s, SimTime now, const ShedDirective& shed,
                            PendingFlush& p) {
  std::size_t snapshot_threshold = snapshot_threshold_;
  if (shed.shed_entity_moves && !s.queue.empty()) {
    p.shed = s.queue.shed_entity_moves(&p.shed_weight);
  }
  if (shed.snapshot_threshold_override > 0 &&
      (snapshot_threshold == 0 || shed.snapshot_threshold_override < snapshot_threshold)) {
    snapshot_threshold = shed.snapshot_threshold_override;
  }
  if (snapshot_threshold > 0 && s.queue.size() > snapshot_threshold) {
    // Too far behind: a fresh snapshot is cheaper than the delta flood.
    p.kind = PendingFlush::Kind::Snapshot;
    p.dropped = s.queue.size();
    s.queue.drop_all();
    return;
  }
  if (s.queue.violates(s.bounds, now)) {
    p.kind = PendingFlush::Kind::Flush;
    p.reason = s.queue.violation_reason(s.bounds, now);
    s.queue.take_into(p.updates);
  }
}

void Dyconit::settle(SubscriberId sub, const PendingFlush& p, SimTime now,
                     FlushSink& sink, Stats& stats) {
  if (p.shed > 0) {
    stats.shed_updates += p.shed;
    stats.shed_weight += p.shed_weight;
  }
  if (p.kind == PendingFlush::Kind::Snapshot) {
    stats.dropped_snapshot += p.dropped;
    ++stats.snapshots_requested;
    sink.request_snapshot(sub, id_);
    return;
  }
  if (p.kind != PendingFlush::Kind::Flush || p.updates.empty()) return;
  account_flush(p, now, stats);
  std::vector<FlushSink::FlushedUpdate>& flushed = views_scratch_;
  flushed.clear();
  flushed.reserve(p.updates.size());
  for (const Update& u : p.updates) flushed.push_back({&u.msg, u.created, u.weight});
  sink.deliver(sub, flushed);
}

void Dyconit::flush_due(SimTime now, FlushSink& sink, Stats& stats,
                        const ShedDirectiveMap* shed) {
  static const ShedDirective kNoShed;
  // Visit the queues whose due time has come, plus every queue of a
  // subscriber with a shed directive; the rest would do nothing.
  for (const PendingEntry& e : pending_) {
    const ShedDirective* d = &kNoShed;
    if (shed != nullptr) {
      const auto it = shed->find(e.sub);
      if (it != shed->end()) d = &it->second;
    }
    if (e.due <= now || d != &kNoShed) round_.push_back({e.sub, e.s, d});
  }
  // Canonical (ascending subscriber id) order: the wire stream and the
  // weight_delivered sum depend on it. Sink callbacks must not touch this
  // dyconit's subscription set or enqueue into it.
  std::sort(round_.begin(), round_.end(),
            [](const Visit& a, const Visit& b) { return a.sub < b.sub; });
  for (const Visit& v : round_) {
    ++stats.queues_visited;
    // take_scratch_ is reused across pairs (and ticks): take_into swaps its
    // capacity back into the queue, so the steady-state loop performs no
    // vector allocations.
    PendingFlush& p = take_scratch_;
    p.reset();
    take_due_core(*v.s, now, *v.shed, p);
    if (p.kind != PendingFlush::Kind::None || p.shed > 0) {
      settle(v.sub, p, now, sink, stats);
    }
    if (v.s->queue.empty()) {
      remove_pending(*v.s);
    } else {
      pending_[v.s->slot].due = due_of(*v.s);
    }
  }
  round_.clear();
  next_due_ = kNever;
  for (const PendingEntry& e : pending_) next_due_ = std::min(next_due_, e.due);
}

void Dyconit::flush_subscriber(SubscriberId sub, SimTime now, FlushSink& sink,
                               Stats& stats, FlushReason reason) {
  const auto it = subs_.find(sub);
  if (it == subs_.end() || it->second.queue.empty()) return;
  PendingFlush p;
  p.kind = PendingFlush::Kind::Flush;
  p.reason = reason;
  it->second.queue.take_into(p.updates);
  remove_pending(it->second);
  settle(sub, p, now, sink, stats);
}

void Dyconit::flush_all(SimTime now, FlushSink& sink, Stats& stats) {
  for (const SubscriberId sub : sorted_subscribers()) {
    flush_subscriber(sub, now, sink, stats, FlushReason::Forced);
  }
}

void Dyconit::for_each_subscriber(
    const std::function<void(SubscriberId, Bounds&, const SubscriberQueue&)>& fn) {
  for (auto& [sub, s] : subs_) {
    const Bounds before = s.bounds;
    fn(sub, s.bounds, s.queue);
    if (s.slot != kNotPending && !(s.bounds == before)) refresh_due(s);
  }
}

std::size_t Dyconit::total_queued() const {
  std::size_t n = 0;
  for (const auto& [sub, s] : subs_) n += s.queue.size();
  return n;
}

}  // namespace dyconits::dyconit
