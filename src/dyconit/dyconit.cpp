#include "dyconit/dyconit.h"

#include <algorithm>

namespace dyconits::dyconit {

namespace {

// Folds one flush into the aggregate counters. weight_delivered is a
// floating-point sum, so callers settle flushes in canonical order to keep
// it reproducible (FP addition is not associative).
void account_flush(const SubscriberQueue& q, FlushReason reason, SimTime now, Stats& stats) {
  switch (reason) {
    case FlushReason::Staleness: ++stats.flushes_staleness; break;
    case FlushReason::Numerical: ++stats.flushes_numerical; break;
    case FlushReason::Forced: ++stats.flushes_forced; break;
  }
  const SubscriberQueue::Queue& items = q.peek();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Update& u = items[i];
    ++stats.delivered;
    stats.weight_delivered += u.weight;
    if (stats.record_staleness) {
      stats.staleness_ms.push_back(
          static_cast<double>((now - u.created).count_micros()) / 1000.0);
    }
  }
}

/// Removes entry `i` of a member list by moving the last entry into its
/// place (and telling it its new slot); returns the removed entry.
template <typename Member>
Member swap_remove(std::vector<Member>& list, std::size_t i) {
  const Member m = list[i];
  if (i + 1 != list.size()) {
    list[i] = list.back();
    list[i].s->slot = i;
  }
  list.pop_back();
  return m;
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

bool SubscriberQueue::has_entity_moves() const {
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (is_entity_move_key(q_[i].coalesce_key)) return true;
  }
  return false;
}

Dyconit::Dyconit(DyconitId id, Bounds default_bounds)
    : id_(id), default_bounds_(default_bounds) {}

Dyconit::SharedQueue& Dyconit::open() {
  std::unique_ptr<SharedQueue> g;
  if (spare_.empty()) {
    g = std::make_unique<SharedQueue>();
  } else {
    g = std::move(spare_.back());
    spare_.pop_back();
  }
  g->slot = pending_.size();
  pending_.push_back(std::move(g));
  return *pending_.back();
}

void Dyconit::release(SharedQueue& g) {
  g.q.drop_all();
  g.batch = 0;
  const std::size_t i = g.slot;
  spare_.push_back(std::move(pending_[i]));
  if (i + 1 != pending_.size()) {
    pending_[i] = std::move(pending_.back());
    pending_[i]->slot = i;
  }
  pending_.pop_back();
  if (pending_.empty()) next_due_ = kNever;
}

Dyconit::Member Dyconit::unlink(Sub& s) {
  if (s.queue == nullptr) return swap_remove(idle_, s.slot);
  SharedQueue& g = *s.queue;
  s.queue = nullptr;
  const Member m = swap_remove(g.members, s.slot);
  if (g.members.empty()) release(g);
  return m;
}

void Dyconit::leave(Sub& s) {
  const Member m = unlink(s);
  s.slot = idle_.size();
  idle_.push_back(m);
}

Dyconit::SharedQueue& Dyconit::split(Sub& s, Stats& stats) {
  SharedQueue& from = *s.queue;
  SharedQueue& g = open();
  g.q = from.q;
  g.members.push_back(unlink(s));  // `from` keeps its other members
  s.queue = &g;
  s.slot = 0;
  refresh(g);
  refresh(from);
  ++stats.queue_splits;
  return g;
}

void Dyconit::refresh(SharedQueue& g) {
  g.min_staleness = g.members.front().s->bounds.staleness;
  g.min_numerical = g.members.front().s->bounds.numerical;
  for (const Member& m : g.members) {
    g.min_staleness = std::min(g.min_staleness, m.s->bounds.staleness);
    g.min_numerical = std::min(g.min_numerical, m.s->bounds.numerical);
  }
  g.due = due_of(g.q, {g.min_staleness, g.min_numerical});
  next_due_ = std::min(next_due_, g.due);
}

void Dyconit::refresh_touched() {
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  for (SharedQueue* g : touched_) {
    if (!g->members.empty()) refresh(*g);
  }
  touched_.clear();
}

void Dyconit::trim_spares() {
  const std::size_t keep = std::max(kMinSpares, idle_.size());
  if (spare_.size() > keep) spare_.resize(keep);
}

std::uint64_t Dyconit::batch_of(SharedQueue& g, Stats& stats) {
  if (g.batch == 0) g.batch = ++stats.batches;
  return g.batch;
}

Dyconit::Sub& Dyconit::subscribe(SubscriberId sub, Bounds b) {
  const auto [it, inserted] = subs_.try_emplace(sub);
  Sub& s = it->second;
  if (!inserted) {  // keeps the queue
    set_bounds(s, b);
    return s;
  }
  s.bounds = b;
  s.slot = idle_.size();
  idle_.push_back({sub, &s});
  subs_dirty_ = true;
  return s;
}

bool Dyconit::unsubscribe(SubscriberId sub, Stats& stats) {
  const auto it = subs_.find(sub);
  if (it == subs_.end()) return false;
  Sub& s = it->second;
  SharedQueue* g = s.queue;
  if (g != nullptr) stats.dropped_unsubscribe += g->q.size();
  unlink(s);
  // next_due_ keeps the queue's earlier due time; that is early, never late.
  if (g != nullptr && !g->members.empty()) refresh(*g);
  subs_.erase(it);
  subs_dirty_ = true;
  trim_spares();
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

void Dyconit::set_bounds(Sub& s, Bounds b) {
  if (s.bounds == b) return;
  const Bounds old = s.bounds;
  s.bounds = b;
  if (s.queue == nullptr) return;
  SharedQueue& g = *s.queue;
  // Loosening a bound that holds the queue's minimum re-derives the minima;
  // anything else can only lower them.
  if ((old.staleness < b.staleness && old.staleness == g.min_staleness) ||
      (old.numerical < b.numerical && old.numerical == g.min_numerical)) {
    refresh(g);
    return;
  }
  g.min_staleness = std::min(g.min_staleness, b.staleness);
  g.min_numerical = std::min(g.min_numerical, b.numerical);
  g.due = due_of(g.q, {g.min_staleness, g.min_numerical});
  next_due_ = std::min(next_due_, g.due);
}

void Dyconit::set_snapshot_threshold(std::size_t n) {
  if (n == snapshot_threshold_) return;
  snapshot_threshold_ = n;
  for (const auto& g : pending_) refresh(*g);
}

Bounds Dyconit::bounds_of(SubscriberId sub) const {
  const auto it = subs_.find(sub);
  return it == subs_.end() ? default_bounds_ : it->second.bounds;
}

bool Dyconit::enqueue(const Update& u, SubscriberId exclude, Stats& stats) {
  Sub* ex = nullptr;
  if (exclude != kNoSubscriber) {
    const auto it = subs_.find(exclude);
    if (it != subs_.end()) ex = &it->second;
  }
  if (subs_.size() == (ex != nullptr ? 1u : 0u)) {
    ++stats.dropped_no_subscriber;
    return false;
  }
  const SimTime before = next_due_;
  // Each queue takes the update once on behalf of all its members. The
  // counts are summed locally and folded into stats once.
  std::uint64_t enqueued = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t appends = 0;
  auto append = [&](SharedQueue& g) {
    const std::uint64_t members = g.members.size();
    enqueued += members;
    if (g.q.enqueue(u)) coalesced += members;
    ++appends;
    if (g.batch != 0) g.batch = 0;
  };
  // The originator's private queue would not get `u`: if it shares a
  // queue, it diverges here and keeps a copy of the contents so far.
  const SharedQueue* skip = nullptr;
  if (ex != nullptr && ex->queue != nullptr) {
    skip = ex->queue->members.size() > 1 ? &split(*ex, stats) : ex->queue;
  }
  for (const auto& gp : pending_) {
    SharedQueue& g = *gp;
    if (&g == skip) continue;
    append(g);
    if (g.due != kDueNow && over_bound(g.q, g.min_numerical)) {
      // The front (and so the staleness due time) is unchanged; only the
      // length and the weight grew.
      g.due = kDueNow;
      next_due_ = kDueNow;
    }
  }
  // Every idle subscriber but the originator joins one new queue.
  const bool ex_idle = ex != nullptr && ex->queue == nullptr;
  if (idle_.size() > (ex_idle ? 1u : 0u)) {
    SharedQueue& g = open();
    g.members.swap(idle_);
    if (ex_idle) {
      idle_.push_back(swap_remove(g.members, ex->slot));
      ex->slot = 0;
    }
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      g.members[i].s->queue = &g;
      g.members[i].s->slot = i;
    }
    append(g);
    refresh(g);
  }
  stats.enqueued += enqueued;
  stats.coalesced += coalesced;
  stats.queue_appends += appends;
  return next_due_ < before;
}

void Dyconit::take_due_core(Sub& s, SimTime now, const ShedDirective& shed, Take& p,
                            Stats& stats) {
  SharedQueue* g = s.queue;
  if (shed.shed_entity_moves && g->q.has_entity_moves()) {
    // The shed changes this member's view only: it diverges first.
    if (g->members.size() > 1) g = &split(s, stats);
    p.shed = g->q.shed_entity_moves(&p.shed_weight);
    g->batch = 0;
    touched_.push_back(g);
  }
  std::size_t snapshot_threshold = snapshot_threshold_;
  if (shed.snapshot_threshold_override > 0 &&
      (snapshot_threshold == 0 || shed.snapshot_threshold_override < snapshot_threshold)) {
    snapshot_threshold = shed.snapshot_threshold_override;
  }
  if (snapshot_threshold > 0 && g->q.size() > snapshot_threshold) {
    // Too far behind: a fresh snapshot is cheaper than the delta flood.
    p.kind = Take::Kind::Snapshot;
    p.dropped = g->q.size();
    leave(s);
    return;
  }
  if (g->q.violates(s.bounds, now)) {
    p.kind = Take::Kind::Flush;
    p.reason = g->q.violation_reason(s.bounds, now);
    p.queue = &g->q;
    p.batch = batch_of(*g, stats);
  } else if (g->q.empty()) {
    leave(s);  // the shed took everything
  }
}

void Dyconit::settle(SubscriberId sub, const Take& p, SimTime now, FlushSink& sink,
                     Stats& stats) {
  if (p.shed > 0) {
    stats.shed_updates += p.shed;
    stats.shed_weight += p.shed_weight;
  }
  if (p.kind == Take::Kind::Snapshot) {
    stats.dropped_snapshot += p.dropped;
    ++stats.snapshots_requested;
    sink.request_snapshot(sub, id_);
    return;
  }
  if (p.kind != Take::Kind::Flush || p.queue->empty()) return;
  account_flush(*p.queue, p.reason, now, stats);
  // Members that take one batch borrow the same views: the contents do not
  // change while the batch id stands.
  if (views_batch_ != p.batch) {
    const SubscriberQueue::Queue& items = p.queue->peek();
    views_scratch_.clear();
    views_scratch_.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      views_scratch_.push_back({&items[i].msg, items[i].created, items[i].weight});
    }
    views_batch_ = p.batch;
  }
  sink.deliver(sub, p.batch, views_scratch_);
}

void Dyconit::flush_due(SimTime now, FlushSink& sink, Stats& stats,
                        const ShedDirectiveMap* shed) {
  static const ShedDirective kNoShed;
  // Examine the queues whose due time has come, plus every queue with a
  // member under a shed directive; in them, visit the members that are due
  // or directed. The rest would do nothing.
  for (const auto& gp : pending_) {
    SharedQueue& g = *gp;
    const bool due = g.due <= now;
    if (!due && shed == nullptr) continue;
    const std::size_t first = round_.size();
    for (const Member& m : g.members) {
      const ShedDirective* d = &kNoShed;
      if (shed != nullptr) {
        const auto it = shed->find(m.sub);
        if (it != shed->end()) d = &it->second;
      }
      if (d != &kNoShed || (due && due_of(g.q, m.s->bounds) <= now)) {
        round_.push_back({m.sub, m.s, d});
      }
    }
    if (due || round_.size() > first) {
      ++stats.queues_visited;
      touched_.push_back(&g);
    }
  }
  // Canonical (ascending subscriber id) order: the wire stream and the
  // weight_delivered sum depend on it. Sink callbacks must not touch this
  // dyconit's subscription set or enqueue into it.
  std::sort(round_.begin(), round_.end(),
            [](const Visit& a, const Visit& b) { return a.sub < b.sub; });
  for (const Visit& v : round_) {
    Take p;
    take_due_core(*v.s, now, *v.shed, p, stats);
    if (p.kind != Take::Kind::None || p.shed > 0) settle(v.sub, p, now, sink, stats);
    // A member that took the contents goes idle; the rest keep the queue.
    if (p.kind == Take::Kind::Flush) leave(*v.s);
  }
  round_.clear();
  refresh_touched();
  trim_spares();
  next_due_ = kNever;
  for (const auto& g : pending_) next_due_ = std::min(next_due_, g->due);
}

void Dyconit::flush_subscriber(SubscriberId sub, SimTime now, FlushSink& sink,
                               Stats& stats, FlushReason reason) {
  const auto it = subs_.find(sub);
  if (it == subs_.end() || it->second.queue == nullptr) return;
  Sub& s = it->second;
  SharedQueue& g = *s.queue;
  Take p;
  p.kind = Take::Kind::Flush;
  p.reason = reason;
  p.queue = &g.q;
  p.batch = batch_of(g, stats);
  settle(sub, p, now, sink, stats);
  leave(s);
  if (!g.members.empty()) refresh(g);
  trim_spares();
}

void Dyconit::flush_all(SimTime now, FlushSink& sink, Stats& stats) {
  for (const SubscriberId sub : sorted_subscribers()) {
    flush_subscriber(sub, now, sink, stats, FlushReason::Forced);
  }
}

void Dyconit::for_each_subscriber(
    const std::function<void(SubscriberId, Bounds&, const SubscriberQueue&)>& fn) {
  static const SubscriberQueue kEmpty;
  for (auto& [sub, s] : subs_) {
    const Bounds before = s.bounds;
    fn(sub, s.bounds, s.queue != nullptr ? s.queue->q : kEmpty);
    if (s.queue != nullptr && !(s.bounds == before)) touched_.push_back(s.queue);
  }
  refresh_touched();
}

std::size_t Dyconit::total_queued() const {
  std::size_t n = 0;
  for (const auto& g : pending_) n += g->q.size() * g->members.size();
  return n;
}

}  // namespace dyconits::dyconit
