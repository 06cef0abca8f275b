#include "dyconit/system.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace dyconits::dyconit {

Dyconit& DyconitSystem::get_or_create(DyconitId id, Bounds default_bounds) {
  auto it = dyconits_.find(id);
  if (it != dyconits_.end()) return *it->second;
  auto [ins, _] = dyconits_.emplace(id, std::make_unique<Dyconit>(id, default_bounds));
  ins->second->set_snapshot_threshold(snapshot_threshold_);
  dyconits_dirty_ = true;
  gc_candidates_.push_back(id);  // idle until someone subscribes
  return *ins->second;
}

const std::vector<Dyconit*>& DyconitSystem::sorted_dyconits() {
  if (dyconits_dirty_) {
    sorted_cache_.clear();
    sorted_cache_.reserve(dyconits_.size());
    for (auto& [id, d] : dyconits_) sorted_cache_.push_back(d.get());
    std::sort(sorted_cache_.begin(), sorted_cache_.end(),
              [](const Dyconit* a, const Dyconit* b) { return a->id() < b->id(); });
    dyconits_dirty_ = false;
  }
  return sorted_cache_;
}

void DyconitSystem::gc() {
  // GC: a dyconit with no subscribers holds no queues (enqueue drops when
  // subscriber-less), so it can be removed without losing updates. A
  // dyconit only becomes idle when it is created or loses a subscriber,
  // and both record it as a candidate, so checking the candidates finds
  // every idle dyconit.
  TRACE_SCOPE("dyconit.gc");
  for (const DyconitId& id : gc_candidates_) {
    const auto it = dyconits_.find(id);
    if (it == dyconits_.end()) continue;  // duplicate, already erased
    ++stats_.gc_checked;
    if (!it->second->idle()) continue;
    assert(it->second->schedule_pos_ == Dyconit::kNotPending);
    dyconits_.erase(it);
    dyconits_dirty_ = true;
  }
  gc_candidates_.clear();
}

Dyconit* DyconitSystem::find(DyconitId id) {
  const auto it = dyconits_.find(id);
  return it == dyconits_.end() ? nullptr : it->second.get();
}

const Dyconit* DyconitSystem::find(DyconitId id) const {
  const auto it = dyconits_.find(id);
  return it == dyconits_.end() ? nullptr : it->second.get();
}

void DyconitSystem::reschedule(Dyconit& d) {
  std::size_t& pos = d.schedule_pos_;
  if (!d.scheduled()) {
    if (pos == Dyconit::kNotPending) return;
    // Remove: the last entry fills the hole and settles from there.
    const std::size_t i = pos;
    pos = Dyconit::kNotPending;
    const Scheduled last = schedule_.back();
    schedule_.pop_back();
    if (i == schedule_.size()) return;
    schedule_[i] = last;
    last.d->schedule_pos_ = i;
    sift_up(i);
    sift_down(last.d->schedule_pos_);
    return;
  }
  if (pos == Dyconit::kNotPending) {
    pos = schedule_.size();
    schedule_.push_back({d.next_due(), &d});
    sift_up(pos);
    return;
  }
  if (schedule_[pos].due == d.next_due()) return;
  schedule_[pos].due = d.next_due();
  sift_up(pos);
  sift_down(d.schedule_pos_);
}

void DyconitSystem::sift_up(std::size_t i) {
  const Scheduled e = schedule_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (schedule_[parent].due <= e.due) break;
    schedule_[i] = schedule_[parent];
    schedule_[i].d->schedule_pos_ = i;
    i = parent;
  }
  schedule_[i] = e;
  e.d->schedule_pos_ = i;
}

void DyconitSystem::sift_down(std::size_t i) {
  const Scheduled e = schedule_[i];
  const std::size_t n = schedule_.size();
  for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && schedule_[c + 1].due < schedule_[c].due) ++c;
    if (e.due <= schedule_[c].due) break;
    schedule_[i] = schedule_[c];
    schedule_[i].d->schedule_pos_ = i;
    i = c;
  }
  schedule_[i] = e;
  e.d->schedule_pos_ = i;
}

Subscription DyconitSystem::subscribe(DyconitId id, SubscriberId sub, Bounds b) {
  Dyconit& d = get_or_create(id);
  Dyconit::Sub& s = d.subscribe(sub, b);
  reschedule(d);
  return {&d, &s};
}

void DyconitSystem::unsubscribe(DyconitId id, SubscriberId sub) {
  Dyconit* d = find(id);
  if (d == nullptr || !d->unsubscribe(sub, stats_)) return;
  reschedule(*d);
  if (d->idle()) gc_candidates_.push_back(id);
}

void DyconitSystem::unsubscribe_all(SubscriberId sub) {
  for (auto& [id, d] : dyconits_) {
    if (!d->unsubscribe(sub, stats_)) continue;
    reschedule(*d);
    if (d->idle()) gc_candidates_.push_back(id);
  }
}

bool DyconitSystem::is_subscribed(DyconitId id, SubscriberId sub) const {
  const Dyconit* d = find(id);
  return d != nullptr && d->subscribed(sub);
}

void DyconitSystem::set_bounds(const Subscription& h, Bounds b) {
  const SimTime before = h.dyconit->next_due();
  h.dyconit->set_bounds(*h.sub, b);
  // Bounds change no queue's emptiness, and next_due() only moves earlier.
  if (h.dyconit->next_due() != before) reschedule(*h.dyconit);
}

void DyconitSystem::set_snapshot_threshold(std::size_t n) {
  snapshot_threshold_ = n;
  for (auto& [id, d] : dyconits_) {
    d->set_snapshot_threshold(n);
    reschedule(*d);
  }
}

void DyconitSystem::update(DyconitId id, Update u, SubscriberId exclude) {
  TRACE_SCOPE("dyconit.enqueue");
  if (u.created == SimTime::zero()) u.created = clock_.now();
  Dyconit& d = get_or_create(id);
  if (d.enqueue(u, exclude, stats_)) reschedule(d);
}

void DyconitSystem::set_shed_directive(SubscriberId sub, ShedDirective d) {
  if (d.any()) {
    shed_[sub] = d;
  } else {
    shed_.erase(sub);
  }
}

const ShedDirective* DyconitSystem::shed_directive(SubscriberId sub) const {
  const auto it = shed_.find(sub);
  return it == shed_.end() ? nullptr : &it->second;
}

void DyconitSystem::tick(FlushSink& sink) {
  TRACE_SCOPE("dyconit.flush_due");
  const SimTime now = clock_.now();
  const ShedDirectiveMap* shed = shed_.empty() ? nullptr : &shed_;
  // Visiting only the dyconits whose next_due() has come, in canonical
  // order, makes the same sink calls as a walk over all of them: the rest
  // hold no queue flush_due would act on. A shed directive can make any
  // subscriber's queue due, so while one is installed every scheduled
  // dyconit is visited. Otherwise the due ones are the heap nodes with
  // due <= now, which form a subtree at the root: walk it breadth-first,
  // using round_ as the work list.
  round_.clear();
  if (shed != nullptr) {
    for (const Scheduled& e : schedule_) round_.push_back(e.d);
  } else if (!schedule_.empty() && schedule_[0].due <= now) {
    round_.push_back(schedule_[0].d);
    for (std::size_t k = 0; k < round_.size(); ++k) {
      const std::size_t first = 2 * round_[k]->schedule_pos_ + 1;
      for (std::size_t c = first; c < first + 2 && c < schedule_.size(); ++c) {
        if (schedule_[c].due <= now) round_.push_back(schedule_[c].d);
      }
    }
  }
  std::sort(round_.begin(), round_.end(),
            [](const Dyconit* a, const Dyconit* b) { return a->id() < b->id(); });
  for (Dyconit* d : round_) {
    d->flush_due(now, sink, stats_, shed);
    reschedule(*d);
  }
  round_.clear();
  gc();
}

void DyconitSystem::flush_all(FlushSink& sink) {
  const SimTime now = clock_.now();
  for (Dyconit* d : sorted_dyconits()) {
    d->flush_all(now, sink, stats_);
    reschedule(*d);
  }
}

void DyconitSystem::flush_subscriber(SubscriberId sub, FlushSink& sink) {
  const SimTime now = clock_.now();
  for (Dyconit* d : sorted_dyconits()) {
    d->flush_subscriber(sub, now, sink, stats_);
    reschedule(*d);
  }
}

void DyconitSystem::resync_subscriber(SubscriberId sub, FlushSink& sink) {
  TRACE_SCOPE("dyconit.resync");
  const SimTime now = clock_.now();
  for (Dyconit* d : sorted_dyconits()) {
    if (!d->subscribed(sub)) continue;
    d->flush_subscriber(sub, now, sink, stats_);
    reschedule(*d);
    sink.request_snapshot(sub, d->id());
    ++stats_.snapshots_requested;
  }
  ++stats_.resyncs;
}

void DyconitSystem::for_each(const std::function<void(Dyconit&)>& fn) {
  for (auto& [id, d] : dyconits_) {
    fn(*d);
    reschedule(*d);
  }
}

std::size_t DyconitSystem::total_queued() const {
  std::size_t n = 0;
  for (const auto& [id, d] : dyconits_) n += d->total_queued();
  return n;
}

}  // namespace dyconits::dyconit
