#include "dyconit/system.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace dyconits::dyconit {

Dyconit& DyconitSystem::get_or_create(DyconitId id, Bounds default_bounds) {
  auto it = dyconits_.find(id);
  if (it != dyconits_.end()) return *it->second;
  auto [ins, _] = dyconits_.emplace(id, std::make_unique<Dyconit>(id, default_bounds));
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
    assert(!it->second->scheduled());
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

void DyconitSystem::subscribe(DyconitId id, SubscriberId sub, Bounds b) {
  get_or_create(id).subscribe(sub, b);
}

void DyconitSystem::unsubscribe(DyconitId id, SubscriberId sub) {
  Dyconit* d = find(id);
  if (d != nullptr && d->unsubscribe(sub, stats_) && d->idle()) {
    gc_candidates_.push_back(id);
  }
}

void DyconitSystem::unsubscribe_all(SubscriberId sub) {
  for (auto& [id, d] : dyconits_) {
    if (d->unsubscribe(sub, stats_) && d->idle()) gc_candidates_.push_back(id);
  }
}

bool DyconitSystem::is_subscribed(DyconitId id, SubscriberId sub) const {
  const Dyconit* d = find(id);
  return d != nullptr && d->subscribed(sub);
}

void DyconitSystem::set_bounds(DyconitId id, SubscriberId sub, Bounds b) {
  if (Dyconit* d = find(id)) d->set_bounds(sub, b);
}

void DyconitSystem::update(DyconitId id, Update u, SubscriberId exclude) {
  TRACE_SCOPE("dyconit.enqueue");
  if (u.created == SimTime::zero()) u.created = clock_.now();
  Dyconit& d = get_or_create(id);
  if (d.enqueue(u, exclude, stats_)) active_.push_back(&d);
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
  // Visiting only scheduled dyconits in canonical order makes the same sink
  // calls as a walk over all of them: the rest hold no queued update.
  round_.swap(active_);
  std::sort(round_.begin(), round_.end(),
            [](const Dyconit* a, const Dyconit* b) { return a->id() < b->id(); });
  for (Dyconit* d : round_) {
    if (d->flush_due(now, sink, stats_, snapshot_threshold_, shed)) active_.push_back(d);
  }
  round_.clear();
  gc();
}

void DyconitSystem::flush_all(FlushSink& sink) {
  const SimTime now = clock_.now();
  for (Dyconit* d : sorted_dyconits()) d->flush_all(now, sink, stats_);
}

void DyconitSystem::flush_subscriber(SubscriberId sub, FlushSink& sink) {
  const SimTime now = clock_.now();
  for (Dyconit* d : sorted_dyconits()) d->flush_subscriber(sub, now, sink, stats_);
}

void DyconitSystem::resync_subscriber(SubscriberId sub, FlushSink& sink) {
  TRACE_SCOPE("dyconit.resync");
  const SimTime now = clock_.now();
  for (Dyconit* d : sorted_dyconits()) {
    if (!d->subscribed(sub)) continue;
    d->flush_subscriber(sub, now, sink, stats_);
    sink.request_snapshot(sub, d->id());
    ++stats_.snapshots_requested;
  }
  ++stats_.resyncs;
}

void DyconitSystem::for_each(const std::function<void(Dyconit&)>& fn) {
  for (auto& [id, d] : dyconits_) fn(*d);
}

std::size_t DyconitSystem::total_queued() const {
  std::size_t n = 0;
  for (const auto& [id, d] : dyconits_) n += d->total_queued();
  return n;
}

}  // namespace dyconits::dyconit
