#include "net/sim_network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/buffer_pool.h"
#include "trace/trace.h"

namespace dyconits::net {

SimNetwork::SimNetwork(const SimClock& clock, std::uint64_t seed)
    : clock_(clock), rng_(seed), fault_rng_(seed ^ 0xFA177ull) {
  endpoints_.emplace_back();  // id 0 = invalid
}

EndpointId SimNetwork::create_endpoint(std::string name) {
  EndpointState st;
  st.name = std::move(name);
  endpoints_.push_back(std::move(st));
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

const std::string& SimNetwork::endpoint_name(EndpointId id) const {
  return endpoints_.at(id).name;
}

void SimNetwork::connect(EndpointId a, EndpointId b, LinkParams params) {
  links_[pair_key(a, b)] = params;
  links_[pair_key(b, a)] = params;
  downed_links_.erase(pair_key(a, b));
  downed_links_.erase(pair_key(b, a));
}

void SimNetwork::disconnect(EndpointId a, EndpointId b) {
  links_.erase(pair_key(a, b));
  links_.erase(pair_key(b, a));
  drop_in_flight(a, b, DropCause::Disconnect);
  drop_in_flight(b, a, DropCause::Disconnect);
}

bool SimNetwork::connected(EndpointId a, EndpointId b) const {
  return links_.count(pair_key(a, b)) > 0;
}

void SimNetwork::set_egress_rate(EndpointId id, std::uint64_t bytes_per_second) {
  endpoints_.at(id).egress_rate = bytes_per_second;
}

void SimNetwork::set_fault_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  std::stable_sort(plan_.events.begin(), plan_.events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
  next_event_ = 0;
  fault_rng_ = Rng(plan_.seed);
}

void SimNetwork::set_link_faults(EndpointId a, EndpointId b, LinkFaults faults) {
  link_fault_overrides_[pair_key(a, b)] = faults;
  link_fault_overrides_[pair_key(b, a)] = faults;
}

void SimNetwork::clear_link_faults() {
  link_fault_overrides_.clear();
  plan_.all_links = LinkFaults{};
}

void SimNetwork::advance_faults() {
  while (next_event_ < plan_.events.size() &&
         plan_.events[next_event_].at <= clock_.now()) {
    const FaultEvent e = plan_.events[next_event_++];
    switch (e.kind) {
      case FaultEvent::Kind::LinkDown: set_link_down(e.a, e.b); break;
      case FaultEvent::Kind::LinkUp: set_link_up(e.a, e.b); break;
      case FaultEvent::Kind::Crash: crash(e.a); break;
      case FaultEvent::Kind::Restart: restart(e.a); break;
    }
  }
}

void SimNetwork::crash(EndpointId id) {
  EndpointState& st = endpoints_.at(id);
  if (st.crashed) return;
  st.crashed = true;
  wipe_inbox(id, DropCause::Crash);
  TRACE_INSTANT("net.fault.crash");
}

void SimNetwork::restart(EndpointId id) {
  EndpointState& st = endpoints_.at(id);
  if (!st.crashed) return;
  st.crashed = false;
  TRACE_INSTANT("net.fault.restart");
}

bool SimNetwork::crashed(EndpointId id) const { return endpoints_.at(id).crashed; }

void SimNetwork::set_link_down(EndpointId a, EndpointId b) {
  bool any = false;
  for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto it = links_.find(pair_key(src, dst));
    if (it == links_.end()) continue;
    downed_links_[pair_key(src, dst)] = it->second;
    links_.erase(it);
    drop_in_flight(src, dst, DropCause::Disconnect);
    any = true;
  }
  if (any) TRACE_INSTANT("net.fault.link_down");
}

void SimNetwork::set_link_up(EndpointId a, EndpointId b) {
  bool any = false;
  for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto it = downed_links_.find(pair_key(src, dst));
    if (it == downed_links_.end()) continue;
    links_[pair_key(src, dst)] = it->second;
    downed_links_.erase(it);
    any = true;
  }
  if (any) TRACE_INSTANT("net.fault.link_up");
}

const LinkFaults* SimNetwork::active_faults(EndpointId from, EndpointId to) const {
  const auto it = link_fault_overrides_.find(pair_key(from, to));
  if (it != link_fault_overrides_.end()) return it->second.any() ? &it->second : nullptr;
  return plan_.all_links.any() ? &plan_.all_links : nullptr;
}

void SimNetwork::account_drop(EndpointState& dst, const Frame& frame, DropCause cause) {
  const std::size_t size = frame.wire_size();
  dst.faults.dropped.frames += 1;
  dst.faults.dropped.bytes += size;
  switch (cause) {
    case DropCause::Loss:
      dst.faults.dropped.loss += 1;
      dst.faults.dropped.loss_bytes += size;
      break;
    case DropCause::Disconnect:
      dst.faults.dropped.disconnect += 1;
      dst.faults.dropped.disconnect_bytes += size;
      break;
    case DropCause::Crash:
      dst.faults.dropped.crash += 1;
      dst.faults.dropped.crash_bytes += size;
      break;
  }
  if (frame.tag < kMaxTags) dst.dropped_by_tag[frame.tag] += size;
  total_dropped_frames_ += 1;
  total_dropped_bytes_ += size;
}

void SimNetwork::drop_in_flight(EndpointId from, EndpointId to, DropCause cause) {
  EndpointState& dst = endpoints_.at(to);
  if (dst.inbox.empty()) return;
  Inbox kept;
  while (!dst.inbox.empty()) {
    // priority_queue::top is const; the pop-after-move is safe because we
    // never read the moved-from element.
    auto& pf = const_cast<PendingFrame&>(dst.inbox.top());
    if (pf.delivery.from == from) {
      dst.pending_bytes -= pf.delivery.frame.wire_size();
      account_drop(dst, pf.delivery.frame, cause);
      BufferPool::instance().release(std::move(pf.delivery.frame.payload));
    } else {
      kept.push(std::move(pf));
    }
    dst.inbox.pop();
  }
  dst.inbox = std::move(kept);
}

void SimNetwork::wipe_inbox(EndpointId id, DropCause cause) {
  EndpointState& dst = endpoints_.at(id);
  while (!dst.inbox.empty()) {
    auto& pf = const_cast<PendingFrame&>(dst.inbox.top());
    dst.pending_bytes -= pf.delivery.frame.wire_size();
    account_drop(dst, pf.delivery.frame, cause);
    BufferPool::instance().release(std::move(pf.delivery.frame.payload));
    dst.inbox.pop();
  }
}

void SimNetwork::corrupt_frame(Frame& frame) {
  if (frame.payload.empty()) {
    // Nothing to flip; mangle the tag into one decode will reject.
    frame.tag = static_cast<std::uint8_t>(kMaxTags - 1);
    return;
  }
  const std::uint64_t flips = 1 + fault_rng_.next_below(8);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t pos = fault_rng_.next_below(frame.payload.size());
    const auto bit = static_cast<std::uint8_t>(1u << fault_rng_.next_below(8));
    frame.payload[pos] ^= bit;
  }
}

bool SimNetwork::send(EndpointId from, EndpointId to, Frame frame) {
  TRACE_SCOPE("net.send");
  advance_faults();
  EndpointState& src = endpoints_.at(from);
  EndpointState& dst = endpoints_.at(to);
  if (src.crashed || dst.crashed) {
    dst.faults.refused += 1;
    return false;
  }
  const auto link_it = links_.find(pair_key(from, to));
  if (link_it == links_.end()) {
    dst.faults.refused += 1;
    return false;
  }
  assert(frame.tag < kMaxTags);

  // Fault draws happen in a fixed order per frame so the stream replays.
  const LinkFaults* faults = active_faults(from, to);
  bool lost = false, duplicated = false, corrupted = false, reordered = false;
  if (faults != nullptr) {
    lost = fault_rng_.chance(faults->loss);
    duplicated = fault_rng_.chance(faults->duplicate);
    corrupted = fault_rng_.chance(faults->corrupt);
    reordered = fault_rng_.chance(faults->reorder);
  }

  const std::size_t size = frame.wire_size();
  const SimTime now = clock_.now();

  // Uplink serialization: the frame departs once the uplink is free and its
  // bytes have been clocked out.
  SimTime depart = now;
  if (src.egress_rate > 0) {
    const SimTime start = std::max(now, src.egress_free);
    const auto tx_micros = static_cast<std::int64_t>(
        static_cast<double>(size) * 1e6 / static_cast<double>(src.egress_rate));
    depart = start + SimDuration::micros(tx_micros);
    src.egress_free = depart;
  }

  const LinkParams& link = link_it->second;
  SimDuration latency = link.latency;
  if (link.jitter > 0.0) {
    const double f = 1.0 + rng_.next_double_in(-link.jitter, link.jitter);
    latency = SimDuration::micros(
        static_cast<std::int64_t>(static_cast<double>(latency.count_micros()) * f));
  }

  SimTime arrival = depart + latency;
  if (reordered) {
    // The frame took a detour: extra delay, exempt from the FIFO floor (and
    // it doesn't raise the floor — later frames may overtake it).
    const auto extra_us =
        static_cast<std::uint64_t>(faults->reorder_extra.count_micros());
    if (extra_us > 0) {
      arrival = arrival + SimDuration::micros(
                              static_cast<std::int64_t>(fault_rng_.next_below(extra_us + 1)));
    }
    dst.faults.reordered += 1;
    TRACE_INSTANT("net.fault.reorder");
  } else if (link.fifo) {
    // TCP-like per-pair FIFO: never deliver before an earlier frame.
    SimTime& floor = last_arrival_[pair_key(from, to)];
    if (arrival < floor) arrival = floor;
    floor = arrival;
  }

  // The frame is on the wire: sender-side accounting is unconditional.
  src.egress_bytes += size;
  src.egress_frames += 1;
  src.egress_by_tag[frame.tag] += size;
  dst.offered_frames += 1;
  total_bytes_ += size;
  total_frames_ += 1;

  // Wire digest: hash what the sender put on the wire (pre-corruption), in
  // send order. Equal hashes mean byte-identical traffic in the same order.
  wire_hash_.u64(from);
  wire_hash_.u64(to);
  wire_hash_.u64(frame.tag);
  wire_hash_.u64(frame.seq);
  wire_hash_.bytes(frame.payload.data(), frame.payload.size());

  if (lost) {
    // The sender cannot tell; only the receiver's ledger records the loss.
    account_drop(dst, frame, DropCause::Loss);
    BufferPool::instance().release(std::move(frame.payload));
    TRACE_INSTANT("net.fault.loss");
    return true;
  }

  if (corrupted) {
    corrupt_frame(frame);
    dst.faults.corrupted += 1;
    TRACE_INSTANT("net.fault.corrupt");
  }

  dst.ingress_bytes += size;
  dst.ingress_frames += 1;
  if (duplicated) {
    // Deliver a second, slightly later copy (also exempt from the floor).
    const SimTime dup_arrival =
        arrival + SimDuration::micros(static_cast<std::int64_t>(fault_rng_.next_below(2001)));
    dst.ingress_bytes += size;
    dst.ingress_frames += 1;
    dst.faults.duplicated += 1;
    dst.pending_bytes += size;
    dst.inbox.push(PendingFrame{dup_arrival, next_seq_++,
                                Delivery{from, frame, now, dup_arrival}});
    TRACE_INSTANT("net.fault.duplicate");
  }
  dst.pending_bytes += size;
  dst.inbox.push(PendingFrame{arrival, next_seq_++,
                              Delivery{from, std::move(frame), now, arrival}});
  return true;
}

std::vector<Delivery> SimNetwork::poll(EndpointId to) {
  TRACE_SCOPE("net.poll");
  advance_faults();
  EndpointState& dst = endpoints_.at(to);
  std::vector<Delivery> out;
  if (dst.crashed) return out;  // inbox was wiped at crash time
  const SimTime now = clock_.now();
  while (!dst.inbox.empty() && dst.inbox.top().arrival <= now) {
    out.push_back(std::move(const_cast<PendingFrame&>(dst.inbox.top()).delivery));
    dst.inbox.pop();
    const std::size_t size = out.back().frame.wire_size();
    dst.pending_bytes -= size;
    dst.polled_bytes += size;
  }
  return out;
}

std::uint64_t SimNetwork::egress_bytes(EndpointId id) const {
  return endpoints_.at(id).egress_bytes;
}

std::uint64_t SimNetwork::ingress_bytes(EndpointId id) const {
  return endpoints_.at(id).ingress_bytes;
}

std::uint64_t SimNetwork::egress_frames(EndpointId id) const {
  return endpoints_.at(id).egress_frames;
}

std::uint64_t SimNetwork::ingress_frames(EndpointId id) const {
  return endpoints_.at(id).ingress_frames;
}

std::uint64_t SimNetwork::egress_bytes_by_tag(EndpointId id, std::uint8_t tag) const {
  return endpoints_.at(id).egress_by_tag.at(tag);
}

std::uint64_t SimNetwork::offered_frames(EndpointId id) const {
  return endpoints_.at(id).offered_frames;
}

const FaultStats& SimNetwork::fault_stats(EndpointId id) const {
  return endpoints_.at(id).faults;
}

std::uint64_t SimNetwork::dropped_bytes_by_tag(EndpointId id, std::uint8_t tag) const {
  return endpoints_.at(id).dropped_by_tag.at(tag);
}

std::size_t SimNetwork::pending_count(EndpointId to) const {
  return endpoints_.at(to).inbox.size();
}

std::uint64_t SimNetwork::pending_bytes(EndpointId to) const {
  return endpoints_.at(to).pending_bytes;
}

std::uint64_t SimNetwork::polled_bytes(EndpointId to) const {
  return endpoints_.at(to).polled_bytes;
}

}  // namespace dyconits::net
