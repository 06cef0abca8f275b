#include "net/fault_transport.h"

#include <algorithm>

#include "net/buffer_pool.h"
#include "trace/trace.h"

namespace dyconits::net {

namespace {
// Decision bits mixed into the determinism digest, one per fault kind.
constexpr std::uint8_t kBitLost = 1u << 0;
constexpr std::uint8_t kBitDuplicated = 1u << 1;
constexpr std::uint8_t kBitCorrupted = 1u << 2;
constexpr std::uint8_t kBitReordered = 1u << 3;
constexpr std::uint8_t kBitSendFailed = 1u << 4;
constexpr std::uint8_t kBitRefused = 1u << 5;
}  // namespace

FaultInjectingTransport::FaultInjectingTransport(Transport& inner, SimClock& clock)
    : inner_(inner), clock_(clock), fault_rng_(plan_.seed) {}

FaultInjectingTransport::~FaultInjectingTransport() {
  for (auto& h : holdback_) BufferPool::instance().release(std::move(h.frame.payload));
}

void FaultInjectingTransport::set_fault_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  std::stable_sort(plan_.events.begin(), plan_.events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
  next_event_ = 0;
  fault_rng_ = Rng(plan_.seed);
}

EndpointId FaultInjectingTransport::create_endpoint(std::string name) {
  return inner_.create_endpoint(std::move(name));
}

const std::string& FaultInjectingTransport::endpoint_name(EndpointId id) const {
  return inner_.endpoint_name(id);
}

void FaultInjectingTransport::advance_events() {
  while (next_event_ < plan_.events.size() && plan_.events[next_event_].at <= clock_.now()) {
    apply_event(plan_.events[next_event_++]);
  }
}

void FaultInjectingTransport::heal_links() { plan_.all_links = LinkFaults{}; }

void FaultInjectingTransport::apply_event(const FaultEvent& e) {
  switch (e.kind) {
    case FaultEvent::Kind::LinkDown:
      if (e.b == kInvalidEndpoint) {
        // Single-named link event: the whole endpoint is unreachable (a
        // crash already in force keeps its cause).
        downed_endpoints_.emplace(e.a, DropCause::Disconnect);
      } else {
        downed_pairs_.insert(pair_key(e.a, e.b));
        downed_pairs_.insert(pair_key(e.b, e.a));
      }
      drop_held(e.a, e.b, DropCause::Disconnect);
      TRACE_INSTANT("net.fault_transport.link_down");
      break;
    case FaultEvent::Kind::LinkUp:
      if (e.b == kInvalidEndpoint) {
        downed_endpoints_.erase(e.a);
      } else {
        downed_pairs_.erase(pair_key(e.a, e.b));
        downed_pairs_.erase(pair_key(e.b, e.a));
      }
      TRACE_INSTANT("net.fault_transport.link_up");
      break;
    case FaultEvent::Kind::Crash:
      downed_endpoints_[e.a] = DropCause::Crash;
      drop_held(e.a, kInvalidEndpoint, DropCause::Crash);
      TRACE_INSTANT("net.fault_transport.crash");
      break;
    case FaultEvent::Kind::Restart:
      downed_endpoints_.erase(e.a);
      TRACE_INSTANT("net.fault_transport.restart");
      break;
  }
}

std::optional<FaultInjectingTransport::DropCause> FaultInjectingTransport::down_cause(
    EndpointId from, EndpointId to) const {
  if (downed_endpoints_.empty() && downed_pairs_.empty()) return std::nullopt;
  std::optional<DropCause> cause;
  for (const EndpointId id : {from, to}) {
    const auto it = downed_endpoints_.find(id);
    if (it == downed_endpoints_.end()) continue;
    if (it->second == DropCause::Crash) return DropCause::Crash;
    cause = DropCause::Disconnect;
  }
  if (!cause && downed_pairs_.count(pair_key(from, to)) != 0) cause = DropCause::Disconnect;
  return cause;
}

void FaultInjectingTransport::drop_held(EndpointId a, EndpointId b, DropCause cause) {
  std::erase_if(holdback_, [&](HeldFrame& h) {
    const bool hit = b == kInvalidEndpoint
                         ? h.from == a || h.to == a
                         : (h.from == a && h.to == b) || (h.from == b && h.to == a);
    if (!hit) return false;
    account_drop(stats_[h.to], h.frame, cause);
    BufferPool::instance().release(std::move(h.frame.payload));
    return true;
  });
}

bool FaultInjectingTransport::forward(EndpointId from, EndpointId to, Frame frame,
                                      FaultStats& st) {
  const std::size_t size = frame.wire_size();
  if (inner_.send(from, to, std::move(frame))) return true;
  st.refused += 1;
  st.refused_bytes += size;
  return false;
}

void FaultInjectingTransport::account_drop(FaultStats& st, const Frame& f, DropCause cause) {
  const std::size_t size = f.wire_size();
  st.dropped.frames += 1;
  st.dropped.bytes += size;
  switch (cause) {
    case DropCause::Loss:
      st.dropped.loss += 1;
      st.dropped.loss_bytes += size;
      break;
    case DropCause::Disconnect:
      st.dropped.disconnect += 1;
      st.dropped.disconnect_bytes += size;
      break;
    case DropCause::Crash:
      st.dropped.crash += 1;
      st.dropped.crash_bytes += size;
      break;
  }
}

void FaultInjectingTransport::corrupt_frame(Frame& frame) {
  // The header is modeled as protected: seq never changes, and the tag
  // only when an empty payload leaves nothing else to flip.
  if (frame.payload.empty()) {
    // Mangle the tag into one decode will reject.
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

void FaultInjectingTransport::mix_decision(EndpointId to, const Frame& f, std::uint8_t bits) {
  decision_hash_.u64(to);
  decision_hash_.u64(f.tag);
  decision_hash_.u64(f.seq);
  decision_hash_.u64(f.wire_size());
  decision_hash_.u64(bits);
}

bool FaultInjectingTransport::send(EndpointId from, EndpointId to, Frame frame) {
  TRACE_SCOPE("net.fault_transport.send");
  advance_events();
  FaultStats& st = stats_[to];
  const std::size_t size = frame.wire_size();
  st.offered += 1;
  st.offered_bytes += size;

  // Scheduled windows refuse the send outright; the caller sees false.
  if (down_cause(from, to)) {
    st.refused += 1;
    st.refused_bytes += size;
    mix_decision(to, frame, kBitRefused);
    BufferPool::instance().release(std::move(frame.payload));
    return false;
  }

  // Fault draws in a fixed per-frame order (loss, duplicate, corrupt,
  // reorder), then the send_fail draw. Probabilities at zero still consume
  // draws within their group, so the stream is a pure function of the plan
  // and the offer sequence.
  const LinkFaults& faults = plan_.all_links;
  bool lost = false, duplicated = false, corrupted = false, reordered = false;
  bool send_failed = false;
  if (faults.any()) {
    lost = fault_rng_.chance(faults.loss);
    duplicated = fault_rng_.chance(faults.duplicate);
    corrupted = fault_rng_.chance(faults.corrupt);
    reordered = fault_rng_.chance(faults.reorder);
  }
  if (faults.send_fail > 0.0) send_failed = fault_rng_.chance(faults.send_fail);

  std::uint8_t bits = 0;
  if (lost) bits |= kBitLost;
  if (duplicated) bits |= kBitDuplicated;
  if (corrupted) bits |= kBitCorrupted;
  if (reordered) bits |= kBitReordered;
  if (send_failed) bits |= kBitSendFailed;
  mix_decision(to, frame, bits);

  if (send_failed) {
    // A modeled sender-edge EAGAIN: the datagram never leaves, the send
    // call still "succeeds" (real socket failures surface at flush time),
    // and only the pressure counters know — which is the point.
    st.send_failed += 1;
    st.send_failed_bytes += size;
    congested_bytes_[to] += size;
    ++congested_frames_[to];
    BufferPool::instance().release(std::move(frame.payload));
    TRACE_INSTANT("net.fault_transport.send_fail");
    return true;
  }

  if (lost) {
    account_drop(st, frame, DropCause::Loss);
    BufferPool::instance().release(std::move(frame.payload));
    TRACE_INSTANT("net.fault_transport.loss");
    return true;
  }

  if (corrupted) {
    corrupt_frame(frame);
    st.corrupted += 1;
    TRACE_INSTANT("net.fault_transport.corrupt");
  }

  Frame dup;
  if (duplicated) {
    // A second copy right behind the original — a real wire can't schedule
    // a later delivery, and back-to-back duplicate datagrams are the common
    // case anyway.
    dup.tag = frame.tag;
    dup.seq = frame.seq;
    dup.trace_origin = frame.trace_origin;
    dup.payload = BufferPool::instance().acquire();
    dup.payload.assign(frame.payload.begin(), frame.payload.end());
    st.duplicated += 1;
    st.duplicated_bytes += size;
    TRACE_INSTANT("net.fault_transport.duplicate");
  }

  if (reordered) {
    // The frame takes a detour: held until flush_egress() finds it due. A
    // duplicate copy goes straight through.
    const auto extra_us = static_cast<std::uint64_t>(faults.reorder_extra.count_micros());
    SimTime due = clock_.now();
    if (extra_us > 0) {
      due = due + SimDuration::micros(
                      static_cast<std::int64_t>(fault_rng_.next_below(extra_us + 1)));
    }
    st.reordered += 1;
    if (duplicated) forward(from, to, std::move(dup), st);
    holdback_.push_back(HeldFrame{due, next_hold_seq_++, from, to, std::move(frame)});
    TRACE_INSTANT("net.fault_transport.reorder");
    return true;
  }

  const bool ok = forward(from, to, std::move(frame), st);
  if (duplicated) forward(from, to, std::move(dup), st);
  return ok;
}

std::vector<Delivery> FaultInjectingTransport::poll(EndpointId to) {
  advance_events();
  std::vector<Delivery> out = inner_.poll(to);
  FaultStats& st = stats_[to];
  std::erase_if(out, [&](Delivery& d) {
    const std::optional<DropCause> cause = down_cause(d.from, to);
    if (!cause) return false;
    account_drop(st, d.frame, *cause);
    BufferPool::instance().release(std::move(d.frame.payload));
    return true;
  });
  for (const Delivery& d : out) {
    st.delivered += 1;
    st.delivered_bytes += d.frame.wire_size();
  }
  return out;
}

void FaultInjectingTransport::disconnect(EndpointId a, EndpointId b) {
  inner_.disconnect(a, b);
}

bool FaultInjectingTransport::connected(EndpointId a, EndpointId b) const {
  return !down_cause(a, b) && inner_.connected(a, b);
}

std::uint64_t FaultInjectingTransport::egress_bytes(EndpointId id) const {
  return inner_.egress_bytes(id);
}
std::uint64_t FaultInjectingTransport::ingress_bytes(EndpointId id) const {
  return inner_.ingress_bytes(id);
}
std::uint64_t FaultInjectingTransport::egress_frames(EndpointId id) const {
  return inner_.egress_frames(id);
}
std::uint64_t FaultInjectingTransport::ingress_frames(EndpointId id) const {
  return inner_.ingress_frames(id);
}

std::uint64_t FaultInjectingTransport::pending_bytes(EndpointId to) const {
  std::uint64_t injected = 0;
  if (const auto it = congested_bytes_.find(to); it != congested_bytes_.end())
    injected = it->second;
  return inner_.pending_bytes(to) + injected;
}

void FaultInjectingTransport::flush_egress() {
  advance_events();

  if (!holdback_.empty()) {
    // Release every held frame whose detour has elapsed, oldest decision
    // first so same-destination reordered frames keep their relative order.
    const SimTime now = clock_.now();
    std::stable_sort(holdback_.begin(), holdback_.end(),
                     [](const HeldFrame& x, const HeldFrame& y) {
                       return x.due != y.due ? x.due < y.due : x.seq < y.seq;
                     });
    std::size_t released = 0;
    for (auto& h : holdback_) {
      if (h.due > now) break;
      FaultStats& st = stats_[h.to];
      if (const std::optional<DropCause> cause = down_cause(h.from, h.to)) {
        account_drop(st, h.frame, *cause);
        BufferPool::instance().release(std::move(h.frame.payload));
      } else {
        forward(h.from, h.to, std::move(h.frame), st);
      }
      ++released;
    }
    holdback_.erase(holdback_.begin(),
                    holdback_.begin() + static_cast<std::ptrdiff_t>(released));
  }

  // The injected-congestion estimate drains as flushes go by, mirroring
  // UdpTransport's own decay: a burst of send faults fades, a sustained
  // window holds the signal (and the overload ladder's attention).
  for (auto& [to, bytes] : congested_bytes_) bytes -= bytes / 4;
  for (auto& [to, frames] : congested_frames_) frames -= frames / 4;

  inner_.flush_egress();
}

SendPressure FaultInjectingTransport::send_pressure(EndpointId to) const {
  SendPressure p = inner_.send_pressure(to);
  if (to == kInvalidEndpoint) {
    for (const auto& [id, st] : stats_) {
      p.send_failures += st.send_failed;
      p.dropped_datagrams += st.send_failed;
    }
    for (const auto& [id, bytes] : congested_bytes_) p.congested_bytes += bytes;
    for (const auto& [id, frames] : congested_frames_) p.congested_frames += frames;
  } else {
    if (const auto it = congested_bytes_.find(to); it != congested_bytes_.end())
      p.congested_bytes += it->second;
    if (const auto it = congested_frames_.find(to); it != congested_frames_.end())
      p.congested_frames += it->second;
  }
  return p;
}

Tally FaultInjectingTransport::held(EndpointId to) const {
  Tally t;
  for (const HeldFrame& h : holdback_) {
    if (h.to != to) continue;
    t.frames += 1;
    t.bytes += h.frame.wire_size();
  }
  return t;
}

FaultStats FaultInjectingTransport::injected_totals() const {
  FaultStats total;
  for (const auto& [id, st] : stats_) {
    total.offered += st.offered;
    total.offered_bytes += st.offered_bytes;
    total.refused_bytes += st.refused_bytes;
    total.send_failed += st.send_failed;
    total.send_failed_bytes += st.send_failed_bytes;
    total.duplicated_bytes += st.duplicated_bytes;
    total.delivered += st.delivered;
    total.delivered_bytes += st.delivered_bytes;
    total.dropped.frames += st.dropped.frames;
    total.dropped.bytes += st.dropped.bytes;
    total.dropped.loss += st.dropped.loss;
    total.dropped.disconnect += st.dropped.disconnect;
    total.dropped.crash += st.dropped.crash;
    total.dropped.loss_bytes += st.dropped.loss_bytes;
    total.dropped.disconnect_bytes += st.dropped.disconnect_bytes;
    total.dropped.crash_bytes += st.dropped.crash_bytes;
    total.corrupted += st.corrupted;
    total.duplicated += st.duplicated;
    total.reordered += st.reordered;
    total.refused += st.refused;
  }
  return total;
}

}  // namespace dyconits::net
