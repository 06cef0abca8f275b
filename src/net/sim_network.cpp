#include "net/sim_network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/buffer_pool.h"
#include "trace/trace.h"

namespace dyconits::net {

SimNetwork::SimNetwork(const SimClock& clock, std::uint64_t seed)
    : clock_(clock), rng_(seed) {
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
}

void SimNetwork::disconnect(EndpointId a, EndpointId b) {
  links_.erase(pair_key(a, b));
  links_.erase(pair_key(b, a));
  drop_in_flight(a, b);
  drop_in_flight(b, a);
}

bool SimNetwork::connected(EndpointId a, EndpointId b) const {
  return links_.count(pair_key(a, b)) > 0;
}

void SimNetwork::set_egress_rate(EndpointId id, std::uint64_t bytes_per_second) {
  endpoints_.at(id).egress_rate = bytes_per_second;
}

void SimNetwork::drop_in_flight(EndpointId from, EndpointId to) {
  EndpointState& dst = endpoints_.at(to);
  if (dst.inbox.empty()) return;
  Inbox kept;
  while (!dst.inbox.empty()) {
    // priority_queue::top is const; the pop-after-move is safe because we
    // never read the moved-from element.
    auto& pf = const_cast<PendingFrame&>(dst.inbox.top());
    if (pf.delivery.from == from) {
      const std::size_t size = pf.delivery.frame.wire_size();
      dst.pending_bytes -= size;
      dst.dropped_frames += 1;
      dst.dropped_bytes += size;
      BufferPool::instance().release(std::move(pf.delivery.frame.payload));
    } else {
      kept.push(std::move(pf));
    }
    dst.inbox.pop();
  }
  dst.inbox = std::move(kept);
}

bool SimNetwork::send(EndpointId from, EndpointId to, Frame frame) {
  TRACE_SCOPE("net.send");
  const auto link_it = links_.find(pair_key(from, to));
  if (link_it == links_.end()) return false;
  assert(frame.tag < kMaxTags);
  EndpointState& src = endpoints_.at(from);
  EndpointState& dst = endpoints_.at(to);

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
  if (link.fifo) {
    // TCP-like per-pair FIFO: never deliver before an earlier frame.
    SimTime& floor = last_arrival_[pair_key(from, to)];
    if (arrival < floor) arrival = floor;
    floor = arrival;
  }

  src.egress_bytes += size;
  src.egress_frames += 1;
  src.egress_by_tag[frame.tag] += size;
  total_bytes_ += size;
  total_frames_ += 1;

  // Wire digest: hash what the sender put on the wire, in send order.
  // Equal hashes mean byte-identical traffic in the same order.
  wire_hash_.u64(from);
  wire_hash_.u64(to);
  wire_hash_.u64(frame.tag);
  wire_hash_.u64(frame.seq);
  wire_hash_.bytes(frame.payload.data(), frame.payload.size());

  dst.ingress_bytes += size;
  dst.ingress_frames += 1;
  dst.pending_bytes += size;
  dst.inbox.push(PendingFrame{arrival, next_seq_++,
                              Delivery{from, std::move(frame), now, arrival}});
  return true;
}

std::vector<Delivery> SimNetwork::poll(EndpointId to) {
  TRACE_SCOPE("net.poll");
  EndpointState& dst = endpoints_.at(to);
  std::vector<Delivery> out;
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

std::uint64_t SimNetwork::dropped_frames(EndpointId id) const {
  return endpoints_.at(id).dropped_frames;
}

std::uint64_t SimNetwork::dropped_bytes(EndpointId id) const {
  return endpoints_.at(id).dropped_bytes;
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
