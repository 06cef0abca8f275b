// In-process simulated network: a pure link model.
//
// Models point-to-point links with latency (+ optional jitter), per-pair
// FIFO ordering (TCP-like), an optional per-endpoint egress rate limit
// (which produces realistic queueing delay when a sender saturates its
// uplink — the mechanism by which bandwidth savings translate into latency
// savings), and exact byte accounting per endpoint and per message tag.
//
// It injects no faults. Chaos runs wrap it in FaultInjectingTransport
// (fault_transport.h), the same decorator that runs over real sockets, so
// one fault layer serves every backend (DESIGN.md §8, §13).
//
// Substitutes for the physical cluster used in the paper: the quantities
// the paper measures (bytes on the wire, delivery latency) are measured
// here on real serialized frames. See DESIGN.md §2.
#pragma once

#include <array>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/bytes.h"
#include "net/transport.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace dyconits::net {

struct LinkParams {
  SimDuration latency = SimDuration::millis(25);
  /// Uniform jitter as a fraction of latency, in [0, 1): each frame's
  /// latency is latency * (1 + U(-jitter, +jitter)).
  double jitter = 0.0;
  /// TCP-like in-order delivery per (src,dst) pair. Set false to model a
  /// UDP-like transport where jitter can reorder frames — receivers then
  /// see non-zero order error and must guard against stale updates.
  bool fifo = true;
};

class SimNetwork final : public Transport {
 public:
  /// The network reads the shared simulation clock; poll() releases frames
  /// whose arrival time has passed.
  SimNetwork(const SimClock& clock, std::uint64_t seed = 1);

  EndpointId create_endpoint(std::string name) override;
  const std::string& endpoint_name(EndpointId id) const override;

  /// Establishes a bidirectional link. Reconnecting overwrites params.
  void connect(EndpointId a, EndpointId b, LinkParams params);
  /// Cuts the link. Frames in flight on it are dropped and counted in the
  /// receiving endpoint's dropped_frames()/dropped_bytes().
  void disconnect(EndpointId a, EndpointId b) override;
  bool connected(EndpointId a, EndpointId b) const override;

  /// Egress serialization rate in bytes/second; 0 means unlimited.
  void set_egress_rate(EndpointId id, std::uint64_t bytes_per_second);

  /// Sends a frame. Returns false if the endpoints are not connected;
  /// otherwise the frame is on the wire and arrives after the link's
  /// latency.
  bool send(EndpointId from, EndpointId to, Frame frame) override;

  /// All frames for `to` whose arrival time <= clock.now(), in arrival
  /// order (stable across equal arrivals).
  std::vector<Delivery> poll(EndpointId to) override;

  // -- Accounting (monotonic counters over the whole run) --
  std::uint64_t egress_bytes(EndpointId id) const override;
  std::uint64_t ingress_bytes(EndpointId id) const override;
  std::uint64_t egress_frames(EndpointId id) const override;
  std::uint64_t ingress_frames(EndpointId id) const override;
  std::uint64_t egress_bytes_by_tag(EndpointId id, std::uint8_t tag) const;
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t total_frames() const { return total_frames_; }

  /// Order-sensitive FNV-1a digest over every frame that got on the wire
  /// (from, to, tag, seq, payload; refused sends excluded). Two runs
  /// emitted byte-identical traffic in the same order iff their hashes
  /// match — the check behind seeded replay and the golden wire
  /// (DESIGN.md §9).
  std::uint64_t wire_hash() const { return wire_hash_.value(); }

  /// In-flight frames (and their wire bytes) addressed to `id` that a
  /// disconnect() dropped. Conservation, per endpoint:
  ///   ingress_frames == polled + pending_count + dropped_frames
  ///   ingress_bytes  == polled_bytes + pending_bytes + dropped_bytes
  std::uint64_t dropped_frames(EndpointId id) const;
  std::uint64_t dropped_bytes(EndpointId id) const;

  /// Frames enqueued but not yet polled by `to`.
  std::size_t pending_count(EndpointId to) const;
  /// Wire bytes enqueued but not yet polled by `to` — the backpressure
  /// signal the server's overload controller reads: a subscriber whose
  /// inbox bytes keep growing is not draining its downlink. The sim owns
  /// both ends of the wire, so this is a real signal here.
  std::uint64_t pending_bytes(EndpointId to) const override;
  /// Wire bytes `to` has polled out of its inbox so far.
  std::uint64_t polled_bytes(EndpointId to) const;

 private:
  struct PendingFrame {
    SimTime arrival;
    std::uint64_t seq;  // global sequence for stable ordering
    Delivery delivery;

    bool operator>(const PendingFrame& o) const {
      if (arrival != o.arrival) return arrival > o.arrival;
      return seq > o.seq;
    }
  };

  using Inbox =
      std::priority_queue<PendingFrame, std::vector<PendingFrame>, std::greater<>>;

  struct EndpointState {
    std::string name;
    std::uint64_t egress_bytes = 0;
    std::uint64_t ingress_bytes = 0;
    std::uint64_t egress_frames = 0;
    std::uint64_t ingress_frames = 0;
    std::array<std::uint64_t, kMaxTags> egress_by_tag{};
    std::uint64_t egress_rate = 0;  // bytes/sec, 0 = unlimited
    SimTime egress_free;            // uplink busy until this time
    Inbox inbox;
    std::uint64_t pending_bytes = 0;  // wire bytes currently in the inbox
    std::uint64_t polled_bytes = 0;
    std::uint64_t dropped_frames = 0;  // in flight when disconnect() cut the link
    std::uint64_t dropped_bytes = 0;
  };

  static std::uint64_t pair_key(EndpointId a, EndpointId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  /// Drops (and counts) every in-flight frame from `from` in `to`'s inbox.
  void drop_in_flight(EndpointId from, EndpointId to);

  const SimClock& clock_;
  Rng rng_;
  std::vector<EndpointState> endpoints_;  // index = id (0 unused)
  std::unordered_map<std::uint64_t, LinkParams> links_;        // directed key
  std::unordered_map<std::uint64_t, SimTime> last_arrival_;    // FIFO floor per pair
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_frames_ = 0;
  std::uint64_t next_seq_ = 0;
  Fnv1a wire_hash_;
};

}  // namespace dyconits::net
