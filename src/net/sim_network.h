// In-process simulated network.
//
// Models point-to-point links with latency (+ optional jitter), per-pair
// FIFO ordering (TCP-like), an optional per-endpoint egress rate limit
// (which produces realistic queueing delay when a sender saturates its
// uplink — the mechanism by which bandwidth savings translate into latency
// savings), and exact byte accounting per endpoint and per message tag.
//
// A deterministic fault layer (see faults.h) injects per-link loss,
// duplication, corruption and reorder, plus scheduled link flaps,
// partitions, and endpoint crash/restart — all drawn from a dedicated
// seeded RNG stream so any fault schedule replays byte-identically.
//
// Substitutes for the physical cluster used in the paper: the quantities
// the paper measures (bytes on the wire, delivery latency) are measured
// here on real serialized frames. See DESIGN.md §2 and §18.
#pragma once

#include <array>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/bytes.h"
#include "net/faults.h"
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
  /// Cuts the link. Frames in flight on it are dropped and accounted in
  /// the receiving endpoint's DropStats (cause: disconnect).
  void disconnect(EndpointId a, EndpointId b) override;
  bool connected(EndpointId a, EndpointId b) const override;

  /// Egress serialization rate in bytes/second; 0 means unlimited.
  void set_egress_rate(EndpointId id, std::uint64_t bytes_per_second);

  /// Sends a frame. Returns false if the endpoints are not connected or
  /// either has crashed (counted in the receiver's FaultStats::refused).
  /// Returns true for frames that got on the wire, even ones the fault
  /// layer later loses — the sender cannot know.
  bool send(EndpointId from, EndpointId to, Frame frame) override;

  /// All frames for `to` whose arrival time <= clock.now(), in arrival
  /// order (stable across equal arrivals).
  std::vector<Delivery> poll(EndpointId to) override;

  // -- Fault injection (see faults.h; all deterministic from the seed) --

  /// Installs a fault schedule: reseeds the fault RNG stream, applies
  /// `all_links` rates to every link without an override, and arms the
  /// scheduled events (sorted by time; applied as the clock passes them).
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Per-link fault-rate override (both directions). An explicit override
  /// takes precedence over FaultPlan::all_links, even when all-zero.
  void set_link_faults(EndpointId a, EndpointId b, LinkFaults faults);
  /// Heals the network: zeroes all probabilistic fault rates (scheduled
  /// events and drop accounting are unaffected).
  void clear_link_faults();

  /// Applies every scheduled FaultEvent whose time has passed. send() and
  /// poll() call this lazily; call it explicitly (e.g. once per tick) so
  /// events on idle links still fire on time.
  void advance_faults();

  /// Endpoint crash: wipes its inbox (accounted as dropped, cause: crash)
  /// and refuses traffic to/from it until restart(). Links survive.
  void crash(EndpointId id);
  void restart(EndpointId id);
  bool crashed(EndpointId id) const;

  /// Cuts / restores a link keeping its parameters (a scheduled flap or
  /// partition edge). In-flight frames drop on cut, accounted like
  /// disconnect(). set_link_up is a no-op unless the link is down.
  void set_link_down(EndpointId a, EndpointId b);
  void set_link_up(EndpointId a, EndpointId b);

  // -- Accounting (monotonic counters over the whole run) --
  std::uint64_t egress_bytes(EndpointId id) const override;
  std::uint64_t ingress_bytes(EndpointId id) const override;
  std::uint64_t egress_frames(EndpointId id) const override;
  std::uint64_t ingress_frames(EndpointId id) const override;
  std::uint64_t egress_bytes_by_tag(EndpointId id, std::uint8_t tag) const;
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t total_frames() const { return total_frames_; }

  /// Order-sensitive FNV-1a digest over every frame that got on the wire
  /// (from, to, tag, seq, payload — pre-corruption, including frames the
  /// fault layer later loses; refused sends excluded). Two runs emitted
  /// byte-identical traffic in the same order iff their hashes match —
  /// the check behind seeded replay and the golden wire (DESIGN.md §9).
  std::uint64_t wire_hash() const { return wire_hash_.value(); }

  /// Frames that got on the wire addressed to `id` (delivered, lost, or in
  /// flight; duplicate copies not counted). Conservation, per endpoint
  /// (ingress counts every enqueued copy, including ones later wiped):
  ///   offered == ingress_frames - duplicated + dropped.loss
  ///   ingress_frames == polled + pending + dropped.disconnect + dropped.crash
  /// and identically in bytes (loss bytes excluded: lost frames are
  /// accounted before they ever ingress):
  ///   ingress_bytes == polled_bytes + pending_bytes
  ///                    + dropped.disconnect_bytes + dropped.crash_bytes
  std::uint64_t offered_frames(EndpointId id) const;

  /// Receiver-side fault counters, including undelivered-frame accounting.
  const FaultStats& fault_stats(EndpointId id) const;
  /// Bytes dropped en route to `id`, by the frame's tag.
  std::uint64_t dropped_bytes_by_tag(EndpointId id, std::uint8_t tag) const;
  std::uint64_t total_dropped_frames() const { return total_dropped_frames_; }
  std::uint64_t total_dropped_bytes() const { return total_dropped_bytes_; }

  /// Frames enqueued but not yet polled by `to`.
  std::size_t pending_count(EndpointId to) const;
  /// Wire bytes enqueued but not yet polled by `to` — the backpressure
  /// signal the server's overload controller reads: a subscriber whose
  /// inbox bytes keep growing is not draining its downlink. The sim owns
  /// both ends of the wire, so this is a real signal here.
  bool has_backlog_signal() const override { return true; }
  std::uint64_t pending_bytes(EndpointId to) const override;
  const FaultStats* fault_stats_if_any(EndpointId id) const override {
    return &fault_stats(id);
  }
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
    std::uint64_t offered_frames = 0;
    std::array<std::uint64_t, kMaxTags> egress_by_tag{};
    std::array<std::uint64_t, kMaxTags> dropped_by_tag{};
    FaultStats faults;
    bool crashed = false;
    std::uint64_t egress_rate = 0;  // bytes/sec, 0 = unlimited
    SimTime egress_free;            // uplink busy until this time
    Inbox inbox;
    std::uint64_t pending_bytes = 0;  // wire bytes currently in the inbox
    std::uint64_t polled_bytes = 0;
  };

  enum class DropCause { Loss, Disconnect, Crash };

  static std::uint64_t pair_key(EndpointId a, EndpointId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  /// The fault rates applying to frames from->to, or nullptr for none.
  const LinkFaults* active_faults(EndpointId from, EndpointId to) const;
  void account_drop(EndpointState& dst, const Frame& frame, DropCause cause);
  /// Drops (and accounts) every in-flight frame from `from` in `to`'s inbox.
  void drop_in_flight(EndpointId from, EndpointId to, DropCause cause);
  void wipe_inbox(EndpointId id, DropCause cause);
  void corrupt_frame(Frame& frame);

  const SimClock& clock_;
  Rng rng_;
  /// Dedicated stream for fault draws: installing or exercising a fault
  /// plan never perturbs the jitter stream of a fault-free run.
  Rng fault_rng_;
  std::vector<EndpointState> endpoints_;  // index = id (0 unused)
  std::unordered_map<std::uint64_t, LinkParams> links_;        // directed key
  std::unordered_map<std::uint64_t, SimTime> last_arrival_;    // FIFO floor per pair
  FaultPlan plan_;
  std::size_t next_event_ = 0;  // cursor into plan_.events
  std::unordered_map<std::uint64_t, LinkFaults> link_fault_overrides_;  // directed
  std::unordered_map<std::uint64_t, LinkParams> downed_links_;          // directed
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_frames_ = 0;
  std::uint64_t total_dropped_frames_ = 0;
  std::uint64_t total_dropped_bytes_ = 0;
  std::uint64_t next_seq_ = 0;
  Fnv1a wire_hash_;
};

}  // namespace dyconits::net
