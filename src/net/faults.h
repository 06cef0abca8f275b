// The fault model shared by every transport (DESIGN.md §8, §13).
//
// `FaultInjectingTransport` (fault_transport.h) is the one fault layer: it
// wraps any Transport — the in-process SimNetwork or a real UdpTransport —
// and applies a FaultPlan in two deterministic layers:
//
//  * per-link probabilistic faults (LinkFaults): every frame independently
//    drawn against loss / duplication / corruption / reorder probabilities
//    from a dedicated fault RNG stream, so a fault schedule replays
//    byte-identically from its seed and the link model's jitter stream is
//    untouched;
//  * scheduled events (FaultEvent): link flaps, bidirectional partitions,
//    and endpoint crash/restart pinned to simulated-time instants.
//
// The fault layer keeps one ledger (FaultStats), counted where frames are
// offered and keyed by destination, and every copy it accepts ends up
// delivered, dropped for a counted cause, or still in flight — see
// ledger_in()/ledger_out() below.
#pragma once

#include <cstdint>
#include <vector>

#include "util/sim_time.h"

namespace dyconits::net {

using EndpointId = std::uint32_t;
inline constexpr EndpointId kInvalidEndpoint = 0;

/// Per-frame fault probabilities on a link, applied in a fixed draw order
/// (loss, duplicate, corrupt, reorder) so the RNG stream is reproducible.
struct LinkFaults {
  double loss = 0.0;       ///< frame silently dropped in flight
  double duplicate = 0.0;  ///< frame delivered twice
  double corrupt = 0.0;    ///< payload bit flips (decode must reject)
  double reorder = 0.0;    ///< frame held back and released late
  /// Extra delay ceiling for a reordered frame: uniform in [0, reorder_extra].
  SimDuration reorder_extra = SimDuration::millis(120);
  /// Probability the *send itself* fails (a modeled EAGAIN: the datagram
  /// never reaches the wire and the sender knows). Drawn after the four
  /// rates above, and only when non-zero. It is kept out of any() so a
  /// plan with only send failures makes no other draws, which keeps the
  /// decision stream of every existing plan as it was.
  double send_fail = 0.0;

  bool any() const {
    return loss > 0.0 || duplicate > 0.0 || corrupt > 0.0 || reorder > 0.0;
  }
};

/// A scheduled fault pinned to a simulated-time instant. Link events name
/// both endpoints (or only `a`: the whole endpoint is unreachable);
/// endpoint events use `a` only.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    LinkDown,  ///< cut the a<->b link; held and arriving frames drop
    LinkUp,    ///< restore the link (the link model never changed)
    Crash,     ///< endpoint a dies: traffic to/from it refused or dropped
    Restart,   ///< endpoint a comes back (state loss is the app's problem)
  };

  SimTime at;
  Kind kind = Kind::LinkDown;
  EndpointId a = kInvalidEndpoint;
  EndpointId b = kInvalidEndpoint;
};

/// A complete, replayable fault schedule: a seed for the fault RNG stream,
/// per-link fault rates, and scheduled events (applied in time order as
/// the clock advances past them).
struct FaultPlan {
  std::uint64_t seed = 1;
  LinkFaults all_links;
  std::vector<FaultEvent> events;

  bool empty() const { return !all_links.any() && events.empty(); }
};

/// Frames that entered the fault layer but were never delivered. The cause
/// counters partition `frames` and the `*_bytes` counters partition
/// `bytes` the same way, so conservation closes in bytes too.
struct DropStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t loss = 0;        ///< random in-flight loss
  std::uint64_t disconnect = 0;  ///< held or arriving while the link was down
  std::uint64_t crash = 0;       ///< held or arriving while an end was crashed
  std::uint64_t loss_bytes = 0;
  std::uint64_t disconnect_bytes = 0;
  std::uint64_t crash_bytes = 0;
};

/// The fault layer's ledger for one destination. Every frame offered to
/// send() for it is counted once in `offered`; each duplicate adds one more
/// copy. Refused sends (an endpoint or the pair is down, or the inner
/// transport has no route) and injected send failures never reach the
/// wire, so they are not drops.
struct FaultStats {
  std::uint64_t offered = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t refused = 0;
  std::uint64_t refused_bytes = 0;
  std::uint64_t send_failed = 0;
  std::uint64_t send_failed_bytes = 0;
  std::uint64_t duplicated = 0;  ///< extra copies put on the wire
  std::uint64_t duplicated_bytes = 0;
  std::uint64_t delivered = 0;  ///< copies poll() returned to the destination
  std::uint64_t delivered_bytes = 0;
  DropStats dropped;
  std::uint64_t corrupted = 0;
  std::uint64_t reordered = 0;
};

/// A frame count with its wire bytes: one side of the ledger identity.
struct Tally {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;

  Tally operator+(const Tally& o) const { return {frames + o.frames, bytes + o.bytes}; }
  bool operator==(const Tally&) const = default;
};

/// The ledger identity, in frames and in bytes:
///
///   offered + duplicated
///     == refused + send_failed + dropped + delivered + in_flight
///
/// ledger_in() is the left side. ledger_out() is the right side, given
/// what the destination received and what is still in flight (held for
/// reorder, or inside the inner transport). When one fault layer both
/// sends and polls, as in the sim, `delivered` is its own count (see
/// delivered()); across a real wire the receiving process counts it.
inline Tally ledger_in(const FaultStats& s) {
  return {s.offered + s.duplicated, s.offered_bytes + s.duplicated_bytes};
}
inline Tally delivered(const FaultStats& s) { return {s.delivered, s.delivered_bytes}; }
inline Tally ledger_out(const FaultStats& s, Tally received, Tally in_flight) {
  return Tally{s.refused + s.send_failed + s.dropped.frames,
               s.refused_bytes + s.send_failed_bytes + s.dropped.bytes} +
         received + in_flight;
}

}  // namespace dyconits::net
