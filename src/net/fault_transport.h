// The fault layer (DESIGN.md §8, §13).
//
// `FaultInjectingTransport` is a decorator: it wraps any `Transport` —
// the in-process SimNetwork link model or a real UdpTransport — and
// applies a seeded `FaultPlan` — per-frame loss / duplication /
// corruption / reorder / send-failure draws plus scheduled link-flap /
// partition / crash windows — to frames *before* they reach the inner
// transport. It is the only code that reads a FaultPlan, so the sim chaos
// suites run exactly the fault code that ships on real sockets. The
// faults a run experiences are a pure function of (plan seed, frame offer
// order): the same frames offered in the same order make byte-identical
// fault decisions every run, over any backend.
//
//  * Faults are injected on the SENDING side. A frame "lost in flight" is
//    dropped before the inner transport ever sees it, so the inner egress
//    counters exclude it; the wrapper's own FaultStats (per destination,
//    see faults.h) close the conservation ledger instead.
//  * A duplicate is a second copy sent right behind the original. A
//    reordered frame is held back and released by flush_egress() once its
//    extra delay has passed.
//  * While an endpoint or a pair is down, sends touching it are refused
//    and poll() drops deliveries to or from it (counted as crash or
//    disconnect). Over a real wire this models the REMOTE end being gone;
//    a real local crash is process-level (see --crash-at-tick).
//  * `send_fail` draws model a sender-edge EAGAIN: the datagram vanishes,
//    send() still returns true (real socket failures surface at flush, not
//    send), and the failure is visible through send_pressure() — the hook
//    the overload ladder listens to.
//
// The per-frame decision stream is digested into `decision_hash()`
// (FNV-1a over destination, tag, seq, wire size, and the decision bits),
// which is what the e2e-chaos-udp stage compares across same-seed reruns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/faults.h"
#include "net/transport.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace dyconits::net {

class FaultInjectingTransport final : public Transport {
 public:
  /// Wraps `inner`. `clock` times scheduled windows and reorder holdbacks;
  /// the caller advances it (sim ticks or the free-run pacer).
  FaultInjectingTransport(Transport& inner, SimClock& clock);
  ~FaultInjectingTransport() override;

  /// Installs the plan and reseeds the dedicated fault RNG from it — same
  /// seed, same offered frames, same decisions. Events are applied as the
  /// clock passes them.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }
  /// Heals the links: zeroes every probabilistic rate, send_fail included.
  /// Scheduled events, held frames and the ledger are unaffected.
  void heal_links();
  /// Applies one event now, through the same path scheduled events take.
  void apply_event(const FaultEvent& e);

  Transport& inner() { return inner_; }

  // -- Transport (frame path) --
  EndpointId create_endpoint(std::string name) override;
  const std::string& endpoint_name(EndpointId id) const override;
  bool send(EndpointId from, EndpointId to, Frame frame) override;
  /// The inner transport's deliveries, minus those to or from an endpoint
  /// or pair that is down (counted in the destination's ledger).
  std::vector<Delivery> poll(EndpointId to) override;
  void disconnect(EndpointId a, EndpointId b) override;
  /// False while the pair or either endpoint is down.
  bool connected(EndpointId a, EndpointId b) const override;

  // -- Accounting: delegated. The inner transport counts what actually hit
  // the wire; wrapper-dropped frames appear only in the FaultStats ledger.
  std::uint64_t egress_bytes(EndpointId id) const override;
  std::uint64_t ingress_bytes(EndpointId id) const override;
  std::uint64_t egress_frames(EndpointId id) const override;
  std::uint64_t ingress_frames(EndpointId id) const override;

  // -- Capabilities --
  std::uint64_t pending_bytes(EndpointId to) const override;
  /// The ledger for frames addressed to `id` (see faults.h).
  const FaultStats& fault_stats(EndpointId id) const { return stats_[id]; }
  /// Releases due reordered frames, decays the injected-congestion
  /// estimate, then flushes the inner transport.
  void flush_egress() override;
  SendPressure send_pressure(EndpointId to) const override;

  // -- Introspection (tests, e16, the e2e-chaos-udp determinism check) --
  /// Order-sensitive digest of every fault decision made so far.
  std::uint64_t decision_hash() const { return decision_hash_.value(); }
  /// Frames offered to send() (including refused/dropped ones).
  std::uint64_t frames_offered() const { return injected_totals().offered; }
  /// Frames currently held back by a reorder decision.
  std::size_t frames_held() const { return holdback_.size(); }
  /// Frames and bytes held back for `to`: in flight, for the ledger.
  Tally held(EndpointId to) const;
  /// Injection totals summed over all destinations.
  FaultStats injected_totals() const;

 private:
  struct HeldFrame {
    SimTime due;
    std::uint64_t seq = 0;  // insertion order tiebreak
    EndpointId from = kInvalidEndpoint;
    EndpointId to = kInvalidEndpoint;
    Frame frame;
  };

  enum class DropCause : std::uint8_t { Loss, Disconnect, Crash };

  void advance_events();
  /// Why traffic from->to cannot flow right now, or nullopt if it can.
  std::optional<DropCause> down_cause(EndpointId from, EndpointId to) const;
  /// Drops held frames to or from `a` (b == kInvalidEndpoint), or on the
  /// a<->b pair in either direction.
  void drop_held(EndpointId a, EndpointId b, DropCause cause);
  /// Hands a copy to the inner transport; a refusal is counted.
  bool forward(EndpointId from, EndpointId to, Frame frame, FaultStats& st);
  void corrupt_frame(Frame& frame);
  void mix_decision(EndpointId to, const Frame& f, std::uint8_t bits);
  void account_drop(FaultStats& st, const Frame& f, DropCause cause);
  static std::uint64_t pair_key(EndpointId a, EndpointId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  Transport& inner_;
  SimClock& clock_;
  FaultPlan plan_;
  Rng fault_rng_;
  std::size_t next_event_ = 0;

  /// Unreachable endpoints: Crash (crashed) or Disconnect (a single-named
  /// link event).
  std::unordered_map<EndpointId, DropCause> downed_endpoints_;
  std::unordered_set<std::uint64_t> downed_pairs_;

  std::vector<HeldFrame> holdback_;
  std::uint64_t next_hold_seq_ = 0;

  mutable std::unordered_map<EndpointId, FaultStats> stats_;
  std::unordered_map<EndpointId, std::uint64_t> congested_bytes_;
  std::unordered_map<EndpointId, std::uint64_t> congested_frames_;

  Fnv1a decision_hash_;
};

}  // namespace dyconits::net
