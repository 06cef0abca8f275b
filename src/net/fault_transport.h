// Deterministic fault injection for REAL transports (DESIGN.md §13).
//
// `FaultInjectingTransport` is a decorator: it wraps any `Transport`
// (in practice `UdpTransport`) and applies the same seeded `FaultPlan`
// grammar the sim wire understands — per-frame loss / duplication /
// corruption / reorder draws plus scheduled link-flap / partition /
// crash windows — to frames *before* they reach the inner transport.
// That extends the chaos guarantees from the simulated network to real
// sockets and separate processes: the faults a run experiences are a pure
// function of (plan seed, frame offer order), so the same process offered
// the same frames makes byte-identical fault decisions every run.
//
// Differences from the sim's fault layer, all forced by only owning one
// end of the wire:
//
//  * Faults are injected on the SENDING side. A frame "lost in flight" is
//    dropped before the inner transport ever sees it, so the inner egress
//    counters exclude it; the wrapper's own FaultStats (per destination)
//    close the conservation ledger instead.
//  * Scheduled Crash/Restart events model the REMOTE end being gone: sends
//    into the window are refused, exactly like the sim's crashed-endpoint
//    refusal. (A real local crash is process-level — see --crash-at-tick.)
//  * `send_fail` draws model a sender-edge EAGAIN: the datagram vanishes,
//    send() still returns true (real socket failures surface at flush, not
//    send), and the failure is visible only through send_pressure() — the
//    hook the overload ladder listens to.
//
// The per-frame decision stream is digested into `decision_hash()`
// (FNV-1a over destination, tag, seq, wire size, and the decision bits),
// which is what the e2e-chaos-udp stage compares across same-seed reruns.
#pragma once

#include <cstdint>
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

  /// Installs the plan and reseeds the dedicated fault RNG from it, exactly
  /// like SimNetwork::set_fault_plan — same seed, same offered frames, same
  /// decisions. Events are applied as the clock passes them.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  Transport& inner() { return inner_; }

  // -- Transport (frame path) --
  EndpointId create_endpoint(std::string name) override;
  const std::string& endpoint_name(EndpointId id) const override;
  bool send(EndpointId from, EndpointId to, Frame frame) override;
  std::vector<Delivery> poll(EndpointId to) override;
  void disconnect(EndpointId a, EndpointId b) override;
  bool connected(EndpointId a, EndpointId b) const override;

  // -- Accounting: delegated. The inner transport counts what actually hit
  // the wire; wrapper-dropped frames appear only in the FaultStats ledger.
  std::uint64_t egress_bytes(EndpointId id) const override;
  std::uint64_t ingress_bytes(EndpointId id) const override;
  std::uint64_t egress_frames(EndpointId id) const override;
  std::uint64_t ingress_frames(EndpointId id) const override;

  // -- Capabilities --
  bool has_backlog_signal() const override;
  std::uint64_t pending_bytes(EndpointId to) const override;
  /// The wrapper's own injection ledger for frames addressed to `id`
  /// (sender-side, unlike the sim's receiver-side stats — see header).
  const FaultStats* fault_stats_if_any(EndpointId id) const override;
  /// Releases due reordered frames, decays the injected-congestion
  /// estimate, then flushes the inner transport.
  void flush_egress() override;
  bool has_send_pressure() const override { return true; }
  SendPressure send_pressure(EndpointId to) const override;

  // -- Introspection (tests, e16, the e2e-chaos-udp determinism check) --
  /// Order-sensitive digest of every fault decision made so far.
  std::uint64_t decision_hash() const { return decision_hash_.value(); }
  /// Frames offered to send() (including refused/dropped ones).
  std::uint64_t frames_offered() const { return frames_offered_; }
  /// Frames currently held back by a reorder decision.
  std::size_t frames_held() const { return holdback_.size(); }
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

  void advance_events();
  void apply_event(const FaultEvent& e);
  bool endpoint_down(EndpointId id) const;
  bool link_down(EndpointId a, EndpointId b) const;
  void drop_held(EndpointId id, bool crash);
  void corrupt_frame(Frame& frame);
  enum class DropCause : std::uint8_t { Loss, Disconnect, Crash };
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

  std::unordered_set<EndpointId> downed_endpoints_;
  std::unordered_set<std::uint64_t> downed_pairs_;

  std::vector<HeldFrame> holdback_;
  std::uint64_t next_hold_seq_ = 0;

  mutable std::unordered_map<EndpointId, FaultStats> stats_;
  std::unordered_map<EndpointId, std::uint64_t> congested_bytes_;
  std::unordered_map<EndpointId, std::uint64_t> congested_frames_;
  std::uint64_t injected_send_failures_ = 0;

  Fnv1a decision_hash_;
  std::uint64_t frames_offered_ = 0;
};

}  // namespace dyconits::net
