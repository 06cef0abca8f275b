// The transport abstraction the server and bots speak through.
//
// `Transport` is the seam between game logic and packet delivery: both the
// in-process `SimNetwork` (the deterministic oracle every differential
// suite runs on) and `UdpTransport` (real non-blocking sockets, separate
// processes) implement it. The contract is deliberately the *application*
// view of a network: framed messages in, framed deliveries out, per-
// endpoint byte accounting — no link model, no fault injection, no
// sockets. Signals only some backends have (backpressure, send pressure)
// are virtuals with neutral defaults, so callers read them unconditionally
// and degrade gracefully instead of assuming the sim (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/bytes.h"
#include "net/faults.h"
#include "util/sim_time.h"

namespace dyconits::net {

class SharedFrame;

/// Highest message tag value + 1; tags index fixed-size accounting arrays.
inline constexpr std::size_t kMaxTags = 32;

/// A framed message: one tag byte, a transport sequence number, and an
/// opaque payload. On the wire a frame costs
/// tag + varint(seq) + varint(length) + payload bytes — identical whether
/// the bytes are modeled (SimNetwork) or really sent (UdpTransport).
struct Frame {
  std::uint8_t tag = 0;
  /// Per-sender transport sequence number (1-based); 0 means unsequenced.
  /// Receivers use gaps in this to detect loss and trigger a resync
  /// (DESIGN.md §8). Modeled as header-protected: corruption flips
  /// payload bits, never the sequence number.
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;

  /// Instrumentation only (a Yardstick-style measurement tap): the sim time
  /// of the oldest game event this frame carries. Receivers use it to
  /// compute end-to-end update latency. NOT part of wire_size() — a real
  /// deployment would not ship it, and UdpTransport does not.
  SimTime trace_origin;

  std::size_t wire_size() const { return wire_size_for(seq, payload.size()); }

  /// Wire bytes of a frame with this seq and an `n`-byte payload.
  static std::size_t wire_size_for(std::uint32_t seq, std::size_t n) {
    return 1 + varint_size(seq) + varint_size(n) + n;
  }
};

struct Delivery {
  EndpointId from = kInvalidEndpoint;
  Frame frame;
  SimTime sent;     // when send() was called (UDP: receive time — unknowable)
  SimTime arrival;  // when the frame became visible to the receiver
};

/// Send-side congestion counters (see Transport::send_pressure). A backend
/// that can fail to put bytes on the wire — a real socket hitting EAGAIN,
/// or an injected send fault — reports how often and how many bytes are
/// currently believed stuck. `congested_bytes` is a decaying estimate, not
/// a queue length: failed-datagram bytes accumulate and drain as later
/// flushes succeed, so a transient stall fades and a saturated socket holds
/// the signal high.
/// `congested_frames` decays the same way and counts refused send units, so
/// a frame-dominated cost model (net_cost_per_frame >> per-byte cost) still
/// sees backpressure that small frames would hide in the byte estimate.
struct SendPressure {
  std::uint64_t send_failures = 0;     ///< datagrams that failed outright
  std::uint64_t send_retries = 0;      ///< in-call retries after EAGAIN/ENOBUFS
  std::uint64_t dropped_datagrams = 0; ///< gave up after bounded retries
  std::uint64_t congested_bytes = 0;   ///< decaying estimate of stuck bytes
  std::uint64_t congested_frames = 0;  ///< decaying estimate of stuck sends
};

/// Abstract frame transport. Implementations: SimNetwork (in-process link
/// model with simulated latency, deterministic), UdpTransport (real
/// sockets), and FaultInjectingTransport (the fault layer, decorating
/// either).
///
/// Determinism boundary: everything ABOVE this interface — which frames are
/// sent, their order per destination, their tag/payload bytes — is a pure
/// function of simulation state. Everything below (arrival timing,
/// interleaving across senders, loss) is backend-specific. The per-session
/// WireHasher digests live above the boundary, which is what makes a UDP
/// run comparable bit-for-bit against the sim oracle (DESIGN.md §12).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers a named endpoint and returns its id (ids are backend-local;
  /// only names are comparable across backends).
  virtual EndpointId create_endpoint(std::string name) = 0;
  virtual const std::string& endpoint_name(EndpointId id) const = 0;

  /// Sends a frame. Returns false if the destination is unreachable as far
  /// as the sender can know (no link / no peer); true for frames that got
  /// on the wire, even ones later lost — the sender cannot know.
  virtual bool send(EndpointId from, EndpointId to, Frame frame) = 0;

  /// Sends one recipient's copy of a broadcast payload (DESIGN.md §11):
  /// `shared`'s tag and bytes under this recipient's `seq` and
  /// `trace_origin`, with the same result and wire bytes as send() of that
  /// frame. The default stamps shared.instance() — an owned pooled copy —
  /// and calls send(); SimNetwork keeps it because its inbox must own
  /// frames, and FaultInjectingTransport because it corrupts one
  /// recipient's copy. UdpTransport overrides it to append the borrowed
  /// bytes straight into the peer's datagram staging, and a wrapper must
  /// forward it to keep that path. `shared` is read only during the call.
  virtual bool send_shared(EndpointId from, EndpointId to, const SharedFrame& shared,
                           std::uint32_t seq, SimTime trace_origin);

  /// All frames currently deliverable to `to`, in arrival order.
  virtual std::vector<Delivery> poll(EndpointId to) = 0;

  virtual void disconnect(EndpointId a, EndpointId b) = 0;
  virtual bool connected(EndpointId a, EndpointId b) const = 0;

  // -- Accounting (monotonic wire-byte counters over the whole run) --
  virtual std::uint64_t egress_bytes(EndpointId id) const = 0;
  virtual std::uint64_t ingress_bytes(EndpointId id) const = 0;
  virtual std::uint64_t egress_frames(EndpointId id) const = 0;
  virtual std::uint64_t ingress_frames(EndpointId id) const = 0;

  // -- Optional capabilities (DESIGN.md §12) --
  //
  // A backend that cannot observe a signal keeps the neutral default, and
  // overload control runs on what the server owns: staged egress bytes and
  // its tick cost.

  /// Backpressure toward `to`, in wire bytes; 0 without visibility. The sim
  /// owns both ends of the wire and reports the remote inbox (enqueued, not
  /// yet polled); UdpTransport cannot see the remote socket buffer but
  /// reports a *local* congestion signal (staged bytes plus a decaying
  /// estimate of bytes that failed to send).
  virtual std::uint64_t pending_bytes(EndpointId to) const {
    (void)to;
    return 0;
  }
  /// Pushes any coalesced/staged datagrams onto the wire. The sim sends
  /// synchronously, so the default is a no-op; UdpTransport batches frames
  /// into MTU-sized datagrams and the fault layer releases reordered
  /// frames here (call once per tick).
  virtual void flush_egress() {}

  /// Per-destination send-failure counters (see SendPressure); all-zero on
  /// the sim, whose wire never refuses a send. UdpTransport and
  /// FaultInjectingTransport count EAGAIN / injected send faults, which
  /// GameServer charges to its modeled tick cost so real socket saturation
  /// climbs the degradation ladder. Pass kInvalidEndpoint for the totals.
  virtual SendPressure send_pressure(EndpointId to) const {
    (void)to;
    return {};
  }
};

/// Byte-wise 64-bit FNV-1a. Every order-sensitive digest in the net layer
/// (WireHasher, SimNetwork::wire_hash, FaultInjectingTransport's decision
/// hash), and the test and bench fingerprints, are built from this one
/// definition.
class Fnv1a {
 public:
  void byte(std::uint8_t b) { h_ = (h_ ^ b) * kPrime; }
  /// All eight bytes of `v`, least significant first.
  void u64(std::uint64_t v) {
    std::uint64_t h = h_;
    for (int i = 0; i < 8; ++i, v >>= 8) h = (h ^ (v & 0xffu)) * kPrime;
    h_ = h;
  }
  void bytes(const std::uint8_t* p, std::size_t n) {
    std::uint64_t h = h_;  // local copy: the input bytes may alias h_
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kPrime;
    h_ = h;
  }
  std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h_ = 14695981039346656037ull;  // offset basis
};

/// Order-sensitive FNV-1a digest over (tag, payload-length, payload) of
/// every frame mixed in — computed ABOVE the transport, before seq stamping
/// and fragmentation, so the same application byte stream hashes equally
/// over SimNetwork and UdpTransport. The e2e equivalence check (scripts/
/// verify.sh e2e-udp) compares these per session between a UDP run and the
/// sim prediction.
class WireHasher {
 public:
  void mix(std::uint8_t tag, const std::uint8_t* payload, std::size_t n) {
    hash_.byte(tag);
    hash_.u64(n);
    hash_.bytes(payload, n);
    ++frames_;
  }
  void mix(std::uint8_t tag, const std::vector<std::uint8_t>& payload) {
    mix(tag, payload.data(), payload.size());
  }
  void mix(const Frame& f) { mix(f.tag, f.payload); }

  std::uint64_t value() const { return hash_.value(); }
  std::uint64_t frames() const { return frames_; }

 private:
  Fnv1a hash_;
  std::uint64_t frames_ = 0;
};

}  // namespace dyconits::net
