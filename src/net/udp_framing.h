// UDP datagram framing: the pure (socket-free) half of UdpTransport.
//
// A datagram is one kind byte followed by a kind-specific body:
//   Data      [tag u8][seq varint][len varint][payload]...   (>= 1 frame)
//   Fragment  [msg_id varint][index varint][count varint][chunk blob]
//   Keepalive (empty)   -- refreshes the peer's idle timer
//   Bye       (empty)   -- explicit disconnect
//
// The per-frame encoding inside a Data body is byte-for-byte the wire cost
// SimNetwork models (Frame::wire_size()), so byte accounting agrees across
// backends. Frames whose encoding exceeds the MTU budget are split into
// Fragment datagrams carrying slices of that same encoding; the receiver
// reassembles by (msg_id, index) and then parses the restored encoding as
// if it had arrived whole. Everything here is deterministic and
// allocation-disciplined (payloads from BufferPool), and is unit-tested
// without sockets in tests/transport_test.cpp (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "util/sim_time.h"

namespace dyconits::net::udpwire {

enum class DatagramKind : std::uint8_t {
  Data = 1,
  Fragment = 2,
  Keepalive = 3,
  Bye = 4,
};

/// Default datagram payload budget: conservative for 1500-byte Ethernet
/// minus IP/UDP headers and tunnel slop.
inline constexpr std::size_t kDefaultMtu = 1400;

/// A fragmented frame can span at most this many datagrams; reassembly
/// rejects hostile counts beyond it (64 KiB payloads at the default MTU
/// fit in ~48 fragments).
inline constexpr std::size_t kMaxFragments = 1024;

/// Worst-case Fragment body overhead: kind byte + three varints + the
/// chunk-blob length prefix. Used to size chunks so any fragment fits MTU.
inline constexpr std::size_t kFragmentOverhead = 1 + 5 + 3 + 3 + 3;

/// Appends one frame's wire encoding (tag, seq varint, length varint, the
/// `n` payload bytes read in place) to `out`. Exactly Frame::wire_size()
/// bytes.
void append_frame(std::vector<std::uint8_t>& out, std::uint8_t tag, std::uint32_t seq,
                  const std::uint8_t* payload, std::size_t n);
inline void append_frame(std::vector<std::uint8_t>& out, const Frame& f) {
  append_frame(out, f.tag, f.seq, f.payload.data(), f.payload.size());
}

/// Parses a Data datagram body (everything after the kind byte) into
/// frames. Payload buffers are acquired from BufferPool. Returns false if
/// trailing bytes were malformed — frames parsed before the damage are
/// kept.
bool parse_frames(const std::uint8_t* body, std::size_t n, std::vector<Frame>& out);

/// Splits one frame (its `n` payload bytes read in place) into ready-to-send
/// Fragment datagrams (kind byte included). `mtu` is the max datagram size;
/// the frame's encoding must need more than one chunk, i.e. call only when
/// its wire_size() + 1 > mtu. Returns empty if the split would exceed
/// kMaxFragments.
std::vector<std::vector<std::uint8_t>> fragment_frame(std::uint8_t tag, std::uint32_t seq,
                                                      const std::uint8_t* payload,
                                                      std::size_t n, std::size_t mtu,
                                                      std::uint32_t msg_id);
inline std::vector<std::vector<std::uint8_t>> fragment_frame(const Frame& f,
                                                             std::size_t mtu,
                                                             std::uint32_t msg_id) {
  return fragment_frame(f.tag, f.seq, f.payload.data(), f.payload.size(), mtu, msg_id);
}

struct ReassemblyStats {
  std::uint64_t completed = 0;          // frames restored from fragments
  std::uint64_t duplicate_fragments = 0;
  std::uint64_t malformed = 0;          // inconsistent header / bad restored frame
  std::uint64_t stale_dropped = 0;      // partials that timed out (lost fragment)
};

/// Per-peer fragment reassembly. Feed every Fragment datagram body; a
/// completed message parses back into the original Frame. Partials that
/// stay incomplete past `timeout` are garbage-collected — frame loss is
/// then surfaced to the application as a sequence gap, and the existing
/// resync machinery (DESIGN.md §8) repairs the replica.
class Reassembler {
 public:
  explicit Reassembler(SimDuration timeout = SimDuration::seconds(5))
      : timeout_(timeout) {}

  /// `body`/`n` is the Fragment datagram body (after the kind byte);
  /// `now` is the receiver's clock (wall-driven in UdpTransport). Returns
  /// the restored frame when this fragment completes its message.
  std::optional<Frame> feed(const std::uint8_t* body, std::size_t n, SimTime now);

  /// Drops partial messages whose first fragment is older than timeout.
  void gc(SimTime now);

  std::size_t partial_count() const { return partials_.size(); }
  const ReassemblyStats& stats() const { return stats_; }

 private:
  struct Partial {
    std::vector<std::vector<std::uint8_t>> parts;
    std::size_t received = 0;
    SimTime first_seen;
  };

  SimDuration timeout_;
  std::unordered_map<std::uint32_t, Partial> partials_;
  ReassemblyStats stats_;
};

}  // namespace dyconits::net::udpwire
