// Real-socket Transport backend: non-blocking UDP + epoll (DESIGN.md §12).
//
// One socket per process. The first create_endpoint() names the local
// endpoint; remote endpoints are either registered explicitly with
// add_peer(host, port) (clients naming their server) or auto-registered
// when a datagram arrives from an unknown source address (the server
// learning its clients). Frames keep the exact wire encoding SimNetwork
// models — send() and send_shared() coalesce them into MTU-sized Data
// datagrams flushed by flush_egress(), oversized frames are split by
// udpwire::fragment_frame and reassembled on the far side, and
// loss/reorder surfaces to the application as the same sequence gaps the
// fault layer produces, repaired by the existing resync machinery.
// Liveness is wall-clock: periodic Keepalive datagrams refresh per-peer
// idle timers, and a peer silent past idle_timeout is disconnected.
//
// Delivery timestamps (sent/arrival) are stamped from the *application*
// SimClock at pump() time — each process owns its clock, and cross-process
// wall time is not meaningfully comparable to simulated time. trace_origin
// is not shipped (see net::Frame); latency taps read 0 over UDP.
//
// Linux-only (epoll). On other platforms, or if socket setup fails,
// valid() is false and error() says why — callers fall back to SimNetwork.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "net/udp_framing.h"
#include "util/sim_time.h"

namespace dyconits::net {

struct UdpConfig {
  std::string bind_host = "127.0.0.1";
  /// 0 = ephemeral; read the chosen port back with local_port().
  std::uint16_t bind_port = 0;
  std::size_t mtu = udpwire::kDefaultMtu;
  /// Wall-clock cadence of Keepalive datagrams to peers we are otherwise
  /// silent toward. Zero disables keepalives.
  SimDuration keepalive_interval = SimDuration::millis(500);
  /// Wall-clock silence after which a peer is considered gone. Zero
  /// disables idle disconnects (lockstep runs that may pause arbitrarily).
  SimDuration idle_timeout = SimDuration::seconds(10);
  int rcvbuf_bytes = 1 << 20;
  int sndbuf_bytes = 1 << 20;
  /// Transient sendto failures (EAGAIN/ENOBUFS/EINTR) are retried in-call
  /// up to this many times with a short escalating pause — a full socket
  /// buffer usually drains in microseconds. Past the limit the datagram is
  /// dropped and the per-peer pressure counters record it.
  int send_retry_limit = 3;
  /// Pause before retry k is k * this (kept tiny: it runs inside the tick).
  std::int64_t send_retry_backoff_us = 50;
};

/// Datagram-level counters (frame-level accounting lives in Transport).
struct UdpStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagram_bytes_sent = 0;
  std::uint64_t datagram_bytes_received = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t frames_reassembled = 0;
  std::uint64_t keepalives_sent = 0;
  std::uint64_t keepalives_received = 0;
  std::uint64_t malformed_datagrams = 0;
  std::uint64_t send_failures = 0;  ///< datagrams dropped after retries
  std::uint64_t send_retries = 0;   ///< in-call retries after EAGAIN/ENOBUFS
  std::uint64_t idle_disconnects = 0;
  /// Dead peers brought back by a datagram from their address — the
  /// receiving half of crash-restart recovery (a restarted remote keeps
  /// its address; its traffic must not be blackholed by a stale Bye).
  std::uint64_t peer_revivals = 0;
};

class UdpTransport final : public Transport {
 public:
  /// Binds the socket immediately; check valid() before use. `app_clock` is
  /// the process's simulation clock, used only to stamp deliveries.
  UdpTransport(const SimClock& app_clock, UdpConfig cfg);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  bool valid() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }
  /// The actually bound port (resolves bind_port == 0).
  std::uint16_t local_port() const { return local_port_; }

  /// Registers a remote peer by address, before any traffic from it.
  /// `name` is a placeholder until the application learns better (names
  /// are app-level over UDP; only the sim knows true remote names).
  EndpointId add_peer(const std::string& host, std::uint16_t port, std::string name);

  /// Services the socket: drains readable datagrams into the inbox and runs
  /// keepalive/idle/reassembly housekeeping. Blocks up to `timeout_ms` in
  /// epoll_wait for the first datagram (0 = non-blocking poll). Call
  /// between ticks; poll() then hands the frames to the application.
  void pump(int timeout_ms);

  /// Closes the socket WITHOUT flushing staged data or sending Bye
  /// datagrams — the crash half of crash-restart testing. Peers find out
  /// the hard way (missed keepalives), exactly like a real process death.
  void close_abruptly();

  const UdpStats& stats() const { return stats_; }
  /// Remote peers registered so far (alive or not; peers are never erased).
  std::size_t peer_count() const { return peers_.size(); }

  // -- Transport --
  EndpointId create_endpoint(std::string name) override;
  const std::string& endpoint_name(EndpointId id) const override;
  bool send(EndpointId from, EndpointId to, Frame frame) override;
  /// Appends the borrowed payload bytes straight into the peer's datagram
  /// staging (or fragments them in place): no pooled copy per recipient.
  bool send_shared(EndpointId from, EndpointId to, const SharedFrame& shared,
                   std::uint32_t seq, SimTime trace_origin) override;
  std::vector<Delivery> poll(EndpointId to) override;
  void disconnect(EndpointId a, EndpointId b) override;
  bool connected(EndpointId a, EndpointId b) const override;
  std::uint64_t egress_bytes(EndpointId id) const override;
  std::uint64_t ingress_bytes(EndpointId id) const override;
  std::uint64_t egress_frames(EndpointId id) const override;
  std::uint64_t ingress_frames(EndpointId id) const override;
  void flush_egress() override;
  /// UDP cannot see the remote socket buffer, but it CAN see its own send
  /// path congesting: pending_bytes(to) is the peer's staged bytes plus a
  /// decaying estimate of bytes whose datagrams failed to send. That local
  /// signal feeds GameServer's backlog detection the same way the sim's
  /// remote-inbox signal does (DESIGN.md §13).
  std::uint64_t pending_bytes(EndpointId to) const override;
  SendPressure send_pressure(EndpointId to) const override;

 private:
  struct Peer {
    std::string name;
    std::uint32_t addr_ip = 0;    // network byte order
    std::uint16_t addr_port = 0;  // network byte order
    bool alive = true;
    /// Pending Data datagram: kind byte + coalesced frame encodings.
    std::vector<std::uint8_t> staging;
    std::uint32_t next_msg_id = 1;  // fragment message ids, per peer
    udpwire::Reassembler reasm;
    SimTime last_heard;  // wall timebase
    SimTime last_sent;   // wall timebase
    std::uint64_t egress_bytes = 0;
    std::uint64_t ingress_bytes = 0;
    std::uint64_t egress_frames = 0;
    std::uint64_t ingress_frames = 0;
    // Send-pressure ledger (see Transport::send_pressure).
    std::uint64_t send_failures = 0;
    std::uint64_t send_retries = 0;
    std::uint64_t dropped_datagrams = 0;
    std::uint64_t congested_bytes = 0;  ///< decays 25% per flush_egress()
    /// Refused send units, same decay. One per dropped datagram — a lower
    /// bound when frames were coalesced, but the refused work the frame-cost
    /// model needs to see (Transport::SendPressure::congested_frames).
    std::uint64_t congested_frames = 0;
  };

  SimTime wall_now() const;
  Peer* peer_of(EndpointId id);
  const Peer* peer_of(EndpointId id) const;
  EndpointId peer_by_addr(std::uint32_t ip, std::uint16_t port);
  /// The one staging path under both sends: accounts the frame's wire
  /// size, then coalesces its encoding into the peer's pending Data
  /// datagram, or fragments it when it cannot fit one. Reads `payload`
  /// only during the call.
  bool stage(EndpointId from, EndpointId to, std::uint8_t tag, std::uint32_t seq,
             const std::vector<std::uint8_t>& payload);
  void flush_peer(EndpointId id, Peer& p);
  void raw_send(Peer& p, const std::uint8_t* data, std::size_t n);
  void handle_datagram(EndpointId from, Peer& p, const std::uint8_t* data, std::size_t n);
  void housekeeping();

  const SimClock& app_clock_;
  UdpConfig cfg_;
  int fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::string error_;
  std::int64_t wall_start_micros_ = 0;
  SimTime last_housekeeping_;

  EndpointId local_ = kInvalidEndpoint;
  std::string local_name_;
  EndpointId next_id_ = 1;
  std::unordered_map<EndpointId, Peer> peers_;
  std::unordered_map<std::uint64_t, EndpointId> by_addr_;  // (ip<<16)|port

  std::vector<Delivery> inbox_;  // arrival order, drained by poll(local)
  std::vector<Frame> parse_scratch_;  // one Data datagram's frames; keeps capacity
  UdpStats stats_;
};

}  // namespace dyconits::net
