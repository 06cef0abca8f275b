#include "net/udp_transport.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "net/buffer_pool.h"
#include "net/shared_frame.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <time.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace dyconits::net {

namespace {

constexpr std::uint8_t kData = static_cast<std::uint8_t>(udpwire::DatagramKind::Data);
constexpr std::uint8_t kFragment = static_cast<std::uint8_t>(udpwire::DatagramKind::Fragment);
constexpr std::uint8_t kKeepalive = static_cast<std::uint8_t>(udpwire::DatagramKind::Keepalive);
constexpr std::uint8_t kBye = static_cast<std::uint8_t>(udpwire::DatagramKind::Bye);

std::uint64_t addr_key(std::uint32_t ip, std::uint16_t port) {
  return (static_cast<std::uint64_t>(ip) << 16) | port;
}

void reset_staging(std::vector<std::uint8_t>& staging) {
  staging.clear();
  staging.push_back(kData);
}

}  // namespace

UdpTransport::UdpTransport(const SimClock& app_clock, UdpConfig cfg)
    : app_clock_(app_clock), cfg_(std::move(cfg)) {
  wall_start_micros_ = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
#if defined(__linux__)
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &cfg_.rcvbuf_bytes, sizeof(cfg_.rcvbuf_bytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &cfg_.sndbuf_bytes, sizeof(cfg_.sndbuf_bytes));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.bind_port);
  if (::inet_pton(AF_INET, cfg_.bind_host.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad bind host (numeric IPv4 only): " + cfg_.bind_host;
    ::close(fd_);
    fd_ = -1;
    return;
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  local_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    error_ = std::string("epoll_create1: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd_, &ev);
#else
  error_ = "UdpTransport requires Linux (epoll)";
#endif
}

UdpTransport::~UdpTransport() {
#if defined(__linux__)
  if (fd_ >= 0) {
    for (auto& [id, p] : peers_) {
      if (!p.alive || p.addr_port == 0) continue;
      flush_peer(id, p);
      raw_send(p, &kBye, 1);
    }
    ::close(fd_);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
#endif
  for (auto& d : inbox_) BufferPool::instance().release(std::move(d.frame.payload));
}

SimTime UdpTransport::wall_now() const {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
  return SimTime(now - wall_start_micros_);
}

UdpTransport::Peer* UdpTransport::peer_of(EndpointId id) {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : &it->second;
}

const UdpTransport::Peer* UdpTransport::peer_of(EndpointId id) const {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : &it->second;
}

EndpointId UdpTransport::create_endpoint(std::string name) {
  if (local_ == kInvalidEndpoint) {
    local_ = next_id_++;
    local_name_ = std::move(name);
    return local_;
  }
  // Extra local endpoints make no sense on a one-socket backend; register a
  // dead placeholder so misuse is visible (sends to/from it fail) rather
  // than silently aliasing the socket.
  EndpointId id = next_id_++;
  Peer p;
  p.name = std::move(name);
  p.alive = false;
  reset_staging(p.staging);
  peers_.emplace(id, std::move(p));
  return id;
}

const std::string& UdpTransport::endpoint_name(EndpointId id) const {
  static const std::string kUnknown = "?";
  if (id == local_) return local_name_;
  const Peer* p = peer_of(id);
  return p ? p->name : kUnknown;
}

EndpointId UdpTransport::add_peer(const std::string& host, std::uint16_t port,
                                  std::string name) {
#if defined(__linux__)
  in_addr ip{};
  if (::inet_pton(AF_INET, host.c_str(), &ip) != 1) return kInvalidEndpoint;
  EndpointId id = next_id_++;
  Peer p;
  p.name = std::move(name);
  p.addr_ip = ip.s_addr;
  p.addr_port = htons(port);
  p.last_heard = wall_now();
  p.last_sent = p.last_heard;
  reset_staging(p.staging);
  by_addr_[addr_key(p.addr_ip, p.addr_port)] = id;
  peers_.emplace(id, std::move(p));
  return id;
#else
  (void)host;
  (void)port;
  (void)name;
  return kInvalidEndpoint;
#endif
}

EndpointId UdpTransport::peer_by_addr(std::uint32_t ip, std::uint16_t port) {
  auto it = by_addr_.find(addr_key(ip, port));
  if (it != by_addr_.end()) return it->second;
  EndpointId id = next_id_++;
  Peer p;
#if defined(__linux__)
  char buf[INET_ADDRSTRLEN] = "?";
  in_addr a{};
  a.s_addr = ip;
  ::inet_ntop(AF_INET, &a, buf, sizeof(buf));
  p.name = std::string("udp:") + buf + ":" + std::to_string(ntohs(port));
#endif
  p.addr_ip = ip;
  p.addr_port = port;
  p.last_heard = wall_now();
  p.last_sent = p.last_heard;
  reset_staging(p.staging);
  by_addr_[addr_key(ip, port)] = id;
  peers_.emplace(id, std::move(p));
  return id;
}

bool UdpTransport::send(EndpointId from, EndpointId to, Frame frame) {
  const bool sent = stage(from, to, frame.tag, frame.seq, frame.payload);
  BufferPool::instance().release(std::move(frame.payload));
  return sent;
}

bool UdpTransport::send_shared(EndpointId from, EndpointId to, const SharedFrame& shared,
                               std::uint32_t seq, SimTime trace_origin) {
  (void)trace_origin;  // not shipped over UDP (see net::Frame)
  return stage(from, to, shared.tag(), seq, shared.payload());
}

bool UdpTransport::stage(EndpointId from, EndpointId to, std::uint8_t tag,
                         std::uint32_t seq, const std::vector<std::uint8_t>& payload) {
  if (from != local_ || fd_ < 0) return false;
  Peer* p = peer_of(to);
  if (!p || !p->alive || p->addr_port == 0) return false;

  // Frame-level accounting mirrors SimNetwork: the modeled wire cost of the
  // stamped frame, independent of datagram packing.
  const std::size_t n = payload.size();
  const std::size_t wire = Frame::wire_size_for(seq, n);
  p->egress_bytes += wire;
  ++p->egress_frames;

  if (wire + 1 > cfg_.mtu) {
    flush_peer(to, *p);
    auto datagrams =
        udpwire::fragment_frame(tag, seq, payload.data(), n, cfg_.mtu, p->next_msg_id++);
    for (const auto& d : datagrams) raw_send(*p, d.data(), d.size());
    stats_.fragments_sent += datagrams.size();
  } else {
    if (p->staging.size() + wire > cfg_.mtu) flush_peer(to, *p);
    udpwire::append_frame(p->staging, tag, seq, payload.data(), n);
  }
  return true;
}

void UdpTransport::flush_peer(EndpointId id, Peer& p) {
  (void)id;
  if (p.staging.size() <= 1) return;
  raw_send(p, p.staging.data(), p.staging.size());
  reset_staging(p.staging);
}

void UdpTransport::raw_send(Peer& p, const std::uint8_t* data, std::size_t n) {
#if defined(__linux__)
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = p.addr_ip;
  addr.sin_port = p.addr_port;

  // Transient failures (a momentarily full socket buffer) get a bounded
  // retry with an escalating microsleep; anything else — and anything still
  // failing past the limit — drops the datagram and charges the peer's
  // pressure ledger. The application never blocks on a dead wire.
  for (int attempt = 0;; ++attempt) {
    const ssize_t sent =
        ::sendto(fd_, data, n, 0, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (sent >= 0) {
      ++stats_.datagrams_sent;
      stats_.datagram_bytes_sent += n;
      p.last_sent = wall_now();
      return;
    }
    const bool transient = errno == EAGAIN || errno == EWOULDBLOCK ||
                           errno == ENOBUFS || errno == EINTR;
    if (!transient || attempt >= cfg_.send_retry_limit) break;
    ++stats_.send_retries;
    ++p.send_retries;
    if (cfg_.send_retry_backoff_us > 0) {
      timespec ts{};
      const std::int64_t us = cfg_.send_retry_backoff_us * (attempt + 1);
      ts.tv_sec = us / 1000000;
      ts.tv_nsec = (us % 1000000) * 1000;
      ::nanosleep(&ts, nullptr);
    }
  }
  ++stats_.send_failures;
  ++p.send_failures;
  ++p.dropped_datagrams;
  p.congested_bytes += n;
  ++p.congested_frames;
#else
  (void)p;
  (void)data;
  (void)n;
#endif
}

void UdpTransport::flush_egress() {
  for (auto& [id, p] : peers_) {
    if (p.alive && p.addr_port != 0) flush_peer(id, p);
    // Congestion decays as flushes go by: a transient stall fades in a few
    // ticks, a saturated socket keeps re-charging the estimate faster than
    // it drains — which is exactly when the overload ladder should see it.
    p.congested_bytes -= p.congested_bytes / 4;
    p.congested_frames -= p.congested_frames / 4;
  }
}

void UdpTransport::close_abruptly() {
#if defined(__linux__)
  // No flush, no Byes: the wire just goes silent, like a SIGKILL would
  // leave it. Peers discover the death through missed keepalives.
  if (fd_ >= 0) ::close(fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  fd_ = -1;
  epoll_fd_ = -1;
#endif
}

void UdpTransport::pump(int timeout_ms) {
#if defined(__linux__)
  if (fd_ < 0) return;
  epoll_event events[4];
  ::epoll_wait(epoll_fd_, events, 4, timeout_ms);

  std::uint8_t buf[65536];
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(fd_, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) break;  // EAGAIN: drained
    ++stats_.datagrams_received;
    stats_.datagram_bytes_received += static_cast<std::uint64_t>(n);
    // Only a datagram of a known kind may register a new source address:
    // empty or garbage datagrams from strangers cost no peer state.
    const bool known_kind =
        n > 0 && (buf[0] == kData || buf[0] == kFragment || buf[0] == kKeepalive ||
                  buf[0] == kBye);
    if (!known_kind && !by_addr_.count(addr_key(src.sin_addr.s_addr, src.sin_port))) {
      ++stats_.malformed_datagrams;
      continue;
    }
    const EndpointId from = peer_by_addr(src.sin_addr.s_addr, src.sin_port);
    Peer& p = peers_.at(from);
    p.last_heard = wall_now();
    if (n == 0) {
      ++stats_.malformed_datagrams;
      continue;
    }
    if (!p.alive && buf[0] != kBye && p.addr_port != 0) {
      // A peer we wrote off (Bye, idle timeout) is talking again — most
      // likely a restarted process on the same address. Revive it so the
      // resync handshake can run; the application decides what the session
      // means now.
      p.alive = true;
      ++stats_.peer_revivals;
    }
    handle_datagram(from, p, buf, static_cast<std::size_t>(n));
  }
  housekeeping();
#else
  (void)timeout_ms;
#endif
}

void UdpTransport::handle_datagram(EndpointId from, Peer& p, const std::uint8_t* data,
                                   std::size_t n) {
  const SimTime app_now = app_clock_.now();
  auto deliver = [&](Frame&& f) {
    p.ingress_bytes += f.wire_size();
    ++p.ingress_frames;
    Delivery d;
    d.from = from;
    d.frame = std::move(f);
    d.sent = app_now;  // true send time lives in another process; see header
    d.arrival = app_now;
    inbox_.push_back(std::move(d));
  };

  switch (data[0]) {
    case kData: {
      // Frames parsed before a malformed tail are still delivered.
      parse_scratch_.clear();
      if (!udpwire::parse_frames(data + 1, n - 1, parse_scratch_)) {
        ++stats_.malformed_datagrams;
      }
      for (auto& f : parse_scratch_) deliver(std::move(f));
      break;
    }
    case kFragment: {
      if (auto f = p.reasm.feed(data + 1, n - 1, wall_now())) {
        ++stats_.frames_reassembled;
        deliver(std::move(*f));
      }
      break;
    }
    case kKeepalive:
      ++stats_.keepalives_received;
      break;
    case kBye:
      p.alive = false;
      break;
    default:
      ++stats_.malformed_datagrams;
      break;
  }
}

void UdpTransport::housekeeping() {
  const SimTime now = wall_now();
  for (auto& [id, p] : peers_) {
    (void)id;
    if (!p.alive || p.addr_port == 0) continue;
    if (cfg_.keepalive_interval > SimDuration(0) &&
        now - p.last_sent >= cfg_.keepalive_interval) {
      raw_send(p, &kKeepalive, 1);
      ++stats_.keepalives_sent;
    }
    if (cfg_.idle_timeout > SimDuration(0) && now - p.last_heard > cfg_.idle_timeout) {
      p.alive = false;
      ++stats_.idle_disconnects;
    }
    p.reasm.gc(now);
  }
  last_housekeeping_ = now;
}

std::vector<Delivery> UdpTransport::poll(EndpointId to) {
  if (to != local_) return {};
  std::vector<Delivery> out;
  out.swap(inbox_);
  return out;
}

void UdpTransport::disconnect(EndpointId a, EndpointId b) {
  const EndpointId other = a == local_ ? b : a;
  Peer* p = peer_of(other);
  if (!p || !p->alive) return;
  if (p->addr_port != 0) {
    flush_peer(other, *p);
    raw_send(*p, &kBye, 1);
  }
  p->alive = false;
}

bool UdpTransport::connected(EndpointId a, EndpointId b) const {
  const EndpointId other = a == local_ ? b : a;
  if ((a != local_ && b != local_) || other == local_) return false;
  const Peer* p = peer_of(other);
  return p && p->alive && p->addr_port != 0;
}

// Accounting views: the local endpoint sums both directions over all peers;
// a peer id reports the traffic on its leg of the wire, with "its egress"
// meaning bytes observed arriving from it (the remote's true counters live
// in the remote process).
std::uint64_t UdpTransport::egress_bytes(EndpointId id) const {
  if (id == local_) {
    std::uint64_t sum = 0;
    for (const auto& [pid, p] : peers_) sum += p.egress_bytes;
    return sum;
  }
  const Peer* p = peer_of(id);
  return p ? p->ingress_bytes : 0;
}

std::uint64_t UdpTransport::ingress_bytes(EndpointId id) const {
  if (id == local_) {
    std::uint64_t sum = 0;
    for (const auto& [pid, p] : peers_) sum += p.ingress_bytes;
    return sum;
  }
  const Peer* p = peer_of(id);
  return p ? p->egress_bytes : 0;
}

std::uint64_t UdpTransport::egress_frames(EndpointId id) const {
  if (id == local_) {
    std::uint64_t sum = 0;
    for (const auto& [pid, p] : peers_) sum += p.egress_frames;
    return sum;
  }
  const Peer* p = peer_of(id);
  return p ? p->ingress_frames : 0;
}

std::uint64_t UdpTransport::ingress_frames(EndpointId id) const {
  if (id == local_) {
    std::uint64_t sum = 0;
    for (const auto& [pid, p] : peers_) sum += p.ingress_frames;
    return sum;
  }
  const Peer* p = peer_of(id);
  return p ? p->egress_frames : 0;
}

std::uint64_t UdpTransport::pending_bytes(EndpointId to) const {
  // The local view of "backed up toward this peer": bytes staged but not
  // yet flushed, plus the decaying estimate of bytes whose datagrams the
  // socket refused. Not the remote inbox (unknowable over UDP), but it
  // rises exactly when the send path stops keeping up, which is the
  // property the overload controller needs.
  const Peer* p = peer_of(to);
  if (!p) return 0;
  const std::uint64_t staged = p->staging.size() > 1 ? p->staging.size() - 1 : 0;
  return staged + p->congested_bytes;
}

SendPressure UdpTransport::send_pressure(EndpointId to) const {
  SendPressure out;
  if (to == kInvalidEndpoint || to == local_) {
    out.send_failures = stats_.send_failures;
    out.send_retries = stats_.send_retries;
    for (const auto& [pid, p] : peers_) {
      out.dropped_datagrams += p.dropped_datagrams;
      out.congested_bytes += p.congested_bytes;
      out.congested_frames += p.congested_frames;
    }
    return out;
  }
  const Peer* p = peer_of(to);
  if (!p) return out;
  out.send_failures = p->send_failures;
  out.send_retries = p->send_retries;
  out.dropped_datagrams = p->dropped_datagrams;
  out.congested_bytes = p->congested_bytes;
  out.congested_frames = p->congested_frames;
  return out;
}

}  // namespace dyconits::net
