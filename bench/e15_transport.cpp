// E15 — Transport layer (DESIGN.md §12). Micro-benchmarks the UDP wire
// path added with net::UdpTransport: datagram framing (encode/parse),
// fragmentation + reassembly of over-MTU frames, and — where sockets are
// available — real UDP loopback throughput and round-trip latency between
// two transports in one process, and the vanilla broadcast fan-out (one
// payload to several peers) sent as shared frames versus owned copies.
// All timings are wall-clock (this layer is real I/O, not simulation).
//
//   e15_transport [--iters=N] [--batch=FRAMES] [--payload=BYTES]
//                 [--runs=N | --seeds=a,b,c] [--json=FILE]
//
// Timings are wall-clock, so the seeds only label the repeats: --runs=N
// measures the same configuration N times and the schema-2 JSON records
// the run-to-run spread (the honest noise band for this real-I/O bench).
#include <chrono>
#include <cstring>
#include <memory>

#include "bench_util.h"
#include "net/buffer_pool.h"
#include "net/shared_frame.h"
#include "net/udp_framing.h"
#include "net/udp_transport.h"

using namespace dyconits;
using namespace dyconits::bench;

namespace {

double now_ms() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1e6;
}

net::Frame make_frame(std::uint8_t tag, std::uint32_t seq, std::size_t payload_len) {
  net::Frame f;
  f.tag = tag;
  f.seq = seq;
  f.payload.resize(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    f.payload[i] = static_cast<std::uint8_t>((i * 131 + tag) & 0xFF);
  }
  return f;
}

JsonReport::Phase phase_of(const std::string& name, const Samples& s) {
  return {name, s.mean(), s.percentile(0.5), s.percentile(0.95), s.percentile(0.99)};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  flags.assert_known({"iters", "batch", "payload", "json", "seed", "seeds", "runs",
                      "help"});
  if (flags.has("help")) {
    std::printf("usage: e15_transport [--iters=N] [--batch=FRAMES] [--payload=BYTES] "
                "[--runs=N | --seeds=a,b,c] [--json=FILE]\n");
    return 0;
  }
  const auto iters = static_cast<std::size_t>(flags.get_int("iters", 200));
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 256));
  const auto payload = static_cast<std::size_t>(flags.get_int("payload", 96));

  return run_seeded(flags, [&](std::uint64_t) {
  JsonReport report;
  report.bench = "e15_transport";
  report.config = {{"iters", json_num(static_cast<double>(iters))},
                   {"batch", json_num(static_cast<double>(batch))},
                   {"payload", json_num(static_cast<double>(payload))},
                   {"mtu", json_num(static_cast<double>(net::udpwire::kDefaultMtu))}};

  // -- framing: encode + parse a batch of typical update-sized frames --
  Samples encode_ms, parse_ms;
  std::uint64_t framed_bytes = 0;
  for (std::size_t it = 0; it < iters; ++it) {
    std::vector<net::Frame> in;
    in.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      in.push_back(make_frame(static_cast<std::uint8_t>(1 + i % 20),
                              static_cast<std::uint32_t>(i + 1), payload));
    }
    std::vector<std::uint8_t> body;
    const double t0 = now_ms();
    for (const auto& f : in) net::udpwire::append_frame(body, f);
    const double t1 = now_ms();
    std::vector<net::Frame> out;
    if (!net::udpwire::parse_frames(body.data(), body.size(), out) || out.size() != batch) {
      std::fprintf(stderr, "FAIL: framing round-trip broken\n");
      std::exit(1);
    }
    const double t2 = now_ms();
    encode_ms.add(t1 - t0);
    parse_ms.add(t2 - t1);
    framed_bytes += body.size();
    for (auto& f : out) net::BufferPool::instance().release(std::move(f.payload));
  }

  // -- fragmentation: split + reassemble one 64 KiB frame per iteration --
  Samples frag_ms;
  for (std::size_t it = 0; it < iters; ++it) {
    const net::Frame big = make_frame(11, static_cast<std::uint32_t>(it + 1), 64 * 1024);
    const double t0 = now_ms();
    const auto datagrams =
        net::udpwire::fragment_frame(big, net::udpwire::kDefaultMtu, static_cast<std::uint32_t>(it));
    net::udpwire::Reassembler reasm;
    std::optional<net::Frame> got;
    for (const auto& d : datagrams) {
      got = reasm.feed(d.data() + 1, d.size() - 1, SimTime::zero());
    }
    const double t1 = now_ms();
    if (!got || got->payload != big.payload) {
      std::fprintf(stderr, "FAIL: fragment round-trip broken\n");
      std::exit(1);
    }
    frag_ms.add(t1 - t0);
    net::BufferPool::instance().release(std::move(got->payload));
  }

  report.phases.push_back(phase_of("framing.encode_batch", encode_ms));
  report.phases.push_back(phase_of("framing.parse_batch", parse_ms));
  report.phases.push_back(phase_of("framing.fragment_roundtrip_64k", frag_ms));
  const double framing_mb_per_s =
      encode_ms.mean() + parse_ms.mean() > 0
          ? (static_cast<double>(framed_bytes) / static_cast<double>(iters)) / 1e6 /
                ((encode_ms.mean() + parse_ms.mean()) / 1e3)
          : 0.0;
  report.metrics.push_back({"framing_mb_per_s", framing_mb_per_s});

  // -- real sockets: loopback one-way batches and single-frame RTT --
  SimClock clock;
  net::UdpConfig ucfg;
  net::UdpTransport rx(clock, ucfg), tx(clock, ucfg);
  Samples batch_ms, rtt_ms;
  if (rx.valid() && tx.valid()) {
    const net::EndpointId rx_local = rx.create_endpoint("rx");
    const net::EndpointId tx_local = tx.create_endpoint("tx");
    const net::EndpointId to_rx = tx.add_peer("127.0.0.1", rx.local_port(), "rx");
    net::EndpointId to_tx = net::kInvalidEndpoint;  // learned from first datagram

    for (std::size_t it = 0; it < iters; ++it) {
      const double t0 = now_ms();
      for (std::size_t i = 0; i < batch; ++i) {
        tx.send(tx_local, to_rx,
                make_frame(static_cast<std::uint8_t>(1 + i % 20),
                           static_cast<std::uint32_t>(it * batch + i + 1), payload));
      }
      tx.flush_egress();
      std::size_t seen = 0;
      const double deadline = t0 + 2000.0;
      while (seen < batch && now_ms() < deadline) {
        rx.pump(1);
        for (auto& d : rx.poll(rx_local)) {
          to_tx = d.from;
          ++seen;
          net::BufferPool::instance().release(std::move(d.frame.payload));
        }
      }
      if (seen != batch) {
        std::fprintf(stderr, "note: loopback batch lost %zu/%zu frames\n", batch - seen,
                     batch);
        break;
      }
      batch_ms.add(now_ms() - t0);
    }

    for (std::size_t it = 0; it < iters && to_tx != net::kInvalidEndpoint; ++it) {
      const double t0 = now_ms();
      tx.send(tx_local, to_rx, make_frame(5, static_cast<std::uint32_t>(1e6 + it), 16));
      tx.flush_egress();
      bool ponged = false;
      const double deadline = t0 + 2000.0;
      while (!ponged && now_ms() < deadline) {
        rx.pump(1);
        for (auto& d : rx.poll(rx_local)) {
          net::BufferPool::instance().release(std::move(d.frame.payload));
          rx.send(rx_local, to_tx, make_frame(6, static_cast<std::uint32_t>(2e6 + it), 16));
          rx.flush_egress();
        }
        tx.pump(0);
        for (auto& d : tx.poll(tx_local)) {
          net::BufferPool::instance().release(std::move(d.frame.payload));
          ponged = true;
        }
      }
      if (!ponged) break;
      rtt_ms.add(now_ms() - t0);
    }

    // -- fan-out: each round, 1,500 payloads to 3 peers, the shape of a
    // udp_swarm tick. "shared" sends each recipient the master's bytes
    // through send_shared; "owned" stamps a pooled copy per recipient and
    // sends that (Transport's default, which the sim and fault layer use).
    // Timed: the sends and the flush. The two forms alternate which goes
    // first; receivers drain between them, untimed.
    constexpr std::size_t kFanoutMobs = 1500;
    constexpr std::size_t kFanoutPeers = 3;
    constexpr std::size_t kFanoutPayload = 24;  // about an EntityMove
    std::vector<std::unique_ptr<net::UdpTransport>> viewers;
    std::vector<net::EndpointId> viewer_local, to_viewer;
    for (std::size_t v = 0; v < kFanoutPeers; ++v) {
      viewers.push_back(std::make_unique<net::UdpTransport>(clock, ucfg));
      if (!viewers.back()->valid()) break;
      viewer_local.push_back(viewers.back()->create_endpoint("viewer"));
      to_viewer.push_back(tx.add_peer("127.0.0.1", viewers.back()->local_port(), "viewer"));
    }
    Samples fanout_shared_ms, fanout_owned_ms;
    std::uint32_t fanout_seq = 0;
    for (std::size_t it = 0; it < iters && to_viewer.size() == kFanoutPeers; ++it) {
      for (const bool shared : {it % 2 == 0, it % 2 != 0}) {
        std::vector<net::SharedFrame> masters;
        masters.reserve(kFanoutMobs);
        for (std::size_t m = 0; m < kFanoutMobs; ++m) {
          const net::Frame f =
              make_frame(static_cast<std::uint8_t>(1 + m % 20), 0, kFanoutPayload);
          std::vector<std::uint8_t> buf = net::BufferPool::instance().acquire();
          buf.assign(f.payload.begin(), f.payload.end());
          masters.emplace_back(f.tag, std::move(buf));
        }
        const double t0 = now_ms();
        for (const net::SharedFrame& m : masters) {
          ++fanout_seq;
          for (const net::EndpointId to : to_viewer) {
            if (shared) {
              tx.send_shared(tx_local, to, m, fanout_seq, {});
            } else {
              tx.send(tx_local, to, m.instance(fanout_seq, {}));
            }
          }
        }
        tx.flush_egress();
        (shared ? fanout_shared_ms : fanout_owned_ms).add(now_ms() - t0);
        std::size_t seen = 0;
        const double deadline = now_ms() + 2000.0;
        while (seen < kFanoutMobs * kFanoutPeers && now_ms() < deadline) {
          for (std::size_t v = 0; v < kFanoutPeers; ++v) {
            viewers[v]->pump(0);
            for (auto& d : viewers[v]->poll(viewer_local[v])) {
              ++seen;
              net::BufferPool::instance().release(std::move(d.frame.payload));
            }
          }
        }
      }
    }

    report.phases.push_back(phase_of("udp.loopback_batch", batch_ms));
    report.phases.push_back(phase_of("udp.rtt", rtt_ms));
    report.phases.push_back(phase_of("udp.fanout_1500x3.shared", fanout_shared_ms));
    report.phases.push_back(phase_of("udp.fanout_1500x3.owned", fanout_owned_ms));
    if (batch_ms.count() > 0 && batch_ms.mean() > 0) {
      report.metrics.push_back(
          {"udp_loopback_frames_per_s",
           static_cast<double>(batch) / (batch_ms.mean() / 1e3)});
    }
    report.metrics.push_back({"udp_rtt_p50_ms", rtt_ms.percentile(0.5)});
  } else {
    std::fprintf(stderr, "note: sockets unavailable (%s); framing-only run\n",
                 rx.error().c_str());
  }

  print_title("E15: transport layer");
  std::printf("%-34s %14s %10s %10s\n", "phase (ms)", "mean", "p95", "p99");
  print_rule(72);
  for (const auto& p : report.phases) {
    std::printf("%-34s %14.4f %10.4f %10.4f\n", p.name.c_str(), p.mean_ms, p.p95_ms,
                p.p99_ms);
  }
  std::printf("\n%-34s %14s\n", "metric", "value");
  print_rule(50);
  for (const auto& [k, v] : report.metrics) std::printf("%-34s %14.2f\n", k.c_str(), v);

  return report;
  });
}
