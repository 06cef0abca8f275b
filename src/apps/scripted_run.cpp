#include "apps/scripted_run.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "dyconit/policies/factory.h"
#include "net/fault_transport.h"
#include "net/shared_frame.h"
#include "net/sim_network.h"
#include "net/udp_transport.h"
#include "protocol/codec.h"
#include "server/game_server.h"
#include "util/rng.h"
#include "world/terrain.h"

namespace dyconits::apps {

namespace {

constexpr std::uint8_t kBarrierTag = static_cast<std::uint8_t>(protocol::MessageType::TickBarrier);

std::int64_t wall_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Transport wrapper that re-imposes the sim's deterministic inbound order
/// on UDP: frames from each client are buffered until that client's
/// TickBarrier arrives, and poll() releases exactly one barrier-terminated
/// segment per client, clients in bot-name order. This makes the server's
/// processing order — and therefore its egress byte stream — independent of
/// datagram interleaving on the socket.
class LockstepGate final : public net::Transport {
 public:
  explicit LockstepGate(net::UdpTransport& inner) : inner_(inner) {}

  /// Drains the inner transport's inbox into per-peer buffers. A peer's
  /// bot name is learned from its first frame (always the JoinRequest in
  /// scripted runs); transport-level names are address strings over UDP.
  void collect() {
    for (auto& d : inner_.poll(local_)) {
      PeerBuf& b = bufs_[d.from];
      if (b.name.empty()) {
        if (const auto msg = protocol::decode(d.frame)) {
          if (const auto* jr = std::get_if<protocol::JoinRequest>(&*msg)) b.name = jr->name;
        }
        if (b.name.empty()) b.name = inner_.endpoint_name(d.from);
      }
      if (d.frame.tag == kBarrierTag) ++b.barriers;
      b.q.push_back(std::move(d));
    }
  }

  /// True once `expected` distinct peers each hold a pending barrier.
  bool round_ready(std::size_t expected) const {
    std::size_t ready = 0;
    for (const auto& [id, b] : bufs_) {
      if (b.barriers > 0) ++ready;
    }
    return ready >= expected;
  }

  // -- Transport --
  net::EndpointId create_endpoint(std::string name) override {
    local_ = inner_.create_endpoint(std::move(name));
    return local_;
  }
  const std::string& endpoint_name(net::EndpointId id) const override {
    return inner_.endpoint_name(id);
  }
  bool send(net::EndpointId from, net::EndpointId to, net::Frame frame) override {
    return inner_.send(from, to, std::move(frame));
  }
  /// Forwarded, not left to the default: the server's broadcasts then take
  /// UdpTransport's borrowed-byte path, which the e2e check puts on trial.
  bool send_shared(net::EndpointId from, net::EndpointId to, const net::SharedFrame& shared,
                   std::uint32_t seq, SimTime trace_origin) override {
    return inner_.send_shared(from, to, shared, seq, trace_origin);
  }
  std::vector<net::Delivery> poll(net::EndpointId to) override {
    collect();
    if (to != local_) return {};
    std::vector<std::pair<std::string, net::EndpointId>> order;
    for (const auto& [id, b] : bufs_) {
      if (b.barriers > 0) order.emplace_back(b.name, id);
    }
    std::sort(order.begin(), order.end());
    std::vector<net::Delivery> out;
    for (const auto& [name, id] : order) {
      PeerBuf& b = bufs_[id];
      while (!b.q.empty()) {
        net::Delivery d = std::move(b.q.front());
        b.q.pop_front();
        const bool barrier = d.frame.tag == kBarrierTag;
        out.push_back(std::move(d));
        if (barrier) {
          --b.barriers;
          break;
        }
      }
    }
    return out;
  }
  void disconnect(net::EndpointId a, net::EndpointId b) override { inner_.disconnect(a, b); }
  bool connected(net::EndpointId a, net::EndpointId b) const override {
    return inner_.connected(a, b);
  }
  std::uint64_t egress_bytes(net::EndpointId id) const override {
    return inner_.egress_bytes(id);
  }
  std::uint64_t ingress_bytes(net::EndpointId id) const override {
    return inner_.ingress_bytes(id);
  }
  std::uint64_t egress_frames(net::EndpointId id) const override {
    return inner_.egress_frames(id);
  }
  std::uint64_t ingress_frames(net::EndpointId id) const override {
    return inner_.ingress_frames(id);
  }
  void flush_egress() override { inner_.flush_egress(); }

 private:
  struct PeerBuf {
    std::string name;
    std::deque<net::Delivery> q;
    int barriers = 0;
  };

  net::UdpTransport& inner_;
  net::EndpointId local_ = net::kInvalidEndpoint;
  std::map<net::EndpointId, PeerBuf> bufs_;
};

std::vector<HashLine> server_lines(const server::GameServer& server) {
  std::vector<HashLine> out;
  for (const auto& h : server.session_stream_hashes()) {
    out.push_back({"server", h.name, h.egress_hash, h.egress_frames, h.ingress_hash,
                   h.ingress_frames});
  }
  return out;
}

HashLine client_line(const bots::BotClient& bot) {
  return {"client",
          bot.name(),
          bot.egress_hash().value(),
          bot.egress_hash().frames(),
          bot.ingress_hash().value(),
          bot.ingress_hash().frames()};
}

}  // namespace

std::string format_hash_line(const HashLine& line) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "wire_hash role=%s name=%s egress=%016llx egress_frames=%llu "
                "ingress=%016llx ingress_frames=%llu",
                line.role.c_str(), line.name.c_str(),
                static_cast<unsigned long long>(line.egress),
                static_cast<unsigned long long>(line.egress_frames),
                static_cast<unsigned long long>(line.ingress),
                static_cast<unsigned long long>(line.ingress_frames));
  return buf;
}

std::string scripted_bot_name(std::uint32_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "bot%03u", index);
  return buf;
}

world::Vec3 scripted_home(std::uint32_t index) {
  // Integer-derived doubles: exact in every process, no libm involved.
  return {static_cast<double>((index % 8) * 24), 0.0, static_cast<double>((index / 8) * 24)};
}

std::uint64_t scripted_bot_seed(std::uint64_t master_seed, std::uint32_t index) {
  Rng seeds(master_seed ^ 0xB075EEDull);
  std::uint64_t s = 0;
  for (std::uint32_t i = 0; i <= index; ++i) s = seeds.next_u64();
  return s;
}

server::ServerConfig scripted_server_config(const ScriptedConfig& cfg) {
  server::ServerConfig scfg;
  scfg.view_distance = 4;
  scfg.use_dyconits = true;
  scfg.env_ticks_per_tick = 0;
  scfg.mob_count = cfg.mobs;
  scfg.mob_seed = cfg.seed ^ 0x30B5ull;
  scfg.deterministic_load = true;  // wire bytes must not depend on host speed
  scfg.hash_streams = true;
  scfg.spawn_provider = [](const std::string& name) {
    // Spawn exactly at the scripted home column; each server recomputes
    // the same y from its own (identically seeded) terrain.
    std::uint32_t index = 0;
    std::sscanf(name.c_str(), "bot%u", &index);
    return scripted_home(index);
  };
  return scfg;
}

bots::BotConfig scripted_bot_config(const ScriptedConfig& cfg, std::uint32_t index) {
  (void)cfg;
  bots::BotConfig bc;
  bc.kind = bots::BehaviorKind::Walk;
  bc.home = scripted_home(index);
  bc.chat_prob = 0.0;
  // Walk-only bots never mutate blocks, so the client's private terrain
  // copy stays equal to the server's — required for identical kinematics.
  bc.join_retry = SimDuration(0);        // lockstep: nothing is ever lost silently
  bc.liveness_timeout = SimDuration(0);  // waits can exceed any fixed sim window
  bc.hash_streams = true;
  return bc;
}

std::vector<HashLine> run_sim_oracle(const ScriptedConfig& cfg) {
  SimClock clock;
  net::SimNetwork net(clock, cfg.seed ^ 0x5E7ull);
  world::World world(std::make_unique<world::TerrainGenerator>(cfg.terrain_seed));
  server::GameServer server(clock, net, world, dyconit::make_policy("zero"),
                            scripted_server_config(cfg));

  std::vector<std::unique_ptr<bots::BotClient>> bots;
  for (std::uint32_t i = 0; i < cfg.clients; ++i) {
    auto bot = std::make_unique<bots::BotClient>(clock, net, world, server.endpoint(),
                                                 scripted_bot_name(i),
                                                 scripted_bot_seed(cfg.seed, i),
                                                 scripted_bot_config(cfg, i));
    net.connect(bot->endpoint(), server.endpoint(),
                {SimDuration(0), /*jitter=*/0.0, /*fifo=*/true});
    bots.push_back(std::move(bot));
  }

  for (std::uint64_t k = 0; k < cfg.ticks; ++k) {
    for (std::uint32_t i = 0; i < cfg.clients; ++i) {
      if (k == 0) bots[i]->connect();
      bots[i]->tick();
      bots[i]->send_barrier(static_cast<std::uint32_t>(k));
    }
    server.tick();
    clock.advance(server.config().tick_interval);
  }
  // The UDP clients drain the server's final tick (they wait for its ack);
  // give the sim bots the same final inbound pass.
  for (auto& bot : bots) bot->poll_inbound();

  std::vector<HashLine> lines = server_lines(server);
  for (const auto& bot : bots) lines.push_back(client_line(*bot));
  return lines;
}

int run_udp_server(const ScriptedConfig& cfg, const std::string& host, std::uint16_t port,
                   const std::string& port_file) {
  SimClock clock;
  net::UdpConfig ucfg;
  ucfg.bind_host = host;
  ucfg.bind_port = port;
  // Lockstep waits outlast any fixed idle window; liveness is the
  // script's wall deadline, not the transport's.
  ucfg.idle_timeout = SimDuration(0);
  net::UdpTransport udp(clock, ucfg);
  if (!udp.valid()) {
    std::fprintf(stderr, "udp server: %s\n", udp.error().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "udp server: cannot write port file %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", udp.local_port());
    std::fclose(f);
  }
  std::fprintf(stderr, "udp server: listening on %s:%u, waiting for %u clients\n",
               host.c_str(), udp.local_port(), cfg.clients);

  LockstepGate gate(udp);
  world::World world(std::make_unique<world::TerrainGenerator>(cfg.terrain_seed));
  server::GameServer server(clock, gate, world, dyconit::make_policy("zero"),
                            scripted_server_config(cfg));

  for (std::uint64_t k = 0; k < cfg.ticks; ++k) {
    const std::int64_t deadline = wall_micros() + cfg.net_timeout.count_micros();
    for (;;) {
      udp.pump(/*timeout_ms=*/1);
      gate.collect();
      if (gate.round_ready(cfg.clients)) break;
      if (wall_micros() > deadline) {
        std::fprintf(stderr, "udp server: timed out waiting for client barriers at tick %llu\n",
                     static_cast<unsigned long long>(k));
        return 1;
      }
    }
    server.tick();
    gate.flush_egress();
    clock.advance(server.config().tick_interval);
  }

  for (const auto& line : server_lines(server)) {
    std::printf("%s\n", format_hash_line(line).c_str());
  }
  const net::UdpStats& st = udp.stats();
  std::fprintf(stderr,
               "udp server: datagrams tx=%llu rx=%llu fragments tx=%llu reassembled=%llu "
               "send_failures=%llu\n",
               static_cast<unsigned long long>(st.datagrams_sent),
               static_cast<unsigned long long>(st.datagrams_received),
               static_cast<unsigned long long>(st.fragments_sent),
               static_cast<unsigned long long>(st.frames_reassembled),
               static_cast<unsigned long long>(st.send_failures));
  return 0;
}

int run_udp_client(const ScriptedConfig& cfg, const std::string& host, std::uint16_t port,
                   std::uint32_t index) {
  SimClock clock;
  net::UdpConfig ucfg;
  ucfg.bind_host = "127.0.0.1";
  ucfg.bind_port = 0;
  ucfg.idle_timeout = SimDuration(0);
  net::UdpTransport udp(clock, ucfg);
  if (!udp.valid()) {
    std::fprintf(stderr, "udp client: %s\n", udp.error().c_str());
    return 1;
  }
  const net::EndpointId server_ep = udp.add_peer(host, port, "server");
  if (server_ep == net::kInvalidEndpoint) {
    std::fprintf(stderr, "udp client: bad server address %s:%u\n", host.c_str(), port);
    return 1;
  }

  world::World world(std::make_unique<world::TerrainGenerator>(cfg.terrain_seed));
  bots::BotClient bot(clock, udp, world, server_ep, scripted_bot_name(index),
                      scripted_bot_seed(cfg.seed, index), scripted_bot_config(cfg, index));

  // Waits until the server's tick `upto` is fully received (its
  // TickBarrierAck is the last frame of the tick). Returns false on wall
  // timeout.
  const auto wait_for_ack = [&](std::uint32_t upto) {
    const std::int64_t deadline = wall_micros() + cfg.net_timeout.count_micros();
    while (bot.barrier_acks_seen() == 0 || bot.last_barrier_ack() < upto) {
      udp.pump(/*timeout_ms=*/1);
      bot.poll_inbound();
      if (wall_micros() > deadline) {
        std::fprintf(stderr, "udp client %s: timed out waiting for ack %u\n",
                     bot.name().c_str(), upto);
        return false;
      }
    }
    return true;
  };

  for (std::uint64_t k = 0; k < cfg.ticks; ++k) {
    if (k > 0 && !wait_for_ack(static_cast<std::uint32_t>(k - 1))) return 1;
    if (k == 0) bot.connect();
    bot.tick();
    bot.send_barrier(static_cast<std::uint32_t>(k));
    udp.flush_egress();
    clock.advance(SimDuration::millis(50));
  }
  if (!wait_for_ack(static_cast<std::uint32_t>(cfg.ticks - 1))) return 1;

  std::printf("%s\n", format_hash_line(client_line(bot)).c_str());
  return 0;
}

// ------------------------------------------- free-run chaos (DESIGN.md §13)

namespace {

net::FaultPlan chaos_fault_plan(const ScriptedConfig& cfg, const ChaosConfig& chaos) {
  net::FaultPlan plan;
  plan.seed = chaos.fault_seed != 0 ? chaos.fault_seed : (cfg.seed ^ 0xC4A05ull);
  plan.all_links = chaos.faults.link;
  // Scheduled events are deliberately not translated: they name endpoint
  // ids, which are process-local over UDP (see ChaosConfig::faults).
  return plan;
}

/// Minimal session state that survives a server crash: the tick counter and
/// the joined player names. Deliberately a plain text file — the point is
/// the round trip, not the format.
struct CrashState {
  std::uint64_t tick = 0;
  std::vector<std::string> players;
};

bool write_crash_state(const std::string& path, const CrashState& st) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "tick " << st.tick << "\n";
  for (const auto& p : st.players) out << "player " << p << "\n";
  return static_cast<bool>(out);
}

bool read_crash_state(const std::string& path, CrashState* st) {
  std::ifstream in(path);
  if (!in) return false;
  CrashState got;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) continue;
    if (key == "tick") {
      if (!(tokens >> got.tick)) return false;
    } else if (key == "player") {
      std::string name;
      if (!(tokens >> name)) return false;
      got.players.push_back(std::move(name));
    }
  }
  *st = std::move(got);
  return true;
}

void sleep_wall(SimDuration d) {
  std::this_thread::sleep_for(std::chrono::microseconds(d.count_micros()));
}

}  // namespace

int run_udp_server_free(const ScriptedConfig& cfg, const ChaosConfig& chaos,
                        const std::string& host, std::uint16_t port,
                        const std::string& port_file) {
  SimClock clock;
  // The world is the "disk save": it survives a crash. Everything else —
  // transport, sessions, dyconit state — dies with the incarnation.
  world::World world(std::make_unique<world::TerrainGenerator>(cfg.terrain_seed));

  server::ServerConfig scfg = scripted_server_config(cfg);
  // Free-run liveness is real: tighten the keepalive cadence to 500 ms so
  // idle links still carry evidence of life at outage-detection timescales.
  scfg.keepalive_interval_ticks = 10;

  const std::int64_t tick_us = scfg.tick_interval.count_micros();
  const net::FaultPlan plan = chaos_fault_plan(cfg, chaos);

  std::uint64_t tick = 0;
  std::uint16_t bound_port = port;
  bool crashed_once = false;
  CrashState saved;
  std::uint64_t crashes = 0;
  std::uint64_t post_recovery_violations = 0;
  std::uint64_t send_failures = 0, resyncs_served = 0, revivals = 0;
  net::FaultStats injected;
  std::uint64_t decision_hash = 0, decisions = 0;
  std::size_t sessions_at_end = 0, resumed = 0;
  // Post-recovery means: the restarted incarnation is up AND clients had
  // time to notice the outage and replay the resync handshake. Grace =
  // client liveness window (2 s) + one backoff round, in ticks.
  const std::uint64_t recovery_grace_ticks = 60;

  for (;;) {  // one iteration per server incarnation
    net::UdpConfig ucfg;
    ucfg.bind_host = host;
    ucfg.bind_port = bound_port;
    ucfg.idle_timeout = SimDuration(0);  // bot-level liveness owns teardown
    net::UdpTransport udp(clock, ucfg);
    if (!udp.valid()) {
      std::fprintf(stderr, "chaos server: %s\n", udp.error().c_str());
      return 1;
    }
    bound_port = udp.local_port();  // restart rebinds the same port
    if (!crashed_once && !port_file.empty()) {
      std::FILE* f = std::fopen(port_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "chaos server: cannot write port file %s\n", port_file.c_str());
        return 1;
      }
      std::fprintf(f, "%u\n", udp.local_port());
      std::fclose(f);
    }
    net::FaultInjectingTransport faultnet(udp, clock);
    faultnet.set_fault_plan(plan);
    server::GameServer server(clock, faultnet, world, dyconit::make_policy("zero"), scfg);
    std::fprintf(stderr, "chaos server: incarnation %llu up on %s:%u at tick %llu\n",
                 static_cast<unsigned long long>(crashes),
                 host.c_str(), bound_port, static_cast<unsigned long long>(tick));

    const std::int64_t t0 = wall_micros();
    std::uint64_t local_tick = 0;
    bool crash_now = false;
    while (tick < cfg.ticks) {
      const std::int64_t deadline = t0 + static_cast<std::int64_t>(local_tick + 1) * tick_us;
      while (wall_micros() < deadline) udp.pump(/*timeout_ms=*/1);
      server.tick();
      faultnet.flush_egress();
      clock.advance(scfg.tick_interval);
      ++tick;
      ++local_tick;
      if (crashed_once && tick > saved.tick + recovery_grace_ticks) {
        // The recovered regime must hold the paper's invariant: with the
        // zero policy every queue flushes every tick, so nothing may still
        // violate its bounds after the tick ran.
        const SimTime now = clock.now();
        server.dyconits().for_each([&](dyconit::Dyconit& d) {
          d.for_each_subscriber([&](dyconit::SubscriberId, dyconit::Bounds& b,
                                    const dyconit::SubscriberQueue& q) {
            if (q.violates(b, now)) ++post_recovery_violations;
          });
        });
      }
      if (!crashed_once && chaos.crash_at_tick > 0 && tick >= chaos.crash_at_tick) {
        crash_now = true;
        break;
      }
    }

    // Roll this incarnation's ledgers up before it dies.
    send_failures += udp.stats().send_failures;
    revivals += udp.stats().peer_revivals;
    resyncs_served += server.resyncs_served();
    {
      const net::FaultStats fs = faultnet.injected_totals();
      injected.dropped.frames += fs.dropped.frames;
      injected.corrupted += fs.corrupted;
      injected.duplicated += fs.duplicated;
      injected.reordered += fs.reordered;
      injected.refused += fs.refused;
    }
    decision_hash = faultnet.decision_hash();
    decisions += faultnet.frames_offered();

    if (crash_now) {
      ++crashes;
      saved.tick = tick;
      saved.players.clear();
      for (const auto& h : server.session_stream_hashes()) saved.players.push_back(h.name);
      if (!chaos.state_file.empty() && !write_crash_state(chaos.state_file, saved)) {
        std::fprintf(stderr, "chaos server: cannot write state file %s\n",
                     chaos.state_file.c_str());
        return 1;
      }
      udp.close_abruptly();  // no Byes, no flush: a SIGKILL's wire signature
      crashed_once = true;
      std::fprintf(stderr,
                   "chaos server: crashed at tick %llu with %zu sessions%s\n",
                   static_cast<unsigned long long>(tick), saved.players.size(),
                   chaos.restart ? ", restarting" : "");
      if (!chaos.restart) break;
      sleep_wall(chaos.restart_delay);
      if (!chaos.state_file.empty()) {
        CrashState reloaded;
        if (!read_crash_state(chaos.state_file, &reloaded)) {
          std::fprintf(stderr, "chaos server: cannot reload state file %s\n",
                       chaos.state_file.c_str());
          return 1;
        }
        tick = reloaded.tick;  // resume the schedule where the crash cut it
        saved = std::move(reloaded);
      }
      continue;
    }

    sessions_at_end = server.session_stream_hashes().size();
    {
      std::set<std::string> now_joined;
      for (const auto& h : server.session_stream_hashes()) now_joined.insert(h.name);
      for (const auto& p : saved.players) resumed += now_joined.count(p);
    }
    break;
  }

  std::printf(
      "chaos_summary role=server ticks=%llu crashes=%llu sessions=%zu "
      "pre_crash_sessions=%zu resumed=%zu bound_violations=%llu "
      "send_failures=%llu resyncs_served=%llu peer_revivals=%llu "
      "injected_drops=%llu injected_dups=%llu injected_corrupt=%llu "
      "injected_reorder=%llu decisions=%llu decision_hash=%016llx\n",
      static_cast<unsigned long long>(tick), static_cast<unsigned long long>(crashes),
      sessions_at_end, saved.players.size(), resumed,
      static_cast<unsigned long long>(post_recovery_violations),
      static_cast<unsigned long long>(send_failures),
      static_cast<unsigned long long>(resyncs_served),
      static_cast<unsigned long long>(revivals),
      static_cast<unsigned long long>(injected.dropped.frames),
      static_cast<unsigned long long>(injected.duplicated),
      static_cast<unsigned long long>(injected.corrupted),
      static_cast<unsigned long long>(injected.reordered),
      static_cast<unsigned long long>(decisions),
      static_cast<unsigned long long>(decision_hash));
  std::fflush(stdout);
  return 0;
}

int run_udp_client_free(const ScriptedConfig& cfg, const ChaosConfig& chaos,
                        const std::string& host, std::uint16_t port, std::uint32_t index) {
  SimClock clock;
  // Start one tick in: the bot treats join_sent_at_ == SimTime::zero() as
  // "never sent", so a connect() at exactly t=0 would disable join retries.
  clock.advance(SimDuration::millis(50));
  net::UdpConfig ucfg;
  ucfg.bind_host = "127.0.0.1";
  ucfg.bind_port = 0;
  ucfg.idle_timeout = SimDuration(0);
  net::UdpTransport udp(clock, ucfg);
  if (!udp.valid()) {
    std::fprintf(stderr, "chaos client: %s\n", udp.error().c_str());
    return 1;
  }
  net::FaultInjectingTransport faultnet(udp, clock);
  {
    net::FaultPlan plan = chaos_fault_plan(cfg, chaos);
    plan.seed ^= 0xC11E57ull + index;  // per-process decision stream
    faultnet.set_fault_plan(plan);
  }
  const net::EndpointId server_ep = udp.add_peer(host, port, "server");
  if (server_ep == net::kInvalidEndpoint) {
    std::fprintf(stderr, "chaos client: bad server address %s:%u\n", host.c_str(), port);
    return 1;
  }

  world::World world(std::make_unique<world::TerrainGenerator>(cfg.terrain_seed));
  bots::BotConfig bc = scripted_bot_config(cfg, index);
  // Free-run recovery knobs: detect a gone-silent server fast, retry joins
  // with jittered exponential backoff so a reconnecting fleet spreads out.
  bc.join_retry = SimDuration::millis(500);
  bc.join_retry_backoff = 2.0;
  bc.join_retry_max = SimDuration::seconds(3);
  bc.liveness_timeout = SimDuration::seconds(2);
  bots::BotClient bot(clock, faultnet, world, server_ep, scripted_bot_name(index),
                      scripted_bot_seed(cfg.seed, index), bc);

  const std::int64_t tick_us = SimDuration::millis(50).count_micros();
  const std::int64_t t0 = wall_micros();
  // Outage evidence: the longest wall-clock stretch without a single frame
  // from the server. In a healthy run frames arrive every tick; across a
  // crash this is (restart delay + detection + rejoin) — the blackout the
  // acceptance bound is about.
  std::int64_t last_rx_wall = t0;
  std::int64_t max_rx_gap_us = 0;
  std::uint64_t frames_seen = 0;

  for (std::uint64_t k = 0; k < cfg.ticks; ++k) {
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(k + 1) * tick_us;
    for (;;) {
      const std::int64_t now = wall_micros();
      if (now >= deadline) break;
      udp.pump(/*timeout_ms=*/1);
      bot.poll_inbound();
      const std::uint64_t frames = bot.ingress_hash().frames();
      if (frames != frames_seen) {
        frames_seen = frames;
        last_rx_wall = now;
      } else {
        max_rx_gap_us = std::max(max_rx_gap_us, now - last_rx_wall);
      }
    }
    if (k == 0) bot.connect();
    bot.tick();
    faultnet.flush_egress();
    clock.advance(SimDuration::millis(50));
  }

  std::printf(
      "chaos_summary role=client name=%s joined=%d liveness_resets=%llu "
      "gaps=%llu resyncs=%llu dup_or_old=%llu max_rx_gap_ms=%lld "
      "decisions=%llu decision_hash=%016llx\n",
      bot.name().c_str(), bot.joined() ? 1 : 0,
      static_cast<unsigned long long>(bot.liveness_resets()),
      static_cast<unsigned long long>(bot.gaps_detected()),
      static_cast<unsigned long long>(bot.resyncs_requested()),
      static_cast<unsigned long long>(bot.dup_or_old_frames()),
      static_cast<long long>(max_rx_gap_us / 1000),
      static_cast<unsigned long long>(faultnet.frames_offered()),
      static_cast<unsigned long long>(faultnet.decision_hash()));
  std::fflush(stdout);
  return bot.joined() ? 0 : 1;
}

}  // namespace dyconits::apps
