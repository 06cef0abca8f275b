// The repository benchmark's load generator (see README.md).
//
//   perfbench --workload village_dense|udp_swarm|capped_flash
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Drives the program from its public constructors in one thread — World,
// SimNetwork or UdpTransport, GameServer, BotClient, plan_bots — so it can
// time GameServer::tick() and every other call from outside. A run is a
// sequence of episodes, each with its own seed drawn from --seed: set up,
// let every player join and the initial chunk streaming settle, then
// measure a fixed number of ticks. The episode count follows from --seconds
// and the workload's nominal episode time; setup_s is the median set-up.
//
// Load is open-loop in simulated time: bots act on seeded sim-time
// schedules, and the loop runs fast-forward, one tick right after the
// previous one, so every tick timing is CPU and kernel cost with no pacing
// sleep. With --trace 0 the run prints the end-to-end metrics; with
// --trace 1 it runs every seed twice, untraced then traced (TickProfiler,
// staleness recording, and the spans in measure.h), and prints the
// per-layer metrics, including the tracing overhead.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. A failed correctness check still prints it, with correct false,
// and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bots/bot.h"
#include "bots/workload.h"
#include "dyconit/policies/factory.h"
#include "measure.h"
#include "net/buffer_pool.h"
#include "net/sim_network.h"
#include "net/udp_transport.h"
#include "server/game_server.h"
#include "util/log.h"
#include "util/rng.h"
#include "world/terrain.h"
#include "world/world.h"

using namespace dyconits;
using perfbench::Ledger;
using perfbench::SpanLog;

namespace {

using WallClock = std::chrono::steady_clock;

double ms_between(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr double kTickIntervalMs = 50.0;
/// Default workload seed, and the held-out seed that is used only to
/// confirm a claim after the change was written (never while tuning).
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 20261017;
/// The map and where the crowd stands (plan_bots) are part of the workload
/// definition; the seed drives what players and mobs do and link jitter.
/// Seeding the plan too would move whole crowds between hotspots, and the
/// tick cost of a hotspot grows with the square of its crowd.
constexpr std::uint64_t kTerrainSeed = 1234;
constexpr std::uint64_t kPlanSeed = 42;
/// Enough episodes for a median set-up time, and at most as many as keep a
/// run well inside its time limit.
constexpr std::size_t kMinEpisodes = 3;
constexpr std::size_t kMaxEpisodes = 40;
/// Over UDP, frames not received this long after the tick are lost.
constexpr double kApplyDeadlineMs = 500.0;

struct Spec {
  std::string name;
  bool udp = false;
  bool dyconits = true;  // director policy; false = vanilla direct sends
  bots::WorkloadKind kind = bots::WorkloadKind::Village;
  double spread_radius = 150.0;
  std::size_t players = 0;
  std::size_t mobs = 0;
  double mob_spawn_radius = 96.0;
  int view_distance = 8;
  std::size_t joins_per_tick = 8;
  std::uint64_t warmup_ticks = 0;   // set-up ticks: joins + chunk streaming
  std::uint64_t measure_ticks = 0;  // measured ticks per episode
  /// Server uplink cap (bytes/s) applied from the first measured tick, and
  /// the overload controller's uplink budget; 0 = uncapped, overload off.
  std::uint64_t egress_cap = 0;
  /// Players held out of set-up; they join from the middle of the window.
  std::size_t flash_players = 0;
  /// Nominal wall seconds per episode, about twice what one takes on the
  /// reference host (README.md), so a run stays within --seconds on a host
  /// up to twice as slow. A run of --seconds S measures max(3, S / episode_s)
  /// episodes, so its inputs depend on the seed and S alone, never on the
  /// program's speed.
  double episode_s = 1.0;
};

std::optional<Spec> spec_for(const std::string& name, bool smoke) {
  Spec s;
  s.name = name;
  if (name == "village_dense") {
    // Dyconit flush dominates the tick; the sim transport is nearly free.
    s.kind = bots::WorkloadKind::Village;
    s.players = 100;
    s.warmup_ticks = 60;
    s.measure_ticks = 1000;
    s.episode_s = 7.5;
  } else if (name == "udp_swarm") {
    // Real loopback sockets, vanilla: thousands of small moves per tick
    // through encode, datagram packing, syscalls, client receive and parse.
    s.udp = true;
    s.dyconits = false;
    s.kind = bots::WorkloadKind::Walk;
    s.spread_radius = 16.0;
    s.players = 3;
    s.mobs = 1500;
    s.mob_spawn_radius = 40.0;
    // The tick's tail stays high for the first ~200 ticks after the joins,
    // while the mobs spread out and the clients' replicas fill.
    s.warmup_ticks = 250;
    s.measure_ticks = 2000;
    s.episode_s = 5.0;
  } else if (name == "capped_flash") {
    // A capped uplink with overload control on, and a flash crowd whose
    // chunk streams back up the joiners' egress queues. The cap sits above
    // steady egress: in this program the ladder's modeled cost is frame
    // dominated, so any cap that binds in steady state drives it to the
    // Disconnect rung, shedding updates and refusing joins (README.md).
    s.kind = bots::WorkloadKind::Mixed;
    s.players = 120;
    s.view_distance = 4;
    // The flash crowd's four join ticks are the costliest of an episode;
    // a window of 800 ticks puts its p99 among the steadier chunk-streaming
    // ticks that follow them, not on the edge between the two.
    s.warmup_ticks = 80;
    s.measure_ticks = 800;
    s.episode_s = 3.0;
    s.egress_cap = 24'000'000;
    s.flash_players = s.players / 4;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    s.players = std::max<std::size_t>(3, s.players / 10);
    s.mobs /= 10;
    s.flash_players = s.flash_players > 0 ? std::max<std::size_t>(1, s.players / 4) : 0;
    s.warmup_ticks = 40;
    s.measure_ticks = 40;
  }
  return s;
}

/// Sim-workload outputs that are a pure function of the seed: every episode
/// of a run must reproduce them exactly.
struct ExactCounts {
  std::uint64_t egress_bytes = 0;
  std::uint64_t egress_frames = 0;
  std::uint64_t wire_hash = 0;
  std::uint64_t dyconit_enqueued = 0;
  std::uint64_t dyconit_coalesced = 0;
  std::uint64_t dyconit_delivered = 0;
  std::uint64_t dyconit_forced = 0;
  std::uint64_t updates_applied = 0;
  bool operator==(const ExactCounts&) const = default;
};

struct Episode {
  explicit Episode(bool traced) : traced(traced), spans(traced) {}

  bool traced;
  std::string error;  // non-empty: a correctness check failed
  double setup_s = 0.0;
  std::vector<double> tick_ms;
  std::vector<double> modeled_ms;
  /// Sim: server event to bot application (sim ms). UDP: start of the
  /// server tick until every client applied its frames (wall ms).
  std::vector<double> latency_ms;
  std::vector<double> inconsistency;  // blocks, one sample per sim second
  std::vector<double> staleness_ms;   // traced only
  double measured_sim_s = 0.0;
  ExactCounts exact;
  Ledger ledger;
  std::map<std::string, double> layer;  // traced only
  SpanLog spans;
};

struct Lane {
  std::unique_ptr<net::UdpTransport> udp;  // UDP workloads only
  std::unique_ptr<bots::BotClient> bot;
};

std::uint64_t sum_bots(const std::vector<Lane>& lanes,
                       std::uint64_t (bots::BotClient::*counter)() const) {
  std::uint64_t n = 0;
  for (const Lane& l : lanes) n += ((*l.bot).*counter)();
  return n;
}

double per(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

Episode run_episode(const Spec& s, std::uint64_t seed, bool traced) {
  Episode ep(traced);
  SpanLog& log = ep.spans;
  const auto t_start = WallClock::now();

  SimClock clock;
  // A JoinRequest stamped at exactly t=0 reads as "never sent" to the bot's
  // retry logic; start one tick in.
  clock.advance(SimDuration::millis(50));

  std::unique_ptr<world::World> world;
  {
    SpanLog::Scope span(log, "setup.world");
    world = std::make_unique<world::World>(
        std::make_unique<world::TerrainGenerator>(kTerrainSeed));
  }

  std::unique_ptr<net::SimNetwork> sim;
  std::unique_ptr<net::UdpTransport> sudp;
  net::UdpConfig ucfg;
  ucfg.idle_timeout = SimDuration(0);  // the fast-forward loop never idles
  if (s.udp) {
    sudp = std::make_unique<net::UdpTransport>(clock, ucfg);
    if (!sudp->valid()) {
      ep.error = "server socket: " + sudp->error();
      return ep;
    }
  } else {
    sim = std::make_unique<net::SimNetwork>(clock, seed ^ 0x5E7ull);
  }
  net::Transport& server_net =
      s.udp ? static_cast<net::Transport&>(*sudp) : static_cast<net::Transport&>(*sim);

  bots::WorkloadConfig wcfg;
  wcfg.kind = s.kind;
  wcfg.spread_radius = s.spread_radius;
  const auto plans = bots::plan_bots(wcfg, s.players, kPlanSeed);
  auto homes = std::make_shared<std::unordered_map<std::string, world::Vec3>>();
  for (const auto& p : plans) (*homes)[p.name] = p.home;

  std::unique_ptr<server::GameServer> server;
  {
    SpanLog::Scope span(log, "setup.server");
    server::ServerConfig scfg;
    scfg.view_distance = s.view_distance;
    scfg.use_dyconits = s.dyconits;
    scfg.deterministic_load = true;
    scfg.profile_ticks = traced;
    scfg.mob_count = s.mobs;
    scfg.mob_spawn_radius = s.mob_spawn_radius;
    scfg.mob_seed = seed ^ 0x30B5ull;
    if (s.egress_cap > 0) {
      scfg.overload.enabled = true;
      scfg.overload.uplink_bytes_per_second = s.egress_cap;
    }
    world::World* w = world.get();
    scfg.spawn_provider = [homes, w](const std::string& name) {
      const auto it = homes->find(name);
      const world::Vec3 home = it != homes->end() ? it->second : world::Vec3{};
      return w->spawn_position(static_cast<std::int32_t>(home.x),
                               static_cast<std::int32_t>(home.z));
    };
    server = std::make_unique<server::GameServer>(
        clock, server_net, *world, s.dyconits ? dyconit::make_policy("director") : nullptr,
        scfg);
    server->dyconits().set_record_staleness(traced);
  }

  std::vector<Lane> lanes;
  {
    SpanLog::Scope span(log, "setup.bots");
    Rng bot_seeds(seed ^ 0xB075EEDull);
    for (const auto& p : plans) {
      Lane lane;
      bots::BotConfig bc = p.config;
      net::Transport* bot_net = sim.get();
      net::EndpointId server_ep = server->endpoint();
      if (s.udp) {
        lane.udp = std::make_unique<net::UdpTransport>(clock, ucfg);
        if (!lane.udp->valid()) {
          ep.error = "bot socket: " + lane.udp->error();
          return ep;
        }
        server_ep = lane.udp->add_peer("127.0.0.1", sudp->local_port(), "server");
        bot_net = lane.udp.get();
        bc.liveness_timeout = SimDuration(0);
      }
      lane.bot = std::make_unique<bots::BotClient>(clock, *bot_net, *world, server_ep,
                                                   p.name, bot_seeds.next_u64(), bc);
      if (sim) {
        sim->connect(lane.bot->endpoint(), server->endpoint(),
                     {SimDuration::millis(25), 0.1, true});
      }
      lanes.push_back(std::move(lane));
    }
  }

  const std::size_t flash_begin = lanes.size() - s.flash_players;
  std::size_t next_join = 0;
  std::uint64_t udp_lost = 0;     // frames given up on, whole episode
  bool measuring = false;
  std::uint64_t window_tick = 0;  // index within the measured window
  int rung_max = 0;

  // Over UDP: receive until every client has applied every frame the
  // server sent so far. Returns the wall time from `t0` to that point.
  const auto drain_clients = [&](WallClock::time_point t0) {
    SpanLog::Scope span(log, "drain");
    const std::uint64_t target = sudp->egress_frames(server->endpoint()) - udp_lost;
    for (;;) {
      const std::uint64_t before = sum_bots(lanes, &bots::BotClient::frames_received);
      for (Lane& l : lanes) {
        { SpanLog::Scope p(log, "udp.client.pump"); l.udp->pump(0); }
        { SpanLog::Scope p(log, "bots.poll_inbound"); l.bot->poll_inbound(); }
      }
      const std::uint64_t got = sum_bots(lanes, &bots::BotClient::frames_received);
      if (got >= target) break;
      if (got == before) {
        if (ms_between(t0, WallClock::now()) > kApplyDeadlineMs) {
          udp_lost += target - got;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return ms_between(t0, WallClock::now());
  };

  const auto sample_inconsistency = [&] {
    SpanLog::Scope span(log, "sample.inconsistency");
    double sum = 0.0;
    std::size_t n = 0;
    for (const Lane& l : lanes) {
      if (!l.bot->joined()) continue;
      for (const auto& [id, rep] : l.bot->replica_entities()) {
        const entity::Entity* truth = server->entities().find(id);
        if (truth == nullptr) continue;
        sum += world::distance(rep.pos, truth->pos);
        ++n;
      }
    }
    if (n > 0) ep.inconsistency.push_back(sum / static_cast<double>(n));
  };

  const auto step = [&] {
    log.set_tick(server->tick_count() + 1);
    SpanLog::Scope loop(log, "loop.tick");
    clock.advance(SimDuration::millis(50));
    // Set-up joins everyone but the flash cohort; the cohort arrives from
    // the middle of the measured window, at the same per-tick join rate.
    const std::size_t join_end =
        measuring && window_tick >= s.measure_ticks / 2 ? lanes.size() : flash_begin;
    for (std::size_t j = 0; j < s.joins_per_tick && next_join < join_end; ++j) {
      lanes[next_join++].bot->connect();
    }
    {
      SpanLog::Scope span(log, "bots.tick");
      for (Lane& l : lanes) {
        l.bot->tick();
        if (l.udp) l.udp->flush_egress();
      }
    }
    if (sudp) {
      SpanLog::Scope span(log, "udp.server.pump");
      sudp->pump(0);
    }
    const auto t0 = WallClock::now();
    {
      SpanLog::Scope span(log, "server.tick");
      server->tick();
    }
    {
      SpanLog::Scope span(log, s.udp ? "udp.server.flush_egress" : "net.flush_egress");
      server_net.flush_egress();
    }
    const auto t1 = WallClock::now();
    if (measuring) {
      const double tick_ms = ms_between(t0, t1);
      ep.tick_ms.push_back(tick_ms);
      ep.ledger.add_tick(tick_ms, kTickIntervalMs);
      ep.modeled_ms.push_back(
          static_cast<double>(server->last_tick_cpu().count_micros()) / 1000.0);
      rung_max = std::max(rung_max, server->overload_rung());
      if (window_tick % 20 == 19) sample_inconsistency();
    }
    if (sudp) {
      const double apply_ms = drain_clients(t0);
      if (measuring) ep.latency_ms.push_back(apply_ms);
    }
    if (measuring) ++window_tick;
  };

  {
    SpanLog::Scope span(log, "setup.joins");
    for (std::uint64_t t = 0; t < s.warmup_ticks; ++t) step();
  }
  for (std::size_t i = 0; i < flash_begin; ++i) {
    if (!lanes[i].bot->joined()) {
      ep.error = "player " + lanes[i].bot->name() + " had not joined when measurement began";
      return ep;
    }
  }
  ep.setup_s = std::chrono::duration<double>(WallClock::now() - t_start).count();

  // -- measured window: baselines --
  if (sim && s.egress_cap > 0) sim->set_egress_rate(server->endpoint(), s.egress_cap);
  const std::uint64_t first_tick = server->tick_count() + 1;
  const std::uint64_t bytes0 = server_net.egress_bytes(server->endpoint());
  const std::uint64_t frames0 = server_net.egress_frames(server->endpoint());
  const dyconit::Stats dy0 = server->dyconit_stats();
  const server::OverloadStats ov0 = server->overload_stats();
  const net::BufferPool::Stats pool0 = net::BufferPool::instance().stats();
  const net::UdpStats udp0 = sudp ? sudp->stats() : net::UdpStats{};
  const std::uint64_t applied0 = sum_bots(lanes, &bots::BotClient::updates_applied);
  const std::uint64_t gaps0 = sum_bots(lanes, &bots::BotClient::gaps_detected);
  const std::uint64_t lost0 = udp_lost;
  for (Lane& l : lanes) l.bot->update_latency_ms().clear();
  server->dyconits().stats().staleness_ms.clear();
  server->profiler().reset();

  measuring = true;
  for (std::uint64_t t = 0; t < s.measure_ticks; ++t) step();
  const std::uint64_t last_tick = server->tick_count();
  const double ticks = static_cast<double>(s.measure_ticks);
  ep.measured_sim_s = ticks * kTickIntervalMs / 1000.0;

  // -- window deltas --
  const std::uint64_t dbytes = server_net.egress_bytes(server->endpoint()) - bytes0;
  const std::uint64_t dframes = server_net.egress_frames(server->endpoint()) - frames0;
  const dyconit::Stats& dy1 = server->dyconit_stats();
  const server::OverloadStats& ov1 = server->overload_stats();
  const net::BufferPool::Stats pool1 = net::BufferPool::instance().stats();

  ep.exact.egress_bytes = dbytes;
  ep.exact.egress_frames = dframes;
  ep.exact.wire_hash = sim ? sim->wire_hash() : 0;
  ep.exact.dyconit_enqueued = dy1.enqueued - dy0.enqueued;
  ep.exact.dyconit_coalesced = dy1.coalesced - dy0.coalesced;
  ep.exact.dyconit_delivered = dy1.delivered - dy0.delivered;
  ep.exact.dyconit_forced = dy1.flushes_forced - dy0.flushes_forced;
  ep.exact.updates_applied = sum_bots(lanes, &bots::BotClient::updates_applied) - applied0;

  Ledger& led = ep.ledger;
  // Every refusal is followed by a retry, so attempts = flash joiners + refusals.
  led.joins_refused = ov1.joins_refused - ov0.joins_refused;
  led.joins_attempted = (lanes.size() - flash_begin) + led.joins_refused;
  led.updates_applied = ep.exact.updates_applied;
  led.updates_shed = (ov1.egress_evicted_moves - ov0.egress_evicted_moves) +
                     (ov1.egress_dropped_moves - ov0.egress_dropped_moves) +
                     (ov1.egress_dropped_ordered - ov0.egress_dropped_ordered) +
                     (ov1.egress_dropped_disconnect - ov0.egress_dropped_disconnect) +
                     (dy1.shed_updates - dy0.shed_updates);
  led.updates_lost = udp_lost - lost0;
  led.sends_refused = sudp ? sudp->stats().send_failures - udp0.send_failures : 0;

  if (!s.udp) {
    for (const Lane& l : lanes) {
      const auto& v = l.bot->update_latency_ms().values();
      ep.latency_ms.insert(ep.latency_ms.end(), v.begin(), v.end());
    }
  }

  // -- correctness: nothing on the wire may fail to parse --
  const std::uint64_t decode_failures = sum_bots(lanes, &bots::BotClient::decode_failures);
  std::uint64_t malformed = server->malformed_frames();
  if (sudp) {
    malformed += sudp->stats().malformed_datagrams;
    for (const Lane& l : lanes) malformed += l.udp->stats().malformed_datagrams;
  }
  if (decode_failures > 0 || malformed > 0) {
    ep.error = "decode_failures=" + std::to_string(decode_failures) +
               " malformed=" + std::to_string(malformed);
  }

  if (traced) {
    auto& L = ep.layer;
    const auto spans = log.totals(first_tick, last_tick);
    const auto setup_spans = log.totals(0, first_tick - 1);
    const auto busy = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.busy_ms / ticks;
    };
    const auto setup_ms = [&](const char* name) {
      const auto it = setup_spans.find(name);
      return it == setup_spans.end() ? 0.0 : it->second.busy_ms;
    };
    L["server.tick.busy_ms"] = busy("server.tick");
    const trace::TickProfiler::Report rep = server->profiler().report();
    const auto phase = [&](const char* name) {
      for (const auto& p : rep.phases) {
        if (p.name == name) return p.ms.mean();
      }
      return 0.0;
    };
    for (const char* p : {"inbound", "mobs", "dispatch", "chunks", "overload",
                          "dyconit_flush", "policy"}) {
      L[std::string("server.") + p + ".self_ms"] = phase((std::string("server.") + p).c_str());
    }
    L["server.serialize_send.ms"] = phase("server.serialize_send");
    L["server.frames_per_tick"] = static_cast<double>(dframes) / ticks;
    L["server.bytes_per_frame"] = per(static_cast<double>(dbytes), static_cast<double>(dframes));
    L["net.modeled_ms"] = perfbench::mean_of(ep.modeled_ms);
    L["dyconit.flush_due.ms"] = phase("dyconit.flush_due");
    L["dyconit.enqueue.ms"] = phase("dyconit.enqueue");
    L["dyconit.gc.ms"] = phase("dyconit.gc");
    const auto enq = static_cast<double>(ep.exact.dyconit_enqueued);
    L["dyconit.enqueued_per_tick"] = enq / ticks;
    L["dyconit.coalesced_ratio"] = per(static_cast<double>(ep.exact.dyconit_coalesced), enq);
    L["dyconit.delivered_per_tick"] = static_cast<double>(ep.exact.dyconit_delivered) / ticks;
    L["dyconit.forced_flush_share"] =
        per(static_cast<double>(ep.exact.dyconit_forced),
            static_cast<double>(dy1.flushes() - dy0.flushes()));
    ep.staleness_ms = server->dyconit_stats().staleness_ms;
    L["net.send.ms"] = phase("net.send");
    L["net.poll.ms"] = phase("net.poll");
    L["udp.server.pump.busy_ms"] = busy("udp.server.pump");
    L["udp.server.flush_egress.busy_ms"] = busy("udp.server.flush_egress");
    L["udp.client.pump.busy_ms"] = busy("udp.client.pump");
    if (sudp) {
      const net::UdpStats& u = sudp->stats();
      const auto dgrams = static_cast<double>(u.datagrams_sent - udp0.datagrams_sent);
      L["udp.datagrams_per_tick"] = dgrams / ticks;
      L["udp.frames_per_datagram"] = per(static_cast<double>(dframes), dgrams);
      L["udp.fragments_per_tick"] =
          static_cast<double>(u.fragments_sent - udp0.fragments_sent) / ticks;
      L["udp.send_failures"] = static_cast<double>(u.send_failures - udp0.send_failures);
      L["udp.send_retries"] = static_cast<double>(u.send_retries - udp0.send_retries);
      L["udp.malformed_datagrams"] = static_cast<double>(malformed);
    }
    const auto pool_misses = static_cast<double>(pool1.misses - pool0.misses);
    const auto pool_hits = static_cast<double>(pool1.hits - pool0.hits);
    L["pool.misses_per_tick"] = pool_misses / ticks;
    L["pool.hit_ratio"] = per(pool_hits, pool_hits + pool_misses);
    L["overload.ladder_transitions"] =
        static_cast<double>(ov1.ladder_transitions - ov0.ladder_transitions);
    L["overload.rung_max"] = static_cast<double>(rung_max);
    L["overload.egress_coalesced"] =
        static_cast<double>(ov1.egress_coalesced - ov0.egress_coalesced);
    L["overload.egress_shed"] = static_cast<double>(led.updates_shed);
    L["overload.chunks_deferred"] =
        static_cast<double>(ov1.chunks_deferred - ov0.chunks_deferred);
    L["overload.joins_refused"] = static_cast<double>(led.joins_refused);
    L["overload.peak_queue_bytes"] = static_cast<double>(ov1.peak_queue_bytes);
    L["bots.tick.busy_ms"] = busy("bots.tick");
    L["bots.poll_inbound.busy_ms"] = busy("bots.poll_inbound");
    L["bots.updates_applied_per_tick"] = static_cast<double>(ep.exact.updates_applied) / ticks;
    L["bots.gaps_detected"] =
        static_cast<double>(sum_bots(lanes, &bots::BotClient::gaps_detected) - gaps0);
    L["bots.decode_failures"] = static_cast<double>(decode_failures);
    L["world.loaded_chunks"] = static_cast<double>(world->loaded_chunk_count());
    const auto loop_it = spans.find("loop.tick");
    L["loop.self_ms"] = loop_it == spans.end() ? 0.0 : loop_it->second.self_ms / ticks;
    L["setup.world.busy_ms"] = setup_ms("setup.world");
    L["setup.server.busy_ms"] = setup_ms("setup.server");
    L["setup.bots.busy_ms"] = setup_ms("setup.bots");
    L["setup.joins.busy_ms"] = setup_ms("setup.joins");
  }
  return ep;
}

// ------------------------------------------------------------------ report

/// Per-layer metrics of the traced run, in output order, with units.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"server.tick.busy_ms", "ms"},
      {"server.inbound.self_ms", "ms"},
      {"server.mobs.self_ms", "ms"},
      {"server.dispatch.self_ms", "ms"},
      {"server.chunks.self_ms", "ms"},
      {"server.overload.self_ms", "ms"},
      {"server.dyconit_flush.self_ms", "ms"},
      {"server.policy.self_ms", "ms"},
      {"server.serialize_send.ms", "ms"},
      {"server.frames_per_tick", "count"},
      {"server.bytes_per_frame", "bytes"},
      {"net.modeled_ms", "ms"},
      {"dyconit.flush_due.ms", "ms"},
      {"dyconit.enqueue.ms", "ms"},
      {"dyconit.gc.ms", "ms"},
      {"dyconit.enqueued_per_tick", "count"},
      {"dyconit.coalesced_ratio", "ratio"},
      {"dyconit.delivered_per_tick", "count"},
      {"dyconit.forced_flush_share", "ratio"},
      {"dyconit.staleness_ms_p99", "ms"},
      {"net.send.ms", "ms"},
      {"net.poll.ms", "ms"},
      {"udp.server.pump.busy_ms", "ms"},
      {"udp.server.flush_egress.busy_ms", "ms"},
      {"udp.client.pump.busy_ms", "ms"},
      {"udp.datagrams_per_tick", "count"},
      {"udp.frames_per_datagram", "count"},
      {"udp.fragments_per_tick", "count"},
      {"udp.send_failures", "count"},
      {"udp.send_retries", "count"},
      {"udp.malformed_datagrams", "count"},
      {"pool.misses_per_tick", "count"},
      {"pool.hit_ratio", "ratio"},
      {"overload.ladder_transitions", "count"},
      {"overload.rung_max", "rung"},
      {"overload.egress_coalesced", "count"},
      {"overload.egress_shed", "count"},
      {"overload.chunks_deferred", "count"},
      {"overload.joins_refused", "count"},
      {"overload.peak_queue_bytes", "bytes"},
      {"bots.tick.busy_ms", "ms"},
      {"bots.poll_inbound.busy_ms", "ms"},
      {"bots.updates_applied_per_tick", "count"},
      {"bots.gaps_detected", "count"},
      {"bots.decode_failures", "count"},
      {"world.loaded_chunks", "count"},
      {"loop.self_ms", "ms"},
      {"setup.world.busy_ms", "ms"},
      {"setup.server.busy_ms", "ms"},
      {"setup.bots.busy_ms", "ms"},
      {"setup.joins.busy_ms", "ms"},
      {"trace.tick_ms_p50", "ms"},
      {"trace.untraced_tick_ms_p50", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename F>
std::vector<double> pooled(const std::vector<Episode>& eps, bool traced, F field) {
  std::vector<double> out;
  for (const Episode& e : eps) {
    if (e.traced != traced) continue;
    const std::vector<double>& v = field(e);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload village_dense|udp_swarm|capped_flash\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
               "default seed %" PRIu64 "; held-out seed %" PRIu64
               " (confirm claims only)\n",
               kDefaultSeed, kHeldOutSeed);
}

}  // namespace


int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      usage();
      return 2;
    }
  }
  const std::optional<Spec> spec = spec_for(workload, smoke);
  if (!spec) {
    usage();
    return 2;
  }

  // Each episode runs its own seed drawn from --seed, so a run averages
  // over several instances of the workload. The traced run measures half as
  // many seeds, each twice: untraced, then traced.
  std::size_t n_seeds = 1;
  if (!smoke) {
    n_seeds = std::clamp<std::size_t>(static_cast<std::size_t>(seconds / spec->episode_s),
                                      kMinEpisodes, kMaxEpisodes);
    if (trace) n_seeds = std::max<std::size_t>(1, n_seeds / 2);
  }
  Rng seeder(seed);
  std::vector<Episode> eps;
  std::string error;
  for (std::size_t i = 0; i < n_seeds && error.empty(); ++i) {
    const std::uint64_t episode_seed = seeder.next_u64();
    for (const bool traced : {false, true}) {
      if (traced && !trace) break;
      eps.push_back(run_episode(*spec, episode_seed, traced));
      if (!eps.back().error.empty()) {
        error = eps.back().error;
        break;
      }
    }
    // The sim is deterministic: tracing must not change what goes on the wire.
    if (error.empty() && trace && !spec->udp &&
        !(eps[eps.size() - 1].exact == eps[eps.size() - 2].exact)) {
      error = "traced and untraced episodes of one seed sent different traffic";
    }
  }

  Ledger ledger;
  ExactCounts total;
  double window_sim_s = 0.0;
  std::vector<double> setups;
  for (const Episode& e : eps) {
    setups.push_back(e.setup_s);
    if (e.traced) continue;
    ledger.merge(e.ledger);
    total.egress_bytes += e.exact.egress_bytes;
    total.egress_frames += e.exact.egress_frames;
    total.wire_hash = total.wire_hash * 1099511628211ull ^ e.exact.wire_hash;
    total.dyconit_enqueued += e.exact.dyconit_enqueued;
    total.dyconit_coalesced += e.exact.dyconit_coalesced;
    total.dyconit_delivered += e.exact.dyconit_delivered;
    total.dyconit_forced += e.exact.dyconit_forced;
    total.updates_applied += e.exact.updates_applied;
    window_sim_s += e.measured_sim_s;
  }

  const auto pct_of = [](std::vector<double> v, double q) { return perfbench::percentile(v, q); };
  const auto untraced = [&](auto field) { return pooled(eps, false, field); };
  const std::vector<double> ticks = untraced([](const Episode& e) -> auto& { return e.tick_ms; });
  const std::vector<double> latency =
      untraced([](const Episode& e) -> auto& { return e.latency_ms; });
  const perfbench::Percentile tick50 = pct_of(ticks, 0.5);
  // Every episode measures measure_ticks ticks: blocks hold whole episodes.
  const perfbench::Percentile tick99 =
      perfbench::block_percentile(ticks, 0.99, spec->measure_ticks);
  const perfbench::Percentile lat50 = pct_of(latency, 0.5);
  // One tick-to-apply sample per tick over UDP: as noise-prone as the tick.
  const perfbench::Percentile lat99 =
      spec->udp ? perfbench::block_percentile(latency, 0.99, spec->measure_ticks)
                : pct_of(latency, 0.99);

  std::vector<Metric> metrics;
  std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d episodes=%zu seeds=%zu%s\n",
              spec->name.c_str(), seed, trace ? 1 : 0, eps.size(), n_seeds,
              smoke ? " smoke" : "");
  if (!trace) {
    metrics.push_back({"tick_ms_p50", tick50.value, "ms"});
    metrics.push_back({"tick_ms_p99", tick99.value, "ms"});
    metrics.push_back({"egress_kbps", per(static_cast<double>(total.egress_bytes) / 1000.0,
                                          window_sim_s),
                       "KB/sim-s"});
    metrics.push_back({"update_latency_ms_p50", lat50.value, "ms"});
    metrics.push_back({"update_latency_ms_p99", lat99.value, "ms"});
    metrics.push_back({"inconsistency_blocks",
                       perfbench::mean_of(untraced(
                           [](const Episode& e) -> auto& { return e.inconsistency; })),
                       "blocks"});
    metrics.push_back({"setup_s", pct_of(setups, 0.5).value, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    std::printf("  samples: ticks=%zu, p99 = median of %zu blocks' p99 (%zu beyond each)%s; "
                "latency=%zu, p99 has %zu beyond%s\n",
                tick99.samples, tick99.blocks, tick99.beyond,
                tick99.supported ? "" : " UNSUPPORTED", lat99.samples, lat99.beyond,
                lat99.supported ? "" : " UNSUPPORTED");
    std::printf("  update latency is %s\n",
                spec->udp ? "tick to apply: wall ms from the start of the server tick until "
                            "every client has applied that tick's frames"
                          : "server event to bot application, sim ms");
    std::printf("  tick max=%.4f ms; cost model: modeled net ms/tick p50=%.4f vs measured "
                "tick p50=%.4f\n",
                pct_of(ticks, 1.0).value,
                pct_of(untraced([](const Episode& e) -> auto& { return e.modeled_ms; }), 0.5)
                    .value,
                tick50.value);
  } else {
    std::map<std::string, double> layer;
    std::size_t traced_eps = 0;
    for (const Episode& e : eps) {
      if (!e.traced) continue;
      ++traced_eps;
      for (const auto& [k, v] : e.layer) layer[k] += v;
    }
    for (auto& [k, v] : layer) v /= static_cast<double>(std::max<std::size_t>(1, traced_eps));
    layer["dyconit.staleness_ms_p99"] =
        pct_of(pooled(eps, true, [](const Episode& e) -> auto& { return e.staleness_ms; }),
               0.99)
            .value;
    layer["trace.tick_ms_p50"] =
        pct_of(pooled(eps, true, [](const Episode& e) -> auto& { return e.tick_ms; }), 0.5)
            .value;
    layer["trace.untraced_tick_ms_p50"] = tick50.value;
    layer["trace.overhead_ms"] = layer["trace.tick_ms_p50"] - tick50.value;
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = layer.find(name);
      metrics.push_back({name, it == layer.end() ? 0.0 : it->second, unit});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  failures: late_tick_pct=%.4f update_loss_pct=%.4f join_refused_pct=%.4f "
              "(late=%" PRIu64 "/%" PRIu64 " shed=%" PRIu64 " lost=%" PRIu64
              " refused_sends=%" PRIu64 " refused_joins=%" PRIu64 "/%" PRIu64 ")\n",
              ledger.late_tick_pct(), ledger.update_loss_pct(), ledger.join_refused_pct(),
              ledger.late_ticks, ledger.ticks, ledger.updates_shed, ledger.updates_lost,
              ledger.sends_refused, ledger.joins_refused, ledger.joins_attempted);
  std::printf("  exact%s: egress_bytes=%" PRIu64 " egress_frames=%" PRIu64
              " wire_hash=%016" PRIx64 " dyconit.enqueued=%" PRIu64
              " dyconit.coalesced=%" PRIu64 " dyconit.delivered=%" PRIu64
              " dyconit.flushes_forced=%" PRIu64 " updates_applied=%" PRIu64 "\n",
              spec->udp ? " (not deterministic over sockets)" : "",
              total.egress_bytes, total.egress_frames, total.wire_hash, total.dyconit_enqueued,
              total.dyconit_coalesced, total.dyconit_delivered, total.dyconit_forced,
              total.updates_applied);
  if (!error.empty()) std::printf("  CORRECTNESS FAILURE: %s\n", error.c_str());

  std::string json = "{\"correct\": ";
  json += error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, ledger.attempted()));
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return error.empty() ? 0 : 1;
}
