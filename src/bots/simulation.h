// The experiment harness: builds a server + bot fleet on a simulated
// network, runs a fixed amount of simulated time, and collects the
// quantities the paper's evaluation reports (egress bandwidth, tick
// duration, client-observed inconsistency, update latency, middleware
// stats). Every bench binary and example is a thin wrapper around this.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bots/bot.h"
#include "bots/faults.h"
#include "bots/overload_schedule.h"
#include "bots/workload.h"
#include "metrics/metrics.h"
#include "net/buffer_pool.h"
#include "net/fault_transport.h"
#include "server/game_server.h"
#include "trace/tick_profiler.h"

namespace dyconits::bots {

struct SimulationConfig {
  std::size_t players = 50;
  SimDuration duration = SimDuration::seconds(60);
  /// Measurements start after warmup (joins + chunk streaming settle).
  SimDuration warmup = SimDuration::seconds(15);

  /// Policy spec (see dyconit::make_policy), or "vanilla" for the
  /// unmodified direct-send baseline (no middleware at all).
  std::string policy = "director";

  std::uint64_t seed = 42;
  std::uint64_t terrain_seed = 1234;
  int view_distance = 8;

  SimDuration link_latency = SimDuration::millis(25);
  double link_jitter = 0.1;
  /// false models a UDP-like transport: jitter may reorder frames; clients
  /// report order error and reject stale moves.
  bool fifo_links = true;
  /// Server uplink capacity in bytes/second (0 = unlimited). Applied at
  /// warmup end so the join burst doesn't poison steady state; saturation
  /// then shows up as queueing delay in update latency.
  std::uint64_t server_egress_rate = 0;
  /// Bandwidth budget handed to adaptive policies, bits/second (0 = none).
  double bandwidth_budget_bps = 0.0;

  WorkloadConfig workload;
  std::size_t joins_per_tick = 2;
  /// Server-driven NPC wanderers (see ServerConfig::mob_count).
  std::size_t mobs = 0;
  /// Environmental block ticks per game tick (see ServerConfig).
  std::size_t env_ticks = 0;
  /// Survival economy: digs drop items, placement consumes inventory; bots
  /// run their gather-then-build loop.
  bool survival = false;

  /// Player churn: expected session leaves per simulated second (after
  /// warmup). A leaver disconnects server-side and rejoins fresh after
  /// churn_rejoin_delay — a Minecraft-realistic stressor for session
  /// teardown, chunk re-streaming, and dyconit (un)subscription.
  double churn_per_second = 0.0;
  SimDuration churn_rejoin_delay = SimDuration::seconds(3);

  /// Fault schedule (probabilistic link faults + scheduled flaps /
  /// partitions / crashes), translated into the net::FaultPlan of the
  /// run's fault layer at construction. See bots/faults.h for the
  /// --faults=FILE format.
  FaultScheduleConfig faults;
  /// Seed for the dedicated fault RNG stream; 0 derives one from `seed`.
  /// Same seed + same schedule replays the run byte-identically.
  std::uint64_t fault_seed = 0;

  /// Server-side overload control knobs (DESIGN.md §10), passed through to
  /// ServerConfig::overload. Disabled by default.
  server::OverloadConfig overload;
  /// Overload scenario schedule (stalled clients, flash crowds, spam
  /// bursts). See bots/overload_schedule.h for the --overload=FILE format.
  /// Flash cohorts are held out of the normal join ramp and all join at
  /// their scheduled time.
  OverloadScheduleConfig overload_schedule;

  bool record_staleness = false;
  bool keep_chunk_replica = false;
  /// Record per-second timeline series into the registry (E7/E9).
  bool record_timelines = false;
  /// Aggregate tick spans into SimulationResult::phases (E5/E6). Costs
  /// span timestamps on the send path, so off unless the run prints it.
  bool profile_phases = false;

  /// Pin adaptive policies to the modeled (deterministic) tick-cost signal
  /// instead of measured wall-clock CPU — required for byte-exact replay
  /// across hosts and builds (see ServerConfig::deterministic_load).
  bool deterministic_load = false;

  /// Test hook: last-chance edit of the derived ServerConfig before the
  /// server is constructed (e.g. disabling keep-alive teardown so a test
  /// isolates what bounds memory for a stalled client).
  std::function<void(server::ServerConfig&)> tweak_server;

  /// Test hook: last-chance edit of each bot's derived BotConfig before the
  /// bot is constructed (e.g. arming liveness detection and jittered join
  /// backoff for a server-outage scenario). Applied after workload defaults.
  std::function<void(BotConfig&)> tweak_bot;
};

struct SimulationResult {
  std::string policy;
  std::size_t players = 0;
  double measured_seconds = 0.0;

  // Steady-state (post-warmup) server egress.
  double egress_bytes_per_sec = 0.0;
  double egress_frames_per_sec = 0.0;
  std::map<protocol::MessageType, std::uint64_t> egress_bytes_by_type;

  // Server CPU per tick (ms), post-warmup.
  Samples tick_ms;

  // Client-observed inconsistency: per-second mean and max positional error
  // (blocks) between bot replicas and server ground truth.
  Samples pos_error_mean;
  Samples pos_error_max;

  // End-to-end update latency (ms), merged over bots, post-warmup.
  Samples update_latency_ms;
  // Latency of nearby updates only (what a player perceives).
  Samples near_update_latency_ms;

  // Middleware counters over the measurement window.
  dyconit::Stats dyconit_stats;
  /// Staleness (ms) of updates at flush, if record_staleness was set.
  Samples staleness_ms;

  std::uint64_t updates_applied = 0;
  std::uint64_t unknown_entity_updates = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t churn_leaves = 0;
  std::uint64_t churn_rejoins = 0;
  std::uint64_t out_of_order_frames = 0;
  std::uint64_t stale_moves_rejected = 0;

  // Fault / recovery counters (whole run, not just the measurement window —
  // chaos experiments schedule faults before warmup ends too). Client side
  // summed over bots; server and wire counters read at finalize.
  std::uint64_t gaps_detected = 0;
  std::uint64_t resyncs_requested = 0;
  std::uint64_t resync_acks_seen = 0;
  std::uint64_t dup_or_old_frames = 0;
  std::uint64_t replica_pruned = 0;
  std::uint64_t liveness_resets = 0;
  std::uint64_t resyncs_served = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t malformed_frames = 0;

  // Overload control (DESIGN.md §10): whole-run server counters plus the
  // client-side refusal count, read at finalize.
  std::uint64_t join_refusals = 0;        ///< summed over bots
  std::uint64_t joins_refused = 0;        ///< server-side refusals sent
  std::uint64_t egress_coalesced = 0;     ///< queued updates superseded in place
  std::uint64_t egress_shed = 0;          ///< moves evicted or dropped at the cap
  std::uint64_t chunks_deferred = 0;      ///< chunk sends pushed to later ticks
  std::uint64_t overload_disconnects = 0; ///< rung-4 worst-offender disconnects
  std::uint64_t ladder_transitions = 0;
  std::uint64_t peak_queue_bytes = 0;     ///< largest per-subscriber egress queue
  int final_rung = 0;                     ///< ladder rung when the run ended
  std::uint64_t frames_dropped = 0;  ///< on-wire frames never delivered
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;

  // Server-side transport send pressure (DESIGN.md §13): datagram-level
  // failures, in-call retries, and the decaying congested-byte estimate at
  // finalize. All zero unless the fault schedule draws `sendfail`; these
  // are the counters the overload ladder listens to.
  std::uint64_t send_failures = 0;
  std::uint64_t send_retries = 0;
  std::uint64_t send_drops = 0;        ///< datagrams given up on after retries
  std::uint64_t congested_bytes = 0;   ///< estimate still pending at finalize

  // Frame-buffer pool (net::BufferPool, DESIGN.md §11) over the measurement
  // window. Misses are exactly the frame-buffer heap allocations the egress
  // pipeline performed; in steady state they amortize to zero per tick.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::size_t pool_high_water = 0;  ///< whole-run freelist peak
  double pool_misses_per_tick = 0.0;

  /// Timeline series when record_timelines: "egress_kbps", "tick_ms",
  /// "director_scale", "players", "queued_updates", "pos_error_mean".
  metrics::MetricRegistry registry;

  /// Measured per-phase tick cost over the measurement window (see
  /// src/trace): where each tick's CPU went, phase by phase. Populated
  /// when SimulationConfig::profile_phases is set; print with
  /// trace::print_phase_table.
  trace::TickProfiler::Report phases;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig cfg);
  ~Simulation();

  /// Runs the configured duration and finalizes the result.
  SimulationResult run();

  /// Step API for tests, examples, and scripted scenarios.
  void step_tick();
  void finalize();  // computes result aggregates; run() calls it
  SimulationResult& result() { return result_; }

  SimClock& clock() { return clock_; }
  server::GameServer& server() { return *server_; }
  /// The link model, for link-level reads (bytes, wire hash, inboxes).
  net::SimNetwork& network() { return net_; }
  /// The fault layer the server and bots talk through: the run's fault
  /// plan, its ledger, and imperative heals/events for scripted scenarios.
  net::FaultInjectingTransport& faults() { return faults_; }
  world::World& world() { return *world_; }
  std::vector<std::unique_ptr<BotClient>>& bots() { return bots_; }
  const SimulationConfig& config() const { return cfg_; }

  /// Called after every tick with the current sim time; lets scenarios
  /// script mid-run events (the E7 convergence spike).
  using TickHook = std::function<void(Simulation&, SimTime)>;
  void set_tick_hook(TickHook hook) { hook_ = std::move(hook); }

 private:
  void maybe_join_next();
  void maybe_churn();
  void install_fault_plan();
  void apply_bot_faults();
  void install_overload_schedule();
  void apply_overload_schedule();
  void on_second();
  void begin_measurement();

  SimulationConfig cfg_;
  SimClock clock_;
  std::unique_ptr<world::World> world_;
  net::SimNetwork net_;
  net::FaultInjectingTransport faults_{net_, clock_};
  std::unique_ptr<server::GameServer> server_;
  std::vector<std::unique_ptr<BotClient>> bots_;
  std::size_t next_join_ = 0;
  TickHook hook_;
  Rng churn_rng_{0};
  std::vector<std::pair<std::size_t, SimTime>> rejoin_queue_;  // bot index, when

  /// Client-side half of scheduled crashes: at `at`, either kill the bot's
  /// session state (restart=false) or bring it back and rejoin (true). The
  /// network-side half (refused and dropped traffic) lives in the FaultPlan.
  struct BotFaultEvent {
    SimTime at;
    std::size_t bot = 0;
    bool restart = false;
  };
  std::vector<BotFaultEvent> bot_fault_queue_;  // sorted by `at`
  std::size_t next_bot_fault_ = 0;

  /// Scheduled overload steps (stall on/off, spam on/off, flash-cohort
  /// joins), expanded from cfg_.overload_schedule at construction.
  struct OverloadStep {
    SimTime at;
    ScheduledOverload::Kind kind = ScheduledOverload::Kind::Stall;
    bool begin = false;               // stall/spam: window start vs end
    std::size_t bot = 0;              // stall
    double factor = 1.0;              // spam
    std::vector<std::size_t> cohort;  // flash: bot indices joining at `at`
  };
  std::vector<OverloadStep> overload_queue_;  // sorted by `at`
  std::size_t next_overload_ = 0;
  /// Flash-cohort members: excluded from the normal join ramp.
  std::unordered_set<std::size_t> held_back_;

  SimulationResult result_;
  bool measuring_ = false;
  // Baselines captured at warmup end.
  std::uint64_t base_bytes_ = 0;
  std::uint64_t base_frames_ = 0;
  std::map<protocol::MessageType, std::uint64_t> base_by_type_;
  dyconit::Stats base_stats_;
  net::BufferPool::Stats base_pool_;
  std::size_t tick_sample_index_ = 0;
  SimTime measure_start_;
  SimTime next_second_;
  metrics::RateSampler egress_rate_;
};

}  // namespace dyconits::bots
