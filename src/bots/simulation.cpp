#include "bots/simulation.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "dyconit/policies/director.h"
#include "dyconit/policies/factory.h"
#include "trace/trace.h"
#include "util/log.h"
#include "world/terrain.h"

namespace dyconits::bots {

using server::GameServer;
using server::ServerConfig;

Simulation::Simulation(SimulationConfig cfg)
    : cfg_(cfg),
      world_(std::make_unique<world::World>(
          std::make_unique<world::TerrainGenerator>(cfg.terrain_seed))),
      net_(clock_, cfg.seed ^ 0x5E7ull) {
  const bool vanilla = cfg_.policy == "vanilla";
  std::unique_ptr<dyconit::Policy> policy;
  if (!vanilla) {
    policy = dyconit::make_policy(cfg_.policy);
    if (policy == nullptr) {
      Log::error("unknown policy spec '%s', falling back to zero", cfg_.policy.c_str());
      policy = dyconit::make_policy("zero");
    }
  }

  // Bots spawn at their workload-assigned home.
  const auto plans = plan_bots(cfg_.workload, cfg_.players, cfg_.seed);
  auto homes = std::make_shared<std::unordered_map<std::string, world::Vec3>>();
  for (const auto& p : plans) (*homes)[p.name] = p.home;

  ServerConfig scfg;
  scfg.view_distance = cfg_.view_distance;
  scfg.use_dyconits = !vanilla;
  scfg.bandwidth_budget_bps = cfg_.bandwidth_budget_bps;
  scfg.mob_count = cfg_.mobs;
  scfg.env_ticks_per_tick = cfg_.env_ticks;
  scfg.survival_mode = cfg_.survival;
  scfg.mob_seed = cfg_.seed ^ 0x30B5ull;
  scfg.profile_ticks = cfg_.profile_phases;
  scfg.deterministic_load = cfg_.deterministic_load;
  scfg.overload = cfg_.overload;
  scfg.mob_spawn_radius =
      std::max(cfg_.workload.spread_radius, cfg_.workload.village_radius * 3.0);
  scfg.spawn_provider = [homes, world = world_.get()](const std::string& name) {
    const auto it = homes->find(name);
    const world::Vec3 home = it != homes->end() ? it->second : world::Vec3{};
    return world->spawn_position(static_cast<std::int32_t>(home.x),
                                 static_cast<std::int32_t>(home.z));
  };

  if (cfg_.tweak_server) cfg_.tweak_server(scfg);
  server_ = std::make_unique<GameServer>(clock_, faults_, *world_, std::move(policy), scfg);
  server_->dyconits().set_record_staleness(cfg_.record_staleness);

  Rng bot_seeds(cfg_.seed ^ 0xB075EEDull);
  bots_.reserve(plans.size());
  for (const auto& p : plans) {
    BotConfig bc = p.config;
    bc.keep_chunk_replica = cfg_.keep_chunk_replica;
    bc.survival = cfg_.survival;
    if (cfg_.tweak_bot) cfg_.tweak_bot(bc);
    auto bot = std::make_unique<BotClient>(clock_, faults_, *world_, server_->endpoint(),
                                           p.name, bot_seeds.next_u64(), bc);
    net_.connect(bot->endpoint(), server_->endpoint(),
                 {cfg_.link_latency, cfg_.link_jitter, cfg_.fifo_links});
    bots_.push_back(std::move(bot));
  }

  result_.policy = cfg_.policy;
  result_.players = cfg_.players;
  churn_rng_ = Rng(cfg_.seed ^ 0xC1124Eull);
  next_second_ = clock_.now() + SimDuration::seconds(1);

  install_fault_plan();
  if (cfg_.overload_schedule.any()) install_overload_schedule();

  // Stamp trace records with this run's simulated time.
  trace::Tracer::instance().set_sim_clock(&clock_);
}

Simulation::~Simulation() {
  // Don't leave the tracer pointing at a destroyed clock (bench binaries
  // run several simulations back to back).
  if (trace::Tracer::instance().sim_clock() == &clock_) {
    trace::Tracer::instance().set_sim_clock(nullptr);
  }
}

void Simulation::install_fault_plan() {
  net::FaultPlan plan;
  plan.seed = cfg_.fault_seed != 0 ? cfg_.fault_seed : (cfg_.seed ^ 0xFA17ull);
  plan.all_links = cfg_.faults.link;

  const auto at_secs = [](double s) {
    return SimTime::zero() + SimDuration::micros(static_cast<std::int64_t>(s * 1e6));
  };
  const net::EndpointId srv = server_->endpoint();
  for (const auto& ev : cfg_.faults.events) {
    const SimTime t0 = at_secs(ev.start_s);
    const SimTime t1 = at_secs(ev.end_s);
    switch (ev.kind) {
      case ScheduledFault::Kind::Flap: {
        if (ev.bot >= bots_.size()) continue;
        const net::EndpointId ep = bots_[ev.bot]->endpoint();
        plan.events.push_back({t0, net::FaultEvent::Kind::LinkDown, ep, srv});
        plan.events.push_back({t1, net::FaultEvent::Kind::LinkUp, ep, srv});
        break;
      }
      case ScheduledFault::Kind::Partition: {
        // The leading fraction of the fleet loses the server, then heals.
        const auto cut = std::max<std::size_t>(
            1, static_cast<std::size_t>(ev.fraction * static_cast<double>(bots_.size())));
        for (std::size_t i = 0; i < cut && i < bots_.size(); ++i) {
          const net::EndpointId ep = bots_[i]->endpoint();
          plan.events.push_back({t0, net::FaultEvent::Kind::LinkDown, ep, srv});
          plan.events.push_back({t1, net::FaultEvent::Kind::LinkUp, ep, srv});
        }
        break;
      }
      case ScheduledFault::Kind::Crash: {
        if (ev.bot >= bots_.size()) continue;
        const net::EndpointId ep = bots_[ev.bot]->endpoint();
        plan.events.push_back({t0, net::FaultEvent::Kind::Crash, ep, net::kInvalidEndpoint});
        plan.events.push_back({t1, net::FaultEvent::Kind::Restart, ep, net::kInvalidEndpoint});
        // Client half: the process forgets its session, then rejoins.
        bot_fault_queue_.push_back({t0, ev.bot, false});
        bot_fault_queue_.push_back({t1, ev.bot, true});
        break;
      }
    }
  }
  std::stable_sort(bot_fault_queue_.begin(), bot_fault_queue_.end(),
                   [](const BotFaultEvent& a, const BotFaultEvent& b) { return a.at < b.at; });
  faults_.set_fault_plan(std::move(plan));
}

void Simulation::apply_bot_faults() {
  const SimTime now = clock_.now();
  while (next_bot_fault_ < bot_fault_queue_.size() &&
         bot_fault_queue_[next_bot_fault_].at <= now) {
    const BotFaultEvent& ev = bot_fault_queue_[next_bot_fault_++];
    if (ev.bot >= bots_.size()) continue;
    if (ev.restart) {
      bots_[ev.bot]->connect();
    } else {
      bots_[ev.bot]->reset_session();
    }
  }
}

void Simulation::maybe_churn() {
  if (cfg_.churn_per_second <= 0.0 || !measuring_ || bots_.empty()) return;
  const SimTime now = clock_.now();
  for (auto it = rejoin_queue_.begin(); it != rejoin_queue_.end();) {
    if (now >= it->second) {
      bots_[it->first]->connect();
      ++result_.churn_rejoins;
      it = rejoin_queue_.erase(it);
    } else {
      ++it;
    }
  }
  // Bernoulli per tick: expected churn_per_second leaves per second.
  if (churn_rng_.chance(cfg_.churn_per_second *
                        server_->config().tick_interval.as_seconds())) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      const std::size_t i =
          static_cast<std::size_t>(churn_rng_.next_below(bots_.size()));
      if (!bots_[i]->joined()) continue;
      server_->disconnect(bots_[i]->endpoint());
      bots_[i]->reset_session();
      rejoin_queue_.emplace_back(i, now + cfg_.churn_rejoin_delay);
      ++result_.churn_leaves;
      break;
    }
  }
}

void Simulation::install_overload_schedule() {
  const auto at_secs = [](double s) {
    return SimTime::zero() + SimDuration::micros(static_cast<std::int64_t>(s * 1e6));
  };
  // Flash cohorts are carved off the tail of the fleet, latest event
  // first-come: they skip the normal join ramp and arrive together.
  std::size_t hold_cursor = bots_.size();
  for (const auto& ev : cfg_.overload_schedule.events) {
    switch (ev.kind) {
      case ScheduledOverload::Kind::Stall: {
        if (ev.bot >= bots_.size()) continue;
        OverloadStep on{at_secs(ev.start_s), ev.kind, true, ev.bot, 1.0, {}};
        OverloadStep off{at_secs(ev.end_s), ev.kind, false, ev.bot, 1.0, {}};
        overload_queue_.push_back(std::move(on));
        overload_queue_.push_back(std::move(off));
        break;
      }
      case ScheduledOverload::Kind::Flash: {
        OverloadStep step{at_secs(ev.start_s), ev.kind, true, 0, 1.0, {}};
        for (std::size_t i = 0; i < ev.count && hold_cursor > 0; ++i) {
          --hold_cursor;
          if (held_back_.insert(hold_cursor).second) step.cohort.push_back(hold_cursor);
        }
        if (!step.cohort.empty()) overload_queue_.push_back(std::move(step));
        break;
      }
      case ScheduledOverload::Kind::Spam: {
        OverloadStep on{at_secs(ev.start_s), ev.kind, true, 0, ev.factor, {}};
        OverloadStep off{at_secs(ev.end_s), ev.kind, false, 0, 1.0, {}};
        overload_queue_.push_back(std::move(on));
        overload_queue_.push_back(std::move(off));
        break;
      }
    }
  }
  std::stable_sort(overload_queue_.begin(), overload_queue_.end(),
                   [](const OverloadStep& a, const OverloadStep& b) { return a.at < b.at; });
}

void Simulation::apply_overload_schedule() {
  const SimTime now = clock_.now();
  while (next_overload_ < overload_queue_.size() &&
         overload_queue_[next_overload_].at <= now) {
    const OverloadStep& ev = overload_queue_[next_overload_++];
    switch (ev.kind) {
      case ScheduledOverload::Kind::Stall:
        if (ev.bot < bots_.size()) bots_[ev.bot]->set_stalled(ev.begin);
        break;
      case ScheduledOverload::Kind::Flash:
        for (const std::size_t i : ev.cohort) {
          if (i < bots_.size()) bots_[i]->connect();
        }
        break;
      case ScheduledOverload::Kind::Spam:
        for (auto& bot : bots_) bot->set_action_scale(ev.begin ? ev.factor : 1.0);
        break;
    }
  }
}

void Simulation::maybe_join_next() {
  std::size_t started = 0;
  while (started < cfg_.joins_per_tick && next_join_ < bots_.size()) {
    if (held_back_.count(next_join_) > 0) {
      ++next_join_;  // flash-cohort member: joins at its scheduled time
      continue;
    }
    bots_[next_join_++]->connect();
    ++started;
  }
}

void Simulation::step_tick() {
  TRACE_SCOPE("sim.tick");
  clock_.advance(server_->config().tick_interval);
  // Fire scheduled flaps/partitions/crashes on time, release due reordered
  // frames and decay the injected-congestion estimate.
  faults_.flush_egress();
  apply_bot_faults();
  apply_overload_schedule();
  maybe_join_next();
  maybe_churn();
  {
    TRACE_SCOPE("sim.bots");
    for (auto& bot : bots_) bot->tick();
  }
  server_->tick();

  if (!measuring_ && clock_.now() >= SimTime::zero() + cfg_.warmup) begin_measurement();
  if (clock_.now() >= next_second_) {
    on_second();
    next_second_ += SimDuration::seconds(1);
  }
  if (hook_) hook_(*this, clock_.now());
}

void Simulation::begin_measurement() {
  measuring_ = true;
  measure_start_ = clock_.now();
  // A constrained uplink models steady-state capacity; applying it from
  // warmup keeps the one-off join burst (chunk streaming) from poisoning
  // the steady-state queueing measurement.
  if (cfg_.server_egress_rate > 0) {
    net_.set_egress_rate(server_->endpoint(), cfg_.server_egress_rate);
  }
  base_bytes_ = net_.egress_bytes(server_->endpoint());
  base_frames_ = net_.egress_frames(server_->endpoint());
  for (int t = 1; t < static_cast<int>(net::kMaxTags); ++t) {
    base_by_type_[static_cast<protocol::MessageType>(t)] =
        net_.egress_bytes_by_tag(server_->endpoint(), static_cast<std::uint8_t>(t));
  }
  base_stats_ = server_->dyconit_stats();
  server_->dyconits().stats().staleness_ms.clear();
  for (auto& bot : bots_) {
    bot->update_latency_ms().clear();
    bot->near_update_latency_ms().clear();
  }
  tick_sample_index_ = server_->tick_cpu_ms().count();
  base_pool_ = net::BufferPool::instance().stats();
  // Scope the per-phase breakdown to the measurement window.
  server_->profiler().reset();
}

void Simulation::on_second() {
  // Client-observed positional inconsistency: replica vs ground truth.
  if (measuring_) {
    double sum = 0.0, mx = 0.0;
    std::size_t n = 0;
    for (const auto& bot : bots_) {
      if (!bot->joined()) continue;
      for (const auto& [id, rep] : bot->replica_entities()) {
        const entity::Entity* truth = server_->entities().find(id);
        if (truth == nullptr) continue;
        const double err = world::distance(rep.pos, truth->pos);
        sum += err;
        if (err > mx) mx = err;
        ++n;
      }
    }
    if (n > 0) {
      result_.pos_error_mean.add(sum / static_cast<double>(n));
      result_.pos_error_max.add(mx);
    }
  }

  if (cfg_.record_timelines) {
    const SimTime now = clock_.now();
    auto& reg = result_.registry;
    const double kbps =
        egress_rate_.sample(net_.egress_bytes(server_->endpoint()), 1.0) / 1000.0;
    reg.series("egress_kbps").add(now, kbps);
    reg.series("players").add(now, static_cast<double>(server_->player_count()));
    reg.series("queued_updates").add(now,
                                     static_cast<double>(server_->dyconits().total_queued()));
    // Mean tick CPU over the last second.
    const auto& ticks = server_->tick_cpu_ms().values();
    static_cast<void>(ticks);
    double tick_sum = 0.0;
    std::size_t tick_n = 0;
    for (std::size_t i = server_->tick_cpu_ms().count() >= 20
                             ? server_->tick_cpu_ms().count() - 20
                             : 0;
         i < server_->tick_cpu_ms().count(); ++i) {
      tick_sum += server_->tick_cpu_ms().values()[i];
      ++tick_n;
    }
    if (tick_n > 0) reg.series("tick_ms").add(now, tick_sum / static_cast<double>(tick_n));
    if (const auto* director =
            dynamic_cast<const dyconit::DirectorPolicy*>(server_->policy())) {
      reg.series("director_scale").add(now, director->scale());
    }
    if (!result_.pos_error_mean.values().empty()) {
      reg.series("pos_error_mean").add(now, result_.pos_error_mean.values().back());
    }
    if (server_->config().overload.enabled) {
      reg.series("overload_rung").add(now, static_cast<double>(server_->overload_rung()));
    }
  }
}

SimulationResult Simulation::run() {
  const auto ticks = static_cast<std::uint64_t>(cfg_.duration.count_micros() /
                                                server_->config().tick_interval.count_micros());
  for (std::uint64_t i = 0; i < ticks; ++i) step_tick();
  finalize();
  return std::move(result_);
}

void Simulation::finalize() {
  if (!measuring_) begin_measurement();
  const double secs = (clock_.now() - measure_start_).as_seconds();
  result_.measured_seconds = secs;
  if (secs > 0) {
    result_.egress_bytes_per_sec =
        static_cast<double>(net_.egress_bytes(server_->endpoint()) - base_bytes_) / secs;
    result_.egress_frames_per_sec =
        static_cast<double>(net_.egress_frames(server_->endpoint()) - base_frames_) / secs;
  }
  for (int t = 1; t < static_cast<int>(net::kMaxTags); ++t) {
    const auto type = static_cast<protocol::MessageType>(t);
    const std::uint64_t now =
        net_.egress_bytes_by_tag(server_->endpoint(), static_cast<std::uint8_t>(t));
    const std::uint64_t delta = now - base_by_type_[type];
    if (delta > 0) result_.egress_bytes_by_type[type] = delta;
  }

  // Tick CPU after warmup.
  const auto& tick_values = server_->tick_cpu_ms().values();
  for (std::size_t i = tick_sample_index_; i < tick_values.size(); ++i) {
    result_.tick_ms.add(tick_values[i]);
  }

  // Middleware stats over the window.
  const dyconit::Stats& s = server_->dyconit_stats();
  dyconit::Stats d;
  d.enqueued = s.enqueued - base_stats_.enqueued;
  d.coalesced = s.coalesced - base_stats_.coalesced;
  d.delivered = s.delivered - base_stats_.delivered;
  d.dropped_no_subscriber = s.dropped_no_subscriber - base_stats_.dropped_no_subscriber;
  d.dropped_unsubscribe = s.dropped_unsubscribe - base_stats_.dropped_unsubscribe;
  d.flushes_staleness = s.flushes_staleness - base_stats_.flushes_staleness;
  d.flushes_numerical = s.flushes_numerical - base_stats_.flushes_numerical;
  d.flushes_forced = s.flushes_forced - base_stats_.flushes_forced;
  d.weight_delivered = s.weight_delivered - base_stats_.weight_delivered;
  result_.dyconit_stats = d;
  for (const double v : s.staleness_ms) result_.staleness_ms.add(v);

  for (const auto& bot : bots_) {
    for (const double v : bot->update_latency_ms().values()) {
      result_.update_latency_ms.add(v);
    }
    for (const double v : bot->near_update_latency_ms().values()) {
      result_.near_update_latency_ms.add(v);
    }
    result_.updates_applied += bot->updates_applied();
    result_.unknown_entity_updates += bot->unknown_entity_updates();
    result_.decode_failures += bot->decode_failures();
    result_.out_of_order_frames += bot->out_of_order_frames();
    result_.stale_moves_rejected += bot->stale_moves_rejected();
    result_.gaps_detected += bot->gaps_detected();
    result_.resyncs_requested += bot->resyncs_requested();
    result_.resync_acks_seen += bot->resync_acks_seen();
    result_.dup_or_old_frames += bot->dup_or_old_frames();
    result_.replica_pruned += bot->replica_pruned();
    result_.liveness_resets += bot->liveness_resets();
    result_.join_refusals += bot->join_refusals();
  }
  result_.resyncs_served = server_->resyncs_served();
  result_.reconnects = server_->reconnects();
  result_.malformed_frames = server_->malformed_frames();
  {
    const server::OverloadStats& os = server_->overload_stats();
    result_.joins_refused = os.joins_refused;
    result_.egress_coalesced = os.egress_coalesced;
    result_.egress_shed =
        os.egress_evicted_moves + os.egress_dropped_moves + os.egress_dropped_ordered;
    result_.chunks_deferred = os.chunks_deferred;
    result_.overload_disconnects = os.overload_disconnects;
    result_.ladder_transitions = os.ladder_transitions;
    result_.peak_queue_bytes = os.peak_queue_bytes;
    result_.final_rung = server_->overload_rung();
  }
  {
    const net::FaultStats fs = faults_.injected_totals();
    result_.frames_dropped = fs.dropped.frames;
    result_.frames_corrupted = fs.corrupted;
    result_.frames_duplicated = fs.duplicated;
  }
  {
    // Send-pressure ledger as the server's transport saw it (all-zero
    // unless the fault plan draws send failures).
    const net::SendPressure sp = server_->transport_pressure();
    result_.send_failures = sp.send_failures;
    result_.send_retries = sp.send_retries;
    result_.send_drops = sp.dropped_datagrams;
    result_.congested_bytes = sp.congested_bytes;
  }

  {
    // Frame-buffer pool deltas over the window (process-wide pool: covers
    // encode, staging, SimNetwork drops, and bot decode alike).
    const net::BufferPool::Stats ps = net::BufferPool::instance().stats();
    result_.pool_hits = ps.hits - base_pool_.hits;
    result_.pool_misses = ps.misses - base_pool_.misses;
    result_.pool_high_water = ps.high_water;
    const std::size_t measured_ticks = tick_values.size() - tick_sample_index_;
    if (measured_ticks > 0) {
      result_.pool_misses_per_tick = static_cast<double>(result_.pool_misses) /
                                     static_cast<double>(measured_ticks);
    }
    auto& reg = result_.registry;
    reg.counter("pool_hits") = result_.pool_hits;
    reg.counter("pool_misses") = result_.pool_misses;
    reg.counter("pool_high_water") = result_.pool_high_water;
  }

  result_.phases = server_->profiler().report();
}

}  // namespace dyconits::bots
