#include "server/game_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "entity/movement.h"
#include "net/buffer_pool.h"
#include "trace/trace.h"
#include "util/log.h"

namespace dyconits::server {

using dyconit::Bounds;
using dyconit::DyconitId;
using dyconit::Update;
using entity::Entity;
using entity::EntityId;
using world::ChunkPos;

namespace {

world::Vec3 default_spawn(const std::string&) { return {8.5, 40.0, 8.5}; }

// Packs one flushed batch into protocol messages: entity moves into one
// EntityMoveBatch (a single move stays EntityMove), block changes into
// per-chunk MultiBlockChange (a single change stays BlockChange), anything
// else passed through in order. Each frame's origin is the oldest
// constituent update, so measured latency is the worst case in the batch.
template <typename Emit>
void pack_update_batch(const std::vector<dyconit::FlushSink::FlushedUpdate>& updates,
                       Emit&& emit) {
  std::vector<protocol::EntityMove> moves;
  SimTime moves_origin = SimTime::zero();
  std::unordered_map<ChunkPos, protocol::MultiBlockChange> blocks;
  std::unordered_map<ChunkPos, SimTime> blocks_origin;

  for (const dyconit::FlushSink::FlushedUpdate& u : updates) {
    if (const auto* mv = std::get_if<protocol::EntityMove>(u.msg)) {
      if (moves.empty() || u.created < moves_origin) moves_origin = u.created;
      moves.push_back(*mv);
    } else if (const auto* bc = std::get_if<protocol::BlockChange>(u.msg)) {
      const ChunkPos c = ChunkPos::of_block(bc->pos);
      auto& mbc = blocks[c];
      mbc.chunk = c;
      mbc.entries.push_back({static_cast<std::uint8_t>(world::floor_mod(bc->pos.x, 16)),
                             static_cast<std::uint8_t>(bc->pos.y),
                             static_cast<std::uint8_t>(world::floor_mod(bc->pos.z, 16)),
                             bc->block});
      auto [oit, inserted] = blocks_origin.emplace(c, u.created);
      if (!inserted && u.created < oit->second) oit->second = u.created;
    } else {
      emit(*u.msg, u.created);
    }
  }

  if (moves.size() == 1) {
    emit(protocol::AnyMessage(moves.front()), moves_origin);
  } else if (!moves.empty()) {
    emit(protocol::AnyMessage(protocol::EntityMoveBatch{std::move(moves)}), moves_origin);
  }
  for (auto& [c, mbc] : blocks) {
    if (mbc.entries.size() == 1) {
      const auto& e = mbc.entries.front();
      const world::BlockPos pos{c.x * 16 + e.x, e.y, c.z * 16 + e.z};
      emit(protocol::AnyMessage(protocol::BlockChange{pos, e.block}), blocks_origin[c]);
    } else {
      emit(protocol::AnyMessage(std::move(mbc)), blocks_origin[c]);
    }
  }
}

}  // namespace

GameServer::GameServer(SimClock& clock, net::Transport& net, world::World& world,
                       std::unique_ptr<dyconit::Policy> policy, ServerConfig cfg)
    : clock_(clock),
      net_(net),
      world_(world),
      policy_(std::move(policy)),
      cfg_(std::move(cfg)),
      endpoint_(net.create_endpoint("server")),
      dyconits_(clock) {
  assert(!cfg_.use_dyconits || policy_ != nullptr);
  if (!cfg_.spawn_provider) cfg_.spawn_provider = default_spawn;
  observer_token_ =
      world_.add_block_observer([this](const world::BlockChange& c) { on_block_change(c); });

  dyconits_.set_snapshot_threshold(cfg_.snapshot_queue_threshold);

  // Tick phases, in tick() order. Top-level phases tile the tick;
  // net.modeled carries the modeled network-stack CPU so the breakdown sums
  // to the same total tick_cpu_ms() reports. Nested spans run inside a
  // top-level phase and are reported separately (no double counting).
  for (const char* phase :
       {"server.inbound", "server.mobs", "server.environment", "server.items",
        "server.dispatch", "server.chunks", "server.keepalive", "server.overload",
        "server.dyconit_flush", "server.policy", "net.modeled"}) {
    profiler_.add_phase(phase);
  }
  for (const char* nested :
       {"server.serialize_send", "dyconit.enqueue", "dyconit.flush_due", "dyconit.gc",
        "net.send", "net.poll"}) {
    profiler_.add_phase(nested, trace::TickProfiler::PhaseKind::Nested);
  }

  // Overload self-calibration: with uplink_bytes_per_second configured, the
  // ladder thresholds come from the modeled cost of saturating that uplink
  // instead of per-experiment hand tuning.
  derive_budget_from_uplink(cfg_.overload, cfg_.tick_interval,
                            cfg_.net_cost_per_byte_ns);

  mob_rng_ = Rng(cfg_.mob_seed);
  mobs_.reserve(cfg_.mob_count);
  for (std::size_t i = 0; i < cfg_.mob_count; ++i) {
    const double r = cfg_.mob_spawn_radius * std::sqrt(mob_rng_.next_double());
    const double a = mob_rng_.next_double() * 2.0 * 3.14159265358979323846;
    const auto x = static_cast<std::int32_t>(r * std::cos(a));
    const auto z = static_cast<std::int32_t>(r * std::sin(a));
    Entity& e = registry_.create(entity::EntityKind::Mob, world_.spawn_position(x, z));
    mobs_.push_back(Mob{e.id, e.pos, SimTime::zero()});
  }
}

GameServer::~GameServer() { world_.remove_block_observer(observer_token_); }

void GameServer::tick() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t frames0 = net_.egress_frames(endpoint_);
  const std::uint64_t bytes0 = net_.egress_bytes(endpoint_);
  ++tick_number_;
  trace::Tracer::instance().set_tick(tick_number_);
  if (cfg_.profile_ticks) profiler_.begin_tick(tick_number_);
  {
    // Install the profiler only when asked: with it installed every span
    // on the send path takes timestamps, which is measurable at scale.
    trace::ProfilerScope profile(cfg_.profile_ticks ? &profiler_ : nullptr);
    TRACE_SCOPE("server.tick");
    { TRACE_SCOPE("server.inbound"); process_inbound(); }
    { TRACE_SCOPE("server.mobs"); tick_mobs(); }
    { TRACE_SCOPE("server.environment"); tick_environment(); }
    { TRACE_SCOPE("server.items"); tick_items(); }
    { TRACE_SCOPE("server.dispatch"); dispatch_moved_entities(); }
    { TRACE_SCOPE("server.chunks"); stream_chunks(); }
    { TRACE_SCOPE("server.keepalive"); send_keepalives(); }
    { TRACE_SCOPE("server.overload"); tick_overload(); }
    if (cfg_.use_dyconits) flush_dyconits();
    { TRACE_SCOPE("server.policy"); run_policy(); }
    if (cfg_.use_dyconits) {
      // Overload widening first, then the resync re-pin: a subscriber that
      // is both backlogged and resyncing stays pinned at zero.
      apply_overload_bounds();
      // A policy retune must not widen bounds for a subscriber that is
      // still resyncing: re-pin them at zero until its snapshot drains.
      for (auto& [id, s] : sessions_) {
        if (!s.resync_tighten) continue;
        for (const auto& [unit, ref] : s.unit_refs) {
          dyconits_.set_bounds(ref.sub, dyconit::Bounds::zero());
        }
      }
      // A retune that tightened bounds (including the re-pin above) takes
      // effect this tick, not next: flush whatever the new bounds make
      // overdue. A no-op when the policy widened or left bounds alone.
      flush_dyconits();
    }
    send_barrier_acks();

    const auto elapsed = std::chrono::steady_clock::now() - t0;
    auto micros = std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
    // Add the modeled network-stack CPU the in-process send skipped.
    const std::uint64_t frames = net_.egress_frames(endpoint_) - frames0;
    const std::uint64_t bytes = net_.egress_bytes(endpoint_) - bytes0;
    std::int64_t modeled =
        static_cast<std::int64_t>(frames) * cfg_.net_cost_per_frame.count_micros();
    modeled += static_cast<std::int64_t>(static_cast<double>(bytes) *
                                         cfg_.net_cost_per_byte_ns / 1000.0);
    micros += modeled;
    // The policy's load signal: host wall clock is nondeterministic, so
    // deterministic_load confines it to the modeled share (see config.h).
    last_tick_cpu_ = SimDuration::micros(cfg_.deterministic_load ? modeled : micros);
    // The watchdog consumes the cost sample now that it is known; its
    // decisions (rung moves, shed directives, the next disconnect) apply
    // from the next tick, and it sends nothing itself.
    overload_watchdog();
    tick_cpu_ms_.add(static_cast<double>(micros) / 1000.0);
    if (cfg_.profile_ticks) {
      profiler_.add_modeled_ms("net.modeled", static_cast<double>(modeled) / 1000.0);
      profiler_.end_tick(static_cast<double>(micros) / 1000.0);
    }
  }
}

// ---------------------------------------------------------------- inbound

void GameServer::process_inbound() {
  for (net::Delivery& d : net_.poll(endpoint_)) {
    if (cfg_.hash_streams) ingress_hash_by_endpoint_[d.from].mix(d.frame);
    const auto msg = protocol::decode(d.frame);
    // The payload is fully consumed by decode; recycle it before dispatch
    // so the buffer is available to this tick's own sends.
    net::BufferPool::instance().release(std::move(d.frame.payload));
    if (!msg.has_value()) {
      ++malformed_frames_;
      Log::warn("server: dropping malformed frame from %u", d.from);
      continue;
    }
    Session* s = session_of(d.from);
    if (s != nullptr && std::get_if<protocol::JoinRequest>(&*msg) != nullptr) {
      // The client restarted (crash or liveness reset): tear the stale
      // session down and let the join below build a fresh one. The new
      // session restarts the transport sequence; JoinAck rebases the
      // client's gap detector.
      ++reconnects_;
      Log::info("server: %s reconnecting", s->name.c_str());
      disconnect(s->id);
      s = nullptr;
    }
    if (s == nullptr) {
      if (const auto* join = std::get_if<protocol::JoinRequest>(&*msg)) {
        handle_join(d.from, *join);
        if (Session* fresh = session_of(d.from)) fresh->in_seq = d.frame.seq;
      }
      continue;  // any other message from a stranger is ignored
    }
    // Client->server gaps are counted but need no replay: player inputs
    // are absolute and the next one supersedes whatever was lost.
    if (d.frame.seq != 0) {
      if (s->in_seq != 0 && d.frame.seq > s->in_seq + 1) {
        client_gap_frames_ += d.frame.seq - s->in_seq - 1;
      }
      if (d.frame.seq > s->in_seq) s->in_seq = d.frame.seq;
    }
    current_actor_ = s->id;
    handle_message(*s, *msg);
    current_actor_ = dyconit::kNoSubscriber;
  }
}

void GameServer::handle_join(net::EndpointId from, const protocol::JoinRequest& m) {
  // Admission control (DESIGN.md §10): at or above the refusal rung the
  // server will not take on a new replica to keep consistent. No session
  // exists, so the refusal goes out unsequenced (seq 0); clients back off
  // for the suggested interval and retry.
  if (cfg_.overload.enabled && cfg_.overload.admission_refuse_rung > 0 &&
      ladder_.rung() >= cfg_.overload.admission_refuse_rung) {
    ++overload_stats_.joins_refused;
    TRACE_INSTANT("server.overload.join_refused");
    net_.send(endpoint_, from,
              protocol::encode(protocol::JoinRefused{
                  static_cast<std::uint8_t>(ladder_.rung()),
                  cfg_.overload.admission_retry_ms}));
    return;
  }

  Session s;
  s.id = from;  // subscriber id == client endpoint id (both unique, nonzero)
  s.endpoint = from;
  s.name = m.name;

  const world::Vec3 spawn = cfg_.spawn_provider(m.name);
  Entity& e = registry_.create(entity::EntityKind::Player, spawn);
  s.entity = e.id;
  entity_to_session_.emplace(e.id, s.id);

  auto [it, inserted] = sessions_.emplace(s.id, std::move(s));
  assert(inserted);
  Session& session = it->second;

  send_to(session, protocol::JoinAck{e.id, spawn,
                                     static_cast<std::uint8_t>(cfg_.view_distance)});
  update_interest(session, /*initial=*/true);

  // Announce the new player to everyone already watching the spawn chunk.
  announce_spawn(e);
  Log::info("server: %s joined as entity %u", session.name.c_str(), e.id);
}

void GameServer::handle_message(Session& s, const protocol::AnyMessage& m) {
  if (const auto* move = std::get_if<protocol::PlayerMove>(&m)) {
    apply_player_move(s, *move);
  } else if (const auto* dig = std::get_if<protocol::PlayerDig>(&m)) {
    const world::Block b = world_.block_at(dig->pos);
    if (world::is_breakable(b)) {
      world_.set_block(dig->pos, world::Block::Air);
      if (cfg_.survival_mode) drop_item(dig->pos, b);
    }
  } else if (const auto* place = std::get_if<protocol::PlayerPlace>(&m)) {
    if (world::is_solid(place->block) &&
        world_.block_at(place->pos) == world::Block::Air) {
      if (cfg_.survival_mode) {
        const auto it = s.inventory.find(place->block);
        if (it == s.inventory.end() || it->second == 0) return;  // nothing to place
        --it->second;
        send_or_queue(s, protocol::InventoryUpdate{place->block, it->second});
      }
      world_.set_block(place->pos, place->block);
    }
  } else if (std::get_if<protocol::KeepAliveReply>(&m) != nullptr) {
    s.keepalive_pending = 0;
    if (s.keepalive_sent_at != SimTime()) {
      const SimDuration sample = clock_.now() - s.keepalive_sent_at;
      // EWMA, alpha 1/4 — same shape as TCP's SRTT.
      s.rtt = s.rtt.count_micros() == 0
                  ? sample
                  : SimDuration::micros((s.rtt.count_micros() * 3 +
                                         sample.count_micros()) /
                                        4);
    }
  } else if (const auto* chat = std::get_if<protocol::ChatSend>(&m)) {
    // Chat is low-rate and latency-critical: vanilla broadcast in both modes.
    const protocol::AnyMessage out{protocol::ChatBroadcast{s.entity, chat->text}};
    net::SharedFrame shared;
    const SimTime now = clock_.now();
    for (auto& [id, other] : sessions_) send_or_queue(other, out, now, &shared);
  } else if (std::get_if<protocol::ResyncRequest>(&m) != nullptr) {
    begin_resync(s);
  } else if (const auto* barrier = std::get_if<protocol::TickBarrier>(&m)) {
    // Acknowledged at the very end of this tick (send_barrier_acks), so the
    // ack is the last frame of the tick toward this session.
    s.barrier_armed = true;
    s.barrier_tick = barrier->tick;
  }
  // Server-bound-only types: ignore (JoinRequest reconnects are handled in
  // process_inbound before dispatch).
}

void GameServer::begin_resync(Session& s) {
  ++resyncs_served_;
  if (cfg_.use_dyconits) {
    // Flush what the middleware owes, then replay authoritative state for
    // every subscribed unit (request_snapshot queues chunk resends and
    // re-sends known entity positions).
    dyconits_.resync_subscriber(s.id, *this);
    // Treat the subscriber as maximally stale until re-synced: zero bounds
    // deliver every new update immediately while the snapshot drains;
    // stream_chunks hands control back to the policy once the queue empties.
    for (const auto& [unit, ref] : s.unit_refs) {
      dyconits_.set_bounds(ref.sub, dyconit::Bounds::zero());
    }
    s.resync_tighten = true;
  } else {
    // Vanilla: resend every interest chunk through the stream throttle.
    for (const ChunkPos c : s.interest) {
      if (s.chunk_queued.insert(c).second) s.chunk_queue.push_back(c);
    }
  }
  // Refresh every entity the client should know (spawn is an upsert on the
  // client); heals lost spawns and stale positions. The client prunes
  // replica entities this refresh does not confirm when the ack arrives.
  // Ascending id: the replay order is a function of the set, not its table.
  for (const EntityId id : s.known_entities.sorted()) {
    const Entity* e = registry_.find(id);
    if (e != nullptr) send_entity_spawn(s, *e);
  }
  send_or_queue(s, protocol::ResyncAck{++resync_epoch_}, clock_.now());
}

void GameServer::apply_player_move(Session& s, const protocol::PlayerMove& m) {
  Entity* e = registry_.find(s.entity);
  if (e == nullptr) return;

  world::Vec3 target = m.pos;
  const double dist = world::distance(e->pos, target);
  if (dist > cfg_.max_move_per_message) return;  // anti-teleport: reject
  if (dist < 1e-9 && e->yaw == m.yaw && e->pitch == m.pitch) return;

  const ChunkPos before = e->chunk();
  registry_.move(*e, target);
  e->yaw = m.yaw;
  e->pitch = m.pitch;
  moved_[e->id] += dist;
  const ChunkPos after = e->chunk();

  if (before != after) {
    entity_crossed_chunk(*e, before, after);
    update_interest(s, /*initial=*/false);
  }
}

void GameServer::tick_mobs() {
  const double dt = cfg_.tick_interval.as_seconds();
  for (Mob& mob : mobs_) {
    Entity* e = registry_.find(mob.id);
    if (e == nullptr) continue;
    if (clock_.now() >= mob.next_waypoint ||
        world::horizontal_distance(e->pos, mob.waypoint) < 1.0) {
      const double r = 24.0 * std::sqrt(mob_rng_.next_double());
      const double a = mob_rng_.next_double() * 2.0 * 3.14159265358979323846;
      mob.waypoint = {e->pos.x + r * std::cos(a), 0.0, e->pos.z + r * std::sin(a)};
      mob.next_waypoint = clock_.now() + SimDuration::seconds(8);
    }
    world::Vec3 next;
    const auto res = entity::step_toward(world_, e->pos, mob.waypoint, cfg_.mob_speed,
                                         dt, next);
    if (res.blocked) mob.next_waypoint = SimTime::zero();  // repick next tick
    if (!res.moved) continue;
    const world::ChunkPos before = e->chunk();
    const double dist = world::distance(e->pos, next);
    registry_.move(*e, next);
    moved_[e->id] += dist;
    const world::ChunkPos after = e->chunk();
    if (before != after) entity_crossed_chunk(*e, before, after);
  }
}

void GameServer::tick_environment() {
  if (cfg_.env_ticks_per_tick == 0) return;
  // Refresh the active-chunk list every ~2 s; exact freshness is not
  // needed, only that ticks land where players are watching.
  if (active_chunks_.empty() || tick_number_ - active_chunks_built_at_tick_ >= 40) {
    active_chunks_.clear();
    active_chunks_.reserve(viewers_.size());
    for (const auto& [c, subs] : viewers_) active_chunks_.push_back(c);
    active_chunks_built_at_tick_ = tick_number_;
  }
  if (active_chunks_.empty()) return;

  for (std::size_t i = 0; i < cfg_.env_ticks_per_tick; ++i) {
    const ChunkPos c = active_chunks_[mob_rng_.next_below(active_chunks_.size())];
    const auto lx = static_cast<int>(mob_rng_.next_below(world::kChunkSize));
    const auto lz = static_cast<int>(mob_rng_.next_below(world::kChunkSize));
    const std::int32_t wx = c.x * world::kChunkSize + lx;
    const std::int32_t wz = c.z * world::kChunkSize + lz;
    const int h = world_.surface_height(wx, wz);
    if (h < 1) continue;
    // Exposed dirt regrows into grass — the classic ambient world change.
    if (world_.block_at({wx, h, wz}) == world::Block::Dirt) {
      world_.set_block({wx, h, wz}, world::Block::Grass);
      ++env_changes_;
    }
  }
}

// ------------------------------------------------------------ dispatching

void GameServer::on_block_change(const world::BlockChange& change) {
  const ChunkPos chunk = ChunkPos::of_block(change.pos);
  const protocol::BlockChange msg{change.pos, change.new_block};

  if (cfg_.use_dyconits) {
    Update u;
    u.msg = msg;
    u.weight = 1.0;
    u.created = clock_.now();
    u.coalesce_key = dyconit::coalesce_key_block(change.pos);
    dyconits_.update(policy_->block_unit_for(chunk), std::move(u), current_actor_);
    return;
  }

  const auto it = viewers_.find(chunk);
  if (it == viewers_.end()) return;
  const protocol::AnyMessage out(msg);
  net::SharedFrame shared;
  const SimTime now = clock_.now();
  for (const SubscriberId sub : it->second) {
    if (sub == current_actor_) continue;
    if (Session* s = session_of(sub)) send_or_queue(*s, out, now, &shared);
  }
}

void GameServer::dispatch_moved_entities() {
  for (const auto& [id, weight] : moved_) {
    const Entity* e = registry_.find(id);
    if (e != nullptr) dispatch_entity_move(*e, weight);
  }
  moved_.clear();
}

void GameServer::dispatch_entity_move(const Entity& e, double weight) {
  const protocol::EntityMove msg{e.id, e.pos, e.yaw, e.pitch};
  const auto own_it = entity_to_session_.find(e.id);
  const SubscriberId own =
      own_it == entity_to_session_.end() ? dyconit::kNoSubscriber : own_it->second;

  if (cfg_.use_dyconits) {
    Update u;
    u.msg = msg;
    u.weight = weight;
    u.created = clock_.now();
    u.coalesce_key = dyconit::coalesce_key_entity(e.id);
    dyconits_.update(policy_->entity_unit_for(e.chunk()), std::move(u), own);
    return;
  }

  const auto it = viewers_.find(e.chunk());
  if (it == viewers_.end()) return;
  const protocol::AnyMessage out(msg);
  net::SharedFrame shared;
  const SimTime now = clock_.now();
  for (const SubscriberId sub : it->second) {
    if (sub == own) continue;
    Session* s = session_of(sub);
    if (s != nullptr && s->known_entities.contains(e.id)) {
      send_or_queue(*s, out, now, &shared);
    }
  }
}

// ------------------------------------------------------- interest tracking

void GameServer::update_interest(Session& s, bool initial) {
  const Entity* e = registry_.find(s.entity);
  if (e == nullptr) return;
  const ChunkPos center = e->chunk();
  if (!initial && center == s.interest_center) return;
  s.interest_center = center;

  const int v = cfg_.view_distance;
  std::vector<ChunkPos> to_remove;
  for (const ChunkPos c : s.interest) {
    if (c.chebyshev(center) > v + cfg_.unload_margin) to_remove.push_back(c);
  }
  for (const ChunkPos c : to_remove) remove_interest_chunk(s, c);

  for (int dx = -v; dx <= v; ++dx) {
    for (int dz = -v; dz <= v; ++dz) {
      const ChunkPos c{center.x + dx, center.z + dz};
      if (s.interest.count(c) == 0) add_interest_chunk(s, c);
    }
  }

  if (cfg_.use_dyconits) retune_session_bounds(s);
}

void GameServer::add_interest_chunk(Session& s, ChunkPos c) {
  s.interest.insert(c);
  viewers_[c].insert(s.id);

  if (s.chunk_queued.insert(c).second) s.chunk_queue.push_back(c);

  // Spawn entities already standing in the chunk.
  if (const auto* ids = registry_.entities_in_chunk(c)) {
    for (const EntityId id : *ids) {
      if (id == s.entity) continue;
      const Entity* e = registry_.find(id);
      if (e != nullptr && s.known_entities.insert(id)) {
        send_entity_spawn(s, *e);
      }
    }
  }

  if (cfg_.use_dyconits) {
    const Entity* self = registry_.find(s.entity);
    const world::Vec3 pos = self != nullptr ? self->pos : world::Vec3{};
    for (const DyconitId unit :
         {policy_->block_unit_for(c), policy_->entity_unit_for(c)}) {
      ref_unit(s, unit, pos);
    }
  }
}

void GameServer::ref_unit(Session& s, const DyconitId& unit, const world::Vec3& pos) {
  Session::UnitRef& ref = s.unit_refs[unit];
  if (++ref.refs == 1) ref.sub = dyconits_.subscribe(unit, s.id, policy_->bounds_for(unit, pos));
}

void GameServer::remove_interest_chunk(Session& s, ChunkPos c) {
  s.interest.erase(c);
  const auto vit = viewers_.find(c);
  if (vit != viewers_.end()) {
    vit->second.erase(s.id);
    if (vit->second.empty()) viewers_.erase(vit);
  }

  if (s.chunk_queued.erase(c) > 0) {
    // Leave the stale entry in chunk_queue; stream_chunks skips it.
  } else {
    send_or_queue(s, protocol::UnloadChunk{c});
  }

  if (const auto* ids = registry_.entities_in_chunk(c)) {
    for (const EntityId id : *ids) {
      if (s.known_entities.erase(id)) send_or_queue(s, protocol::EntityDespawn{id});
    }
  }

  if (cfg_.use_dyconits) {
    for (const DyconitId unit :
         {policy_->block_unit_for(c), policy_->entity_unit_for(c)}) {
      const auto it = s.unit_refs.find(unit);
      if (it != s.unit_refs.end() && --it->second.refs == 0) {
        s.unit_refs.erase(it);
        dyconits_.unsubscribe(unit, s.id);
      }
    }
  }
}

void GameServer::retune_session_bounds(Session& s) {
  const Entity* e = registry_.find(s.entity);
  if (e == nullptr) return;
  for (const auto& [unit, ref] : s.unit_refs) {
    dyconits_.set_bounds(ref.sub, policy_->bounds_for(unit, e->pos));
  }
}

void GameServer::entity_crossed_chunk(Entity& e, ChunkPos from, ChunkPos to) {
  const auto* old_viewers = [&]() -> const std::unordered_set<SubscriberId>* {
    const auto it = viewers_.find(from);
    return it == viewers_.end() ? nullptr : &it->second;
  }();
  const auto* new_viewers = [&]() -> const std::unordered_set<SubscriberId>* {
    const auto it = viewers_.find(to);
    return it == viewers_.end() ? nullptr : &it->second;
  }();

  if (old_viewers != nullptr) {
    const protocol::AnyMessage despawn{protocol::EntityDespawn{e.id}};
    net::SharedFrame shared;
    for (const SubscriberId sub : *old_viewers) {
      if (new_viewers != nullptr && new_viewers->count(sub) > 0) continue;
      Session* s = session_of(sub);
      if (s != nullptr && s->entity != e.id && s->known_entities.erase(e.id)) {
        send_or_queue(*s, despawn, {}, &shared);
      }
    }
  }
  if (new_viewers != nullptr) {
    const protocol::AnyMessage spawn{protocol::EntitySpawn{
        e.id, e.kind, e.pos, e.yaw, e.pitch, display_name_of(e.id), e.data}};
    net::SharedFrame shared;
    for (const SubscriberId sub : *new_viewers) {
      if (old_viewers != nullptr && old_viewers->count(sub) > 0) continue;
      Session* s = session_of(sub);
      if (s != nullptr && s->entity != e.id && s->known_entities.insert(e.id)) {
        send_or_queue(*s, spawn, {}, &shared);
      }
    }
  }
}

// ------------------------------------------------------------- tick phases

void GameServer::stream_chunks() {
  // Rung DeferChunks clamps the per-player throttle: chunk payloads are
  // the heaviest frames, so they are the first whole class deferred.
  int max_sends = cfg_.max_chunk_sends_per_tick;
  if (cfg_.overload.enabled && ladder_.rung() >= kRungDeferChunks) {
    max_sends = std::min(max_sends, cfg_.overload.defer_chunk_sends_per_tick);
  }
  for (auto& [id, s] : sessions_) {
    if (cfg_.overload.enabled && s.backlogged) {
      // Slow-subscriber isolation: no chunk payloads onto a link that is
      // already saturated. The queue keeps its place until the inbox
      // recovers (or the egress queue bounces them back here).
      if (!s.chunk_queue.empty()) ++overload_stats_.chunks_deferred;
      continue;
    }
    int sent = 0;
    while (sent < max_sends && !s.chunk_queue.empty()) {
      const ChunkPos c = s.chunk_queue.front();
      s.chunk_queue.pop_front();
      if (s.chunk_queued.erase(c) == 0) continue;  // interest moved on
      world::Chunk& chunk = world_.chunk_at(c);
      send_or_queue(s, protocol::ChunkData{c, chunk.encode_rle()});
      ++sent;
    }
    if (s.resync_tighten && s.chunk_queue.empty()) {
      // Snapshot drained: the subscriber is caught up; hand bound control
      // back to the policy.
      s.resync_tighten = false;
      if (cfg_.use_dyconits) retune_session_bounds(s);
    }
  }
}

void GameServer::send_keepalives() {
  if (cfg_.keepalive_interval_ticks == 0 ||
      tick_number_ % cfg_.keepalive_interval_ticks != 0) {
    return;
  }
  std::vector<SubscriberId> timed_out;
  // Every session gets the same nonce (the tick number): one shared frame.
  const protocol::AnyMessage keepalive{
      protocol::KeepAlive{static_cast<std::uint32_t>(tick_number_)}};
  net::SharedFrame shared;
  for (auto& [id, s] : sessions_) {
    if (s.keepalive_pending >= cfg_.keepalive_missed_limit) {
      timed_out.push_back(id);
      continue;
    }
    ++s.keepalive_pending;
    s.keepalive_sent_at = clock_.now();
    send_or_queue(s, keepalive, {}, &shared);
    ++keepalives_sent_;
  }
  for (const SubscriberId id : timed_out) {
    ++sessions_timed_out_;
    Log::warn("server: session %u timed out", id);
    disconnect(id);
  }
}

void GameServer::run_policy() {
  if (!cfg_.use_dyconits) return;

  const SimTime now = clock_.now();
  if (now - last_rate_sample_ >= SimDuration::seconds(1)) {
    const double dt = (now - last_rate_sample_).as_seconds();
    egress_bytes_per_sec_ = egress_rate_.sample(net_.egress_bytes(endpoint_), dt);
    last_rate_sample_ = now;
  }

  dyconit::LoadSample load;
  load.now = now;
  load.tick_duration = last_tick_cpu_;
  load.tick_budget = cfg_.tick_interval;
  load.egress_bytes_per_sec = egress_bytes_per_sec_;
  load.bandwidth_budget_bps = cfg_.bandwidth_budget_bps;
  load.players = sessions_.size();
  load.overload_rung = cfg_.overload.enabled ? ladder_.rung() : 0;

  const std::vector<dyconit::PlayerView> views = player_views();
  dyconit::PolicyContext ctx(dyconits_, views, load);
  policy_->on_tick(ctx);
  if (ctx.resubscribe_requested()) rebuild_subscriptions();
}

void GameServer::rebuild_subscriptions() {
  // The policy re-partitioned the world. Flush everything owed under the
  // old partition (so no queued update is lost), drop the old
  // subscriptions, and rebuild from the new unit mapping.
  for (auto& [id, s] : sessions_) {
    dyconits_.flush_subscriber(s.id, *this);
    for (const auto& [unit, ref] : s.unit_refs) dyconits_.unsubscribe(unit, s.id);
    s.unit_refs.clear();
    const Entity* e = registry_.find(s.entity);
    const world::Vec3 pos = e != nullptr ? e->pos : world::Vec3{};
    for (const ChunkPos c : s.interest) {
      for (const DyconitId unit :
           {policy_->block_unit_for(c), policy_->entity_unit_for(c)}) {
        ref_unit(s, unit, pos);
      }
    }
  }
}

// ---------------------------------------------------------------- flushing

void GameServer::flush_dyconits() {
  TRACE_SCOPE("server.dyconit_flush");
  dyconits_.tick(*this);
  packed_frames_.clear();
  packed_batches_.clear();
}

void GameServer::deliver(SubscriberId to, std::uint64_t batch,
                         const std::vector<FlushedUpdate>& updates) {
  Session* s = session_of(to);
  if (s == nullptr) return;
  // Sessions that take one batch get the same messages (DESIGN.md §11):
  // pack it on first sight and encode each frame once, on its first direct
  // send. packed_batches_ is sorted by id. Ids are assigned in increasing
  // order, so a batch first taken this round goes at the back; one kept
  // from an earlier round (a member that stayed) is found or inserted in
  // place.
  auto it = packed_batches_.end();
  if (!packed_batches_.empty() && batch <= packed_batches_.back().id) {
    it = std::lower_bound(packed_batches_.begin(), packed_batches_.end(), batch,
                          [](const PackedBatch& b, std::uint64_t id) { return b.id < id; });
  }
  if (it == packed_batches_.end() || it->id != batch) {
    const std::size_t begin = packed_frames_.size();
    pack_update_batch(updates, [&](const protocol::AnyMessage& m, SimTime origin) {
      packed_frames_.push_back({m, origin, {}});
    });
    it = packed_batches_.insert(it, {batch, begin, packed_frames_.size()});
  }
  for (std::size_t i = it->begin; i < it->end; ++i) {
    PackedFrame& f = packed_frames_[i];
    send_or_queue(*s, f.msg, f.origin, &f.shared);
  }
}

// ------------------------------------------------------------------- items

void GameServer::drop_item(const world::BlockPos& pos, world::Block block) {
  Entity& item = registry_.create(entity::EntityKind::Item, pos.center());
  item.data = static_cast<std::uint16_t>(block);
  items_.push_back({item.id, clock_.now() + cfg_.item_ttl});
  ++items_dropped_;
  announce_spawn(item);
}

void GameServer::tick_items() {
  if (items_.empty()) return;
  const SimTime now = clock_.now();
  for (auto it = items_.begin(); it != items_.end();) {
    Entity* item = registry_.find(it->id);
    if (item == nullptr) {
      it = items_.erase(it);
      continue;
    }
    // Pickup: the nearest player standing on the item takes it.
    Session* taker = nullptr;
    for (const EntityId near_id : registry_.query_chunk_radius(item->chunk(), 1)) {
      const Entity* e = registry_.find(near_id);
      if (e == nullptr || e->kind != entity::EntityKind::Player) continue;
      if (world::distance(e->pos, item->pos) > cfg_.pickup_radius) continue;
      if (Session* s = session_by_entity(near_id)) {
        taker = s;
        break;
      }
    }
    if (taker != nullptr) {
      pickup_item(*taker, *item);
      it = items_.erase(it);
      continue;
    }
    if (now >= it->expires) {
      ++items_expired_;
      despawn_entity_everywhere(item->id, item->chunk());
      registry_.remove(item->id);
      it = items_.erase(it);
      continue;
    }
    ++it;
  }
}

void GameServer::pickup_item(Session& s, const Entity& item) {
  const auto block = static_cast<world::Block>(item.data);
  const std::uint32_t count = ++s.inventory[block];
  send_or_queue(s, protocol::InventoryUpdate{block, count});
  ++items_picked_up_;
  despawn_entity_everywhere(item.id, item.chunk());
  registry_.remove(item.id);
}

void GameServer::despawn_entity_everywhere(EntityId id, ChunkPos chunk) {
  const auto vit = viewers_.find(chunk);
  if (vit == viewers_.end()) return;
  const protocol::AnyMessage msg{protocol::EntityDespawn{id}};
  net::SharedFrame shared;
  for (const SubscriberId sub : vit->second) {
    Session* s = session_of(sub);
    if (s != nullptr && s->known_entities.erase(id)) {
      send_or_queue(*s, msg, {}, &shared);
    }
  }
}

void GameServer::announce_spawn(const Entity& e) {
  const auto vit = viewers_.find(e.chunk());
  if (vit == viewers_.end()) return;
  const protocol::AnyMessage msg{protocol::EntitySpawn{
      e.id, e.kind, e.pos, e.yaw, e.pitch, display_name_of(e.id), e.data}};
  net::SharedFrame shared;
  for (const SubscriberId sub : vit->second) {
    Session* s = session_of(sub);
    if (s != nullptr && s->entity != e.id && s->known_entities.insert(e.id)) {
      send_or_queue(*s, msg, {}, &shared);
    }
  }
}

std::uint32_t GameServer::inventory_of(SubscriberId sub, world::Block item) const {
  const auto sit = sessions_.find(sub);
  if (sit == sessions_.end()) return 0;
  const auto it = sit->second.inventory.find(item);
  return it == sit->second.inventory.end() ? 0 : it->second;
}

void GameServer::request_snapshot(SubscriberId to, const dyconit::DyconitId& unit) {
  Session* s = session_of(to);
  if (s == nullptr) return;
  // Fresh state for every interest chunk the unit covers.
  for (const ChunkPos c : s->interest) {
    const bool covered = unit.is_entity_domain() ? policy_->entity_unit_for(c) == unit
                                                 : policy_->block_unit_for(c) == unit;
    if (!covered) continue;
    if (unit.is_entity_domain()) {
      // Current positions of everything the client knows in this chunk.
      if (const auto* ids = registry_.entities_in_chunk(c)) {
        for (const EntityId id : *ids) {
          const Entity* e = registry_.find(id);
          if (e != nullptr && s->known_entities.contains(id)) {
            send_or_queue(*s, protocol::EntityMove{e->id, e->pos, e->yaw, e->pitch},
                          clock_.now());
          }
        }
      }
    } else if (s->chunk_queued.insert(c).second) {
      s->chunk_queue.push_back(c);  // full chunk resend via the throttle
    }
  }
}

// -------------------------------------------------- overload (DESIGN.md §10)

void GameServer::tick_overload() {
  if (!cfg_.overload.enabled) return;

  // Execute disconnects decided since the last overload phase: the
  // watchdog's worst offender plus any session whose egress queue had to
  // drop an order-critical frame. Sorted so the wire-visible despawn
  // fan-out happens in a deterministic order.
  std::vector<SubscriberId> to_drop;
  if (pending_overload_disconnect_ != dyconit::kNoSubscriber) {
    to_drop.push_back(pending_overload_disconnect_);
    pending_overload_disconnect_ = dyconit::kNoSubscriber;
  }
  for (auto& [id, s] : sessions_) {
    if (s.overload_poisoned) to_drop.push_back(id);
  }
  std::sort(to_drop.begin(), to_drop.end());
  to_drop.erase(std::unique(to_drop.begin(), to_drop.end()), to_drop.end());
  for (const SubscriberId id : to_drop) {
    if (sessions_.count(id) == 0) continue;
    ++overload_stats_.overload_disconnects;
    last_overload_disconnect_tick_ = tick_number_;
    TRACE_INSTANT("server.overload.disconnect");
    Log::warn("server: overload disconnect of session %u (rung %s)", id,
              ladder_rung_name(ladder_.rung()));
    disconnect(id);
  }

  // Recompute backlog flags once per tick, then drain recovered
  // subscribers in ascending id order. The flag stays fixed for the rest
  // of the tick, so every flush in the tick makes the same divert decision.
  std::vector<SubscriberId> ids;
  ids.reserve(sessions_.size());
  for (auto& [id, s] : sessions_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const SubscriberId id : ids) {
    Session& s = sessions_.at(id);
    s.backlogged = backlog_bytes(s) > cfg_.overload.backlog_threshold_bytes;
    // Drain only while the transport inbox has recovered: pushing staged
    // frames into a still-full inbox would just move the backlog back.
    if (!s.backlogged && !s.egress.empty()) drain_egress(s);
  }
}

void GameServer::overload_watchdog() {
  if (!cfg_.overload.enabled) return;
  // A saturated real socket is overload the CPU clock never sees: bytes the
  // transport failed to put on the wire. Charge them at the modeled
  // per-byte rate so send pressure climbs the ladder exactly like an
  // expensive tick would (DESIGN.md §13). Zero on the sim (sends never
  // fail) and in steady state (the estimate decays), so existing ladder
  // behavior is untouched.
  SimDuration ladder_cost = last_tick_cpu_;
  const net::SendPressure p = net_.send_pressure(net::kInvalidEndpoint);
  if (p.congested_bytes > 0) {
    ladder_cost += SimDuration::micros(static_cast<std::int64_t>(
        static_cast<double>(p.congested_bytes) * cfg_.net_cost_per_byte_ns / 1000.0));
  }
  // Refused sends are charged at the per-frame rate too: with small
  // frames the per-frame cost dominates the model, and pricing stuck
  // bytes alone would hide a saturated socket behind ordinary load noise.
  if (p.congested_frames > 0) {
    ladder_cost += SimDuration::micros(
        static_cast<std::int64_t>(p.congested_frames) *
        cfg_.net_cost_per_frame.count_micros());
  }
  const int before = ladder_.rung();
  if (ladder_.on_tick(ladder_cost, cfg_.tick_interval, cfg_.overload)) {
    ++overload_stats_.ladder_transitions;
    TRACE_INSTANT("server.overload.rung");
    Log::info("server: overload ladder %s -> %s (tick cost %lld us)",
              ladder_rung_name(before), ladder_rung_name(ladder_.rung()),
              static_cast<long long>(ladder_cost.count_micros()));
  }
  const int rung = ladder_.rung();

  if (cfg_.use_dyconits) {
    // Rung ShedLowPriority and above: shed queued entity moves for
    // backlogged subscribers (the next move supersedes them) and tighten
    // their snapshot threshold so block backlog converts into snapshot
    // requests. Cleared the moment the subscriber recovers or the ladder
    // descends; per-subscriber map writes, so iteration order is free.
    for (auto& [id, s] : sessions_) {
      dyconit::ShedDirective d;
      if (rung >= kRungShedLowPriority && s.backlogged && !s.resync_tighten) {
        d.shed_entity_moves = true;
        d.snapshot_threshold_override = cfg_.overload.shed_snapshot_threshold;
      }
      dyconits_.set_shed_directive(id, d);
    }
  }

  // Rung Disconnect: pick the worst offender — largest transport + staged
  // backlog, ties to the lowest id — for the next overload phase. One at a
  // time, spaced disconnect_interval_ticks apart, so the ladder re-observes
  // between evictions.
  if (rung >= kRungDisconnect &&
      pending_overload_disconnect_ == dyconit::kNoSubscriber &&
      tick_number_ - last_overload_disconnect_tick_ >=
          cfg_.overload.disconnect_interval_ticks) {
    SubscriberId worst = dyconit::kNoSubscriber;
    std::size_t worst_score = 0;
    for (auto& [id, s] : sessions_) {
      const std::size_t score = backlog_bytes(s);
      if (score == 0) continue;
      if (worst == dyconit::kNoSubscriber || score > worst_score ||
          (score == worst_score && id < worst)) {
        worst = id;
        worst_score = score;
      }
    }
    if (worst != dyconit::kNoSubscriber) pending_overload_disconnect_ = worst;
  }
}

void GameServer::apply_overload_bounds() {
  if (!cfg_.overload.enabled || !cfg_.use_dyconits) return;
  if (ladder_.rung() < kRungWidenBounds) return;
  const double f = cfg_.overload.widen_factor;
  for (auto& [id, s] : sessions_) {
    if (!s.backlogged || s.resync_tighten) continue;
    const Entity* e = registry_.find(s.entity);
    if (e == nullptr) continue;
    for (const auto& [unit, ref] : s.unit_refs) {
      Bounds b = policy_->bounds_for(unit, e->pos);
      // Re-derived from the policy every tick (not compounded in place);
      // clamp keeps an already-huge staleness bound from overflowing.
      b.staleness = SimDuration::micros(static_cast<std::int64_t>(std::min(
          static_cast<double>(b.staleness.count_micros()) * f, 9.0e15)));
      b.numerical *= f;
      dyconits_.set_bounds(ref.sub, b);
    }
  }
}

void GameServer::send_or_queue(Session& s, const protocol::AnyMessage& m,
                               SimTime trace_origin, net::SharedFrame* shared) {
  // Pass-through until the session is backlogged or has staged frames;
  // after that everything appends so relative order is preserved. A
  // diverted message is staged in message form (the queue coalesces
  // messages, not frames) and encoded at drain time, so the wire bytes are
  // identical either way.
  if (!cfg_.overload.enabled || (!s.backlogged && s.egress.empty())) {
    send_to(s, m, trace_origin, shared);
    return;
  }
  enqueue_egress(s, m, trace_origin);
}

void GameServer::enqueue_egress(Session& s, const protocol::AnyMessage& m,
                                SimTime origin) {
  // Batch frames decompose into atomic updates so coalescing is a per-key
  // replace; drain_egress regroups consecutive runs back into batches.
  if (const auto* batch = std::get_if<protocol::EntityMoveBatch>(&m)) {
    for (const protocol::EntityMove& mv : batch->moves) enqueue_egress(s, mv, origin);
    return;
  }
  if (const auto* mbc = std::get_if<protocol::MultiBlockChange>(&m)) {
    for (const auto& e : mbc->entries) {
      const world::BlockPos pos{mbc->chunk.x * 16 + e.x, e.y, mbc->chunk.z * 16 + e.z};
      enqueue_egress(s, protocol::BlockChange{pos, e.block}, origin);
    }
    return;
  }
  std::uint64_t key = 0;
  if (const auto* mv = std::get_if<protocol::EntityMove>(&m)) {
    key = dyconit::coalesce_key_entity(mv->id);
  } else if (const auto* bc = std::get_if<protocol::BlockChange>(&m)) {
    key = dyconit::coalesce_key_block(bc->pos);
  }
  // Byte accounting uses the exact sizing visitor (no trial encode) plus a
  // worst-case sequence varint (4 bytes wider than wire_size_of's seq 0),
  // so the cap is conservative with respect to actual wire bytes.
  const std::size_t bytes = protocol::wire_size_of(m) + 4;
  switch (s.egress.push(m, origin, key, bytes, cfg_.overload, overload_stats_)) {
    case EgressQueue::PushResult::Queued:
    case EgressQueue::PushResult::Coalesced:
    case EgressQueue::PushResult::DroppedMove:
      break;
    case EgressQueue::PushResult::DeferChunk:
      // Chunk payloads never occupy queue space: hand the position back to
      // the chunk streamer, which re-sends it once the link recovers.
      ++overload_stats_.chunks_deferred;
      if (const auto* cd = std::get_if<protocol::ChunkData>(&m)) {
        if (s.chunk_queued.insert(cd->pos).second) s.chunk_queue.push_back(cd->pos);
      }
      break;
    case EgressQueue::PushResult::DroppedPoison:
      // An order-critical frame was lost; incremental repair is impossible.
      // The next overload phase disconnects the session and rejoin-resync
      // rebuilds the replica from scratch.
      s.overload_poisoned = true;
      break;
  }
}

void GameServer::drain_egress(Session& s) {
  std::size_t budget = cfg_.overload.drain_bytes_per_tick;
  if (budget == 0) budget = static_cast<std::size_t>(-1);
  while (!s.egress.empty() && budget > 0) {
    EgressQueue::Item first = s.egress.pop_front();
    ++overload_stats_.egress_drained;
    std::size_t spent = first.bytes;
    if (std::get_if<protocol::EntityMove>(&first.msg) != nullptr) {
      // Regroup a consecutive run of moves into one batch frame.
      std::vector<protocol::EntityMove> moves;
      moves.push_back(std::get<protocol::EntityMove>(first.msg));
      SimTime origin = first.origin;
      while (!s.egress.empty() && spent < budget &&
             std::get_if<protocol::EntityMove>(&s.egress.front().msg) != nullptr) {
        EgressQueue::Item next = s.egress.pop_front();
        ++overload_stats_.egress_drained;
        spent += next.bytes;
        if (next.origin < origin) origin = next.origin;
        moves.push_back(std::get<protocol::EntityMove>(next.msg));
      }
      if (moves.size() == 1) {
        send_to(s, moves.front(), origin);
      } else {
        send_to(s, protocol::EntityMoveBatch{std::move(moves)}, origin);
      }
    } else if (const auto* bc = std::get_if<protocol::BlockChange>(&first.msg)) {
      // Regroup consecutive same-chunk block ops into a MultiBlockChange.
      const ChunkPos c = ChunkPos::of_block(bc->pos);
      protocol::MultiBlockChange mbc;
      mbc.chunk = c;
      SimTime origin = first.origin;
      auto push_entry = [&mbc](const protocol::BlockChange& b) {
        mbc.entries.push_back(
            {static_cast<std::uint8_t>(world::floor_mod(b.pos.x, 16)),
             static_cast<std::uint8_t>(b.pos.y),
             static_cast<std::uint8_t>(world::floor_mod(b.pos.z, 16)), b.block});
      };
      push_entry(*bc);
      while (!s.egress.empty() && spent < budget) {
        const auto* nb = std::get_if<protocol::BlockChange>(&s.egress.front().msg);
        if (nb == nullptr || ChunkPos::of_block(nb->pos) != c) break;
        EgressQueue::Item next = s.egress.pop_front();
        ++overload_stats_.egress_drained;
        spent += next.bytes;
        if (next.origin < origin) origin = next.origin;
        push_entry(std::get<protocol::BlockChange>(next.msg));
      }
      if (mbc.entries.size() == 1) {
        send_to(s, *bc, origin);
      } else {
        send_to(s, std::move(mbc), origin);
      }
    } else {
      send_to(s, first.msg, first.origin);
    }
    budget -= std::min(budget, spent);
  }
}

std::size_t GameServer::egress_queue_bytes(SubscriberId sub) const {
  const auto it = sessions_.find(sub);
  return it == sessions_.end() ? 0 : it->second.egress.bytes();
}

std::size_t GameServer::egress_queue_frames(SubscriberId sub) const {
  const auto it = sessions_.find(sub);
  return it == sessions_.end() ? 0 : it->second.egress.frames();
}

// ----------------------------------------------------------------- helpers

void GameServer::send_to(Session& s, const protocol::AnyMessage& m, SimTime trace_origin,
                         net::SharedFrame* shared) {
  TRACE_SCOPE("server.serialize_send");
  if (shared != nullptr) {
    // Broadcast fan-out (DESIGN.md §11): the payload is serialized once per
    // broadcast; the first recipient encodes, and each recipient's send
    // carries its own seq with the shared bytes.
    if (!shared->valid()) *shared = protocol::encode_shared(m);
    if (cfg_.hash_streams) s.egress_hash.mix(shared->tag(), shared->payload());
    net_.send_shared(endpoint_, s.endpoint, *shared, ++s.out_seq, trace_origin);
    return;
  }
  net::Frame frame = protocol::encode(m);
  if (cfg_.hash_streams) s.egress_hash.mix(frame);  // pre-seq: backend-neutral
  frame.seq = ++s.out_seq;  // transport sequence; clients detect gaps
  frame.trace_origin = trace_origin;
  net_.send(endpoint_, s.endpoint, std::move(frame));
}

void GameServer::send_barrier_acks() {
  std::vector<SubscriberId> ids;
  for (auto& [id, s] : sessions_) {
    if (s.barrier_armed) ids.push_back(id);
  }
  if (ids.empty()) return;
  std::sort(ids.begin(), ids.end());
  for (const SubscriberId id : ids) {
    Session& s = sessions_.at(id);
    s.barrier_armed = false;
    send_or_queue(s, protocol::TickBarrierAck{s.barrier_tick}, clock_.now());
  }
}

std::vector<GameServer::SessionStreamHash> GameServer::session_stream_hashes() const {
  std::vector<SessionStreamHash> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    SessionStreamHash h;
    h.name = s.name;
    h.egress_hash = s.egress_hash.value();
    h.egress_frames = s.egress_hash.frames();
    const auto it = ingress_hash_by_endpoint_.find(s.endpoint);
    if (it != ingress_hash_by_endpoint_.end()) {
      h.ingress_hash = it->second.value();
      h.ingress_frames = it->second.frames();
    }
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(),
            [](const SessionStreamHash& a, const SessionStreamHash& b) {
              return a.name < b.name;
            });
  return out;
}

void GameServer::send_entity_spawn(Session& s, const Entity& e) {
  send_or_queue(s, protocol::EntitySpawn{e.id, e.kind, e.pos, e.yaw, e.pitch,
                                         display_name_of(e.id), e.data});
}

const std::string& GameServer::display_name_of(EntityId id) const {
  static const std::string kEmpty;
  const auto it = entity_to_session_.find(id);
  if (it == entity_to_session_.end()) return kEmpty;
  const auto sit = sessions_.find(it->second);
  return sit == sessions_.end() ? kEmpty : sit->second.name;
}

void GameServer::disconnect(SubscriberId sub) {
  const auto it = sessions_.find(sub);
  if (it == sessions_.end()) return;
  Session& s = it->second;

  // Remove the player's view.
  for (const ChunkPos c : s.interest) {
    const auto vit = viewers_.find(c);
    if (vit != viewers_.end()) {
      vit->second.erase(sub);
      if (vit->second.empty()) viewers_.erase(vit);
    }
  }
  if (cfg_.use_dyconits) dyconits_.unsubscribe_all(sub);
  if (cfg_.overload.enabled) {
    overload_stats_.egress_dropped_disconnect += s.egress.clear();
    if (cfg_.use_dyconits) dyconits_.set_shed_directive(sub, {});
  }

  // Remove the player's presence.
  Entity* e = registry_.find(s.entity);
  if (e != nullptr) {
    const auto vit = viewers_.find(e->chunk());
    if (vit != viewers_.end()) {
      const protocol::AnyMessage despawn{protocol::EntityDespawn{e->id}};
      net::SharedFrame shared;
      for (const SubscriberId other_id : vit->second) {
        Session* other = session_of(other_id);
        if (other != nullptr && other->known_entities.erase(e->id)) {
          send_or_queue(*other, despawn, {}, &shared);
        }
      }
    }
    entity_to_session_.erase(e->id);
    registry_.remove(e->id);
    moved_.erase(s.entity);
  }
  sessions_.erase(it);
}

GameServer::Session* GameServer::session_of(SubscriberId sub) {
  const auto it = sessions_.find(sub);
  return it == sessions_.end() ? nullptr : &it->second;
}

GameServer::Session* GameServer::session_by_entity(EntityId id) {
  const auto it = entity_to_session_.find(id);
  return it == entity_to_session_.end() ? nullptr : session_of(it->second);
}

entity::EntityId GameServer::entity_of(SubscriberId sub) const {
  const auto it = sessions_.find(sub);
  return it == sessions_.end() ? entity::kInvalidEntity : it->second.entity;
}

std::vector<dyconit::PlayerView> GameServer::player_views() const {
  std::vector<dyconit::PlayerView> views;
  views.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    const Entity* e = registry_.find(s.entity);
    if (e != nullptr) views.push_back({s.id, s.entity, e->pos, s.rtt});
  }
  return views;
}

SimDuration GameServer::rtt_of(SubscriberId sub) const {
  const auto it = sessions_.find(sub);
  return it == sessions_.end() ? SimDuration() : it->second.rtt;
}

}  // namespace dyconits::server
