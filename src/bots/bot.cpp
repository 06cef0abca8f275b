#include "bots/bot.h"

#include <algorithm>
#include <cmath>
#include <new>

#include "entity/movement.h"
#include "net/buffer_pool.h"
#include "util/log.h"

namespace dyconits::bots {

using protocol::AnyMessage;
using world::BlockPos;
using world::ChunkPos;
using world::Vec3;

namespace {

/// One decode target per thread for the snapshots a bot does not keep (a
/// chunk is ~33 KB, so not one per bot). A successful decode overwrites
/// every block and a rejected one writes nothing, so nothing leaks from one
/// snapshot into the next. Built in place and never destroyed: a
/// thread_local with a destructor makes glibc register it with a small
/// heap allocation at first use, mid-set-up, and that one long-lived block
/// raised village_dense peak RSS from 156 to 166 MB. The scratch never
/// encodes, so its RLE cache owns no memory.
world::Chunk& decode_scratch() {
  alignas(world::Chunk) thread_local unsigned char storage[sizeof(world::Chunk)];
  thread_local world::Chunk* const chunk = new (storage) world::Chunk({0, 0});
  return *chunk;
}

}  // namespace

const char* behavior_name(BehaviorKind k) {
  switch (k) {
    case BehaviorKind::Idle: return "idle";
    case BehaviorKind::Walk: return "walk";
    case BehaviorKind::Build: return "build";
    case BehaviorKind::Mine: return "mine";
  }
  return "unknown";
}

BotClient::BotClient(SimClock& clock, net::Transport& net, world::World& truth,
                     net::EndpointId server, std::string name, std::uint64_t seed,
                     BotConfig cfg)
    : clock_(clock),
      net_(net),
      truth_(truth),
      server_(server),
      endpoint_(net.create_endpoint(name)),
      name_(std::move(name)),
      rng_(seed),
      cfg_(cfg) {
  current_join_retry_ = cfg_.join_retry;
  if (cfg_.keep_chunk_replica) replica_world_ = std::make_unique<world::World>();
}

void BotClient::connect() {
  join_sent_at_ = clock_.now();
  send(protocol::JoinRequest{name_});
}

void BotClient::reset_session() {
  // Drain anything still in flight for the old session.
  for (net::Delivery& d : net_.poll(endpoint_)) {
    net::BufferPool::instance().release(std::move(d.frame.payload));
  }
  joined_ = false;
  self_ = entity::kInvalidEntity;
  newest_frame_sent_ = SimTime::zero();
  rx_seq_ = 0;
  missing_.clear();
  pending_resync_ = false;
  next_resync_ok_ = SimTime::zero();
  join_sent_at_ = SimTime::zero();
  current_join_retry_ = cfg_.join_retry;
  last_rx_ = SimTime::zero();
  replica_entities_.clear();
  inventory_.clear();
  block_deltas_.clear();
  loaded_chunks_.clear();
  if (replica_world_ != nullptr) replica_world_ = std::make_unique<world::World>();
}

void BotClient::send(const AnyMessage& msg) {
  net::Frame frame = protocol::encode(msg);
  if (cfg_.hash_streams) egress_hash_.mix(frame);  // pre-seq: backend-neutral
  frame.seq = ++tx_seq_;  // transport sequence; the server counts gaps
  frame.trace_origin = clock_.now();
  net_.send(endpoint_, server_, std::move(frame));
}

void BotClient::send_barrier(std::uint32_t tick) {
  if (stalled_) return;
  send(protocol::TickBarrier{tick});
}

void BotClient::track_seq(std::uint32_t seq, SimTime now) {
  if (seq == 0) return;  // unsequenced frame
  if (rx_seq_ == 0) {
    rx_seq_ = seq;  // first contact; nothing to compare against
  } else if (seq > rx_seq_) {
    const std::uint32_t gap = seq - rx_seq_ - 1;
    if (gap > 0) {
      gaps_detected_ += gap;
      if (gap > kMaxTrackedGap || missing_.size() + gap > kMaxTrackedGap) {
        // Bulk loss (partition heal, crash recovery): no point waiting for
        // holes to fill — ask for a resync outright.
        missing_.clear();
        pending_resync_ = true;
      } else {
        for (std::uint32_t q = rx_seq_ + 1; q < seq; ++q) missing_.emplace(q, now);
      }
    }
    rx_seq_ = seq;
  } else if (missing_.erase(seq) > 0) {
    // A late arrival filled a hole: that was reorder, not loss.
  } else {
    ++dup_or_old_frames_;
  }
}

void BotClient::tick() {
  if (stalled_) return;  // frozen client: nothing polled, nothing sent
  poll_inbound();

  if (!joined_ || paused_) return;
  walk();
  if (clock_.now() >= next_action_) {
    act();
    next_action_ = clock_.now() +
                   SimDuration::micros(static_cast<std::int64_t>(
                       static_cast<double>(cfg_.action_interval.count_micros()) /
                       action_scale_));
  }
}

void BotClient::poll_inbound() {
  if (stalled_) return;
  const SimTime now = clock_.now();
  for (net::Delivery& d : net_.poll(endpoint_)) {
    ++frames_received_;
    if (cfg_.hash_streams) ingress_hash_.mix(d.frame);
    last_rx_ = now;
    track_seq(d.frame.seq, now);
    const auto msg = protocol::decode(d.frame);
    if (msg.has_value()) apply(*msg, d);
    // Consumed either way: recycle the payload buffer for the next encode.
    net::BufferPool::instance().release(std::move(d.frame.payload));
    if (!msg.has_value()) {
      ++decode_failures_;
      // A sequenced frame whose content is gone is a loss even though the
      // sequence advanced: recover its state via resync.
      if (d.frame.seq != 0) pending_resync_ = true;
    }
  }

  // Holes that outlived the grace window are real loss, not reorder.
  for (auto it = missing_.begin(); it != missing_.end();) {
    if (now - it->second > kGapGrace) {
      pending_resync_ = true;
      it = missing_.erase(it);
    } else {
      ++it;
    }
  }
  if (joined_ && pending_resync_ && now >= next_resync_ok_) {
    send(protocol::ResyncRequest{rx_seq_});
    ++resyncs_requested_;
    pending_resync_ = false;
    missing_.clear();  // the resync replaces whatever the holes carried
    next_resync_ok_ = now + kResyncInterval;
  }
  if (!joined_ && join_sent_at_ != SimTime::zero() &&
      cfg_.join_retry.count_micros() > 0 && now - join_sent_at_ >= current_join_retry_ &&
      now >= join_backoff_until_) {
    if (cfg_.join_retry_backoff > 1.0) {
      // Jittered exponential backoff for the NEXT retry: grow by the
      // factor, cap, then spread ±10% from the bot's own seeded stream so
      // a fleet reconnecting to a restarted server doesn't self-synchronize.
      double next = static_cast<double>(current_join_retry_.count_micros()) *
                    cfg_.join_retry_backoff;
      next = std::min(next, static_cast<double>(cfg_.join_retry_max.count_micros()));
      next *= 0.9 + 0.2 * rng_.next_double();
      current_join_retry_ = SimDuration::micros(static_cast<std::int64_t>(next));
    }
    connect();  // the JoinRequest or its ack was lost (or refused; backoff over)
  }
  if (joined_ && cfg_.liveness_timeout.count_micros() > 0 &&
      last_rx_ != SimTime::zero() && now - last_rx_ > cfg_.liveness_timeout) {
    // Dead silence long past the keep-alive cadence: the session is gone
    // (server timed us out, or we crashed past recovery). Rejoin fresh.
    ++liveness_resets_;
    reset_session();
    connect();
  }
}

// ------------------------------------------------------------------ replica

void BotClient::apply(const AnyMessage& msg, const net::Delivery& d) {
  if (d.sent < newest_frame_sent_) ++out_of_order_frames_;
  if (d.sent > newest_frame_sent_) newest_frame_sent_ = d.sent;
  // Closest distance from this bot to anything the frame updates; used to
  // classify the frame as "nearby" (perceptually relevant) or peripheral.
  double update_dist = -1.0;
  const auto consider = [&](const world::Vec3& p) {
    const double dd = world::distance(p, pos_);
    if (update_dist < 0.0 || dd < update_dist) update_dist = dd;
  };
  if (const auto* mv = std::get_if<protocol::EntityMove>(&msg)) {
    consider(mv->pos);
  } else if (const auto* batch = std::get_if<protocol::EntityMoveBatch>(&msg)) {
    for (const auto& m : batch->moves) consider(m.pos);
  } else if (const auto* bc = std::get_if<protocol::BlockChange>(&msg)) {
    consider(bc->pos.center());
  } else if (const auto* mbc = std::get_if<protocol::MultiBlockChange>(&msg)) {
    for (const auto& e : mbc->entries) {
      consider(world::BlockPos{mbc->chunk.x * world::kChunkSize + e.x, e.y,
                               mbc->chunk.z * world::kChunkSize + e.z}
                   .center());
    }
  }
  if (update_dist >= 0.0 && d.frame.trace_origin != SimTime::zero()) {
    const double ms =
        static_cast<double>((d.arrival - d.frame.trace_origin).count_micros()) / 1000.0;
    update_latency_ms_.add(ms);
    if (update_dist <= kNearDistance) near_update_latency_ms_.add(ms);
  }

  if (const auto* ack = std::get_if<protocol::JoinAck>(&msg)) {
    joined_ = true;
    self_ = ack->self_id;
    pos_ = ack->spawn;
    current_join_retry_ = cfg_.join_retry;  // backoff ends with the outage
    // A (re)join starts a fresh server-side sequence: rebase the gap
    // detector so old-session numbering doesn't read as loss.
    rx_seq_ = d.frame.seq;
    missing_.clear();
    pending_resync_ = false;
    if (cfg_.home == Vec3{}) cfg_.home = pos_;
    pick_waypoint();
    next_action_ = clock_.now() + SimDuration::micros(static_cast<std::int64_t>(
                                      rng_.next_double() *
                                      static_cast<double>(cfg_.action_interval.count_micros())));
  } else if (const auto* ref = std::get_if<protocol::JoinRefused>(&msg)) {
    // Admission control turned us away (DESIGN.md §10): honor the server's
    // suggested backoff before the join-retry loop tries again.
    ++join_refusals_;
    const SimDuration wait = SimDuration::millis(
        ref->retry_after_ms > 0 ? static_cast<std::int64_t>(ref->retry_after_ms) : 1000);
    join_backoff_until_ = d.arrival + wait;
  } else if (const auto* cd = std::get_if<protocol::ChunkData>(&msg)) {
    loaded_chunks_.insert(cd->pos);
    // Always exercise the decode path; keep the result only when replicating.
    if (replica_world_ != nullptr) {
      if (!replica_world_->chunk_at(cd->pos).decode_rle(cd->rle.data(), cd->rle.size())) {
        ++decode_failures_;
      }
    } else if (!decode_scratch().decode_rle(cd->rle.data(), cd->rle.size())) {
      ++decode_failures_;
    }
    // A fresh snapshot obsoletes any deltas we were tracking in the chunk.
    for (auto it = block_deltas_.begin(); it != block_deltas_.end();) {
      it = ChunkPos::of_block(it->first) == cd->pos ? block_deltas_.erase(it) : ++it;
    }
  } else if (const auto* uc = std::get_if<protocol::UnloadChunk>(&msg)) {
    loaded_chunks_.erase(uc->pos);
    if (replica_world_ != nullptr) replica_world_->unload_chunk(uc->pos);
    for (auto it = block_deltas_.begin(); it != block_deltas_.end();) {
      it = ChunkPos::of_block(it->first) == uc->pos ? block_deltas_.erase(it) : ++it;
    }
  } else if (const auto* bc = std::get_if<protocol::BlockChange>(&msg)) {
    apply_block(bc->pos, bc->block);
  } else if (const auto* mbc = std::get_if<protocol::MultiBlockChange>(&msg)) {
    for (const auto& e : mbc->entries) {
      apply_block({mbc->chunk.x * world::kChunkSize + e.x, e.y,
                   mbc->chunk.z * world::kChunkSize + e.z},
                  e.block);
    }
  } else if (const auto* sp = std::get_if<protocol::EntitySpawn>(&msg)) {
    if (sp->id != self_) {
      const auto it = replica_entities_.find(sp->id);
      if (it != replica_entities_.end() && d.sent < it->second.last_update_sent) {
        // A reordered transport delivered an old spawn after a newer move.
        ++stale_moves_rejected_;
      } else {
        replica_entities_[sp->id] = {sp->kind,  sp->pos,  sp->yaw, sp->pitch,
                                     sp->name,  sp->data, d.sent};
      }
    }
  } else if (const auto* inv = std::get_if<protocol::InventoryUpdate>(&msg)) {
    inventory_[inv->item] = inv->count;
  } else if (const auto* dsp = std::get_if<protocol::EntityDespawn>(&msg)) {
    replica_entities_.erase(dsp->id);
  } else if (const auto* mv = std::get_if<protocol::EntityMove>(&msg)) {
    apply_entity_move(*mv, d.sent);
  } else if (const auto* batch = std::get_if<protocol::EntityMoveBatch>(&msg)) {
    for (const auto& m : batch->moves) apply_entity_move(m, d.sent);
  } else if (const auto* ka = std::get_if<protocol::KeepAlive>(&msg)) {
    send(protocol::KeepAliveReply{ka->nonce});
  } else if (std::get_if<protocol::ChatBroadcast>(&msg) != nullptr) {
    ++chats_seen_;
  } else if (const auto* back = std::get_if<protocol::TickBarrierAck>(&msg)) {
    ++barrier_acks_;
    last_barrier_ack_ = back->tick;
  } else if (std::get_if<protocol::ResyncAck>(&msg) != nullptr) {
    ++resync_acks_;
    // The ack closes the server's refresh: everything it still counts as
    // known was just re-sent with this frame's send time. Replica entities
    // strictly older were never confirmed — despawns lost on the wire;
    // drop the ghosts.
    for (auto it = replica_entities_.begin(); it != replica_entities_.end();) {
      if (it->second.last_update_sent < d.sent) {
        ++replica_pruned_;
        it = replica_entities_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void BotClient::apply_entity_move(const protocol::EntityMove& m, SimTime sent) {
  if (m.id == self_) return;  // server echo of ourselves (shouldn't happen)
  const auto it = replica_entities_.find(m.id);
  if (it == replica_entities_.end()) {
    // A queued move can legitimately arrive after the despawn that removed
    // the entity from our replica; ignore it.
    ++unknown_entity_updates_;
    return;
  }
  if (sent < it->second.last_update_sent) {
    // Reordered transport delivered an older position after a newer one;
    // applying it would rubber-band the entity backwards.
    ++stale_moves_rejected_;
    return;
  }
  it->second.last_update_sent = sent;
  it->second.pos = m.pos;
  it->second.yaw = m.yaw;
  it->second.pitch = m.pitch;
  ++updates_applied_;
}

void BotClient::apply_block(const BlockPos& pos, world::Block b) {
  block_deltas_[pos] = b;
  if (replica_world_ != nullptr && loaded_chunks_.count(ChunkPos::of_block(pos)) > 0) {
    replica_world_->set_block(pos, b);
  }
  ++updates_applied_;
}

std::optional<world::Block> BotClient::replica_block(const BlockPos& pos) const {
  if (replica_world_ != nullptr && loaded_chunks_.count(ChunkPos::of_block(pos)) > 0) {
    return replica_world_->block_if_loaded(pos);
  }
  const auto it = block_deltas_.find(pos);
  if (it != block_deltas_.end()) return it->second;
  return std::nullopt;
}

// ----------------------------------------------------------------- behavior

std::uint32_t BotClient::inventory_total() const {
  std::uint32_t n = 0;
  for (const auto& [item, count] : inventory_) n += count;
  return n;
}

void BotClient::set_home(const Vec3& home, double radius) {
  cfg_.home = home;
  cfg_.wander_radius = radius;
  if (joined_) pick_waypoint();
}

void BotClient::pick_waypoint() {
  const double r = cfg_.wander_radius * std::sqrt(rng_.next_double());
  const double a = rng_.next_double() * 2.0 * 3.14159265358979323846;
  waypoint_ = {cfg_.home.x + r * std::cos(a), 0.0, cfg_.home.z + r * std::sin(a)};
  blocked_ticks_ = 0;
}

void BotClient::walk() {
  if (cfg_.kind == BehaviorKind::Idle) return;
  Vec3 next;
  const auto res = entity::step_toward(truth_, pos_, waypoint_, cfg_.speed, 0.05, next);
  if (res.blocked) {
    if (++blocked_ticks_ >= 8) pick_waypoint();
  }
  if (res.moved) {
    const Vec3 d = next - pos_;
    const float yaw =
        static_cast<float>(std::atan2(-d.x, d.z) * 180.0 / 3.14159265358979323846);
    pos_ = next;
    send(protocol::PlayerMove{pos_, yaw < 0 ? yaw + 360.0f : yaw, 0.0f});
  }
  if (world::horizontal_distance(pos_, waypoint_) < 1.5) pick_waypoint();
}

void BotClient::act() {
  if (rng_.chance(cfg_.chat_prob)) {
    send(protocol::ChatSend{"o/ from " + name_});
  }
  switch (cfg_.kind) {
    case BehaviorKind::Idle:
    case BehaviorKind::Walk:
      break;
    case BehaviorKind::Build: {
      // Modify the column a couple of blocks away in the walking direction.
      const std::int32_t dx = static_cast<std::int32_t>(rng_.next_in(-3, 3));
      const std::int32_t dz = static_cast<std::int32_t>(rng_.next_in(-3, 3));
      const std::int32_t x = static_cast<std::int32_t>(std::floor(pos_.x)) + dx;
      const std::int32_t z = static_cast<std::int32_t>(std::floor(pos_.z)) + dz;
      const int ground = truth_.surface_height(x, z);

      if (cfg_.survival) {
        // Survival loop: place what we hold, otherwise go get materials —
        // walk to a visible dropped item, or dig for more.
        world::Block held = world::Block::Air;
        for (const auto& [item, count] : inventory_) {
          if (count > 0) {
            held = item;
            break;
          }
        }
        if (held != world::Block::Air) {
          if (ground + 1 < world::kWorldHeight - 1) {
            send(protocol::PlayerPlace{{x, ground + 1, z}, held});
          }
        } else {
          for (const auto& [id, rep] : replica_entities_) {
            if (rep.kind == entity::EntityKind::Item &&
                world::distance(rep.pos, pos_) < 24.0) {
              waypoint_ = rep.pos;  // go collect it
              break;
            }
          }
          if (ground >= 1) send(protocol::PlayerDig{{x, ground, z}});
        }
        break;
      }

      if (rng_.chance(cfg_.place_prob)) {
        if (ground + 1 < world::kWorldHeight - 1) {
          send(protocol::PlayerPlace{{x, ground + 1, z},
                                     rng_.chance(0.5) ? world::Block::Planks
                                                      : world::Block::Cobblestone});
        }
      } else if (ground >= 1) {  // y=0 is bedrock: never diggable
        send(protocol::PlayerDig{{x, ground, z}});
      }
      break;
    }
    case BehaviorKind::Mine: {
      // Dig a staircase: the surface block one step ahead toward the waypoint.
      const Vec3 dir = (waypoint_ - pos_).normalized();
      const std::int32_t x = static_cast<std::int32_t>(std::floor(pos_.x + dir.x * 2.0));
      const std::int32_t z = static_cast<std::int32_t>(std::floor(pos_.z + dir.z * 2.0));
      const int ground = truth_.surface_height(x, z);
      if (ground >= 1) send(protocol::PlayerDig{{x, ground, z}});
      break;
    }
  }
}

}  // namespace dyconits::bots
