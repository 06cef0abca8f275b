#include "federation/federation.h"

#include <cmath>

#include "util/log.h"

namespace dyconits::federation {

using dyconit::DyconitId;
using dyconit::Update;
using protocol::AnyMessage;
using world::ChunkPos;

Federation::Direction::Direction(SimClock& clock_in, net::SimNetwork& net_in,
                                 server::GameServer& src_in, server::GameServer& dst_in,
                                 const FederationConfig& cfg_in, bool src_is_left_in)
    : clock(clock_in),
      net(net_in),
      src(src_in),
      dst(dst_in),
      cfg(cfg_in),
      src_is_left(src_is_left_in),
      system(clock_in) {
  src_ep = net.create_endpoint(src_is_left ? "fed:left->right" : "fed:right->left");
  dst_ep = net.create_endpoint(src_is_left ? "fed:right<-left" : "fed:left<-right");
  net.connect(src_ep, dst_ep, cfg.peer_link);
}

bool Federation::Direction::in_band(ChunkPos c) const {
  // Distance of the chunk to the x=0 stripe boundary, on the src side.
  if (src_is_left) return c.x < 0 && c.x >= -cfg.band_chunks;
  return c.x >= 0 && c.x < cfg.band_chunks;
}

void Federation::Direction::on_src_update(const AnyMessage& msg, double weight,
                                          std::uint64_t key, ChunkPos chunk,
                                          entity::EntityKind kind) {
  if (!in_band(chunk)) return;
  // The peer is one subscriber of a per-chunk unit in this direction's own
  // dyconit system; block and entity domains stay separate so their bounds
  // could diverge if configured to.
  const DyconitId unit = std::holds_alternative<protocol::EntityMove>(msg)
                             ? DyconitId::chunk_entities(chunk)
                             : DyconitId::chunk_blocks(chunk);
  if (system.find(unit) == nullptr) {
    system.subscribe(unit, kPeer, cfg.peer_bounds);
  }
  Update u;
  u.msg = msg;
  u.weight = weight;
  u.created = clock.now();
  u.coalesce_key = key;
  system.update(unit, std::move(u));
  static_cast<void>(kind);  // mirrors default to the kind sent in spawn census
}

void Federation::Direction::deliver(dyconit::SubscriberId, std::uint64_t,
                                    const std::vector<FlushedUpdate>& updates) {
  // Pack like the game server does: moves into one batch frame.
  std::vector<protocol::EntityMove> moves;
  SimTime origin = SimTime::zero();
  for (const auto& u : updates) {
    if (const auto* mv = std::get_if<protocol::EntityMove>(u.msg)) {
      if (moves.empty() || u.created < origin) origin = u.created;
      moves.push_back(*mv);
    } else {
      net::Frame f = protocol::encode(*u.msg);
      f.trace_origin = u.created;
      net.send(src_ep, dst_ep, std::move(f));
    }
  }
  if (!moves.empty()) {
    net::Frame f = moves.size() == 1
                       ? protocol::encode(AnyMessage{moves.front()})
                       : protocol::encode(AnyMessage{
                             protocol::EntityMoveBatch{std::move(moves)}});
    f.trace_origin = origin;
    net.send(src_ep, dst_ep, std::move(f));
  }
}

void Federation::Direction::receive_and_apply(SimTime now) {
  const auto apply_move = [&](const protocol::EntityMove& mv) {
    auto [it, inserted] = mirrors.try_emplace(mv.id);
    if (inserted) {
      // First sighting: materialize a mirror. Kind/data come from an
      // in-process peek at the peer (a real deployment would carry them in
      // a spawn census message; the wire cost would be one-off and tiny).
      const entity::Entity* remote = src.entities().find(mv.id);
      const entity::EntityKind kind =
          remote != nullptr ? remote->kind : entity::EntityKind::Player;
      it->second.local =
          dst.spawn_external_entity(kind, mv.pos, remote != nullptr ? remote->data : 0,
                                    "remote:" + std::to_string(mv.id));
    } else {
      const entity::Entity* local = dst.entities().find(it->second.local);
      const double weight =
          local != nullptr ? world::distance(local->pos, mv.pos) : 0.0;
      dst.move_external_entity(it->second.local, mv.pos, mv.yaw, mv.pitch, weight);
    }
    it->second.last_seen = now;
  };

  for (const net::Delivery& d : net.poll(dst_ep)) {
    const auto msg = protocol::decode(d.frame);
    if (!msg.has_value()) {
      Log::warn("federation: malformed peer frame");
      continue;
    }
    if (const auto* bc = std::get_if<protocol::BlockChange>(&*msg)) {
      dst.apply_external_block(bc->pos, bc->block);
    } else if (const auto* mv = std::get_if<protocol::EntityMove>(&*msg)) {
      apply_move(*mv);
    } else if (const auto* batch = std::get_if<protocol::EntityMoveBatch>(&*msg)) {
      for (const auto& mv : batch->moves) apply_move(mv);
    }
  }
}

void Federation::Direction::expire_mirrors(SimTime now) {
  for (auto it = mirrors.begin(); it != mirrors.end();) {
    if (now - it->second.last_seen >= cfg.mirror_ttl) {
      dst.remove_external_entity(it->second.local);
      it = mirrors.erase(it);
    } else {
      ++it;
    }
  }
}

Federation::Federation(SimClock& clock, net::SimNetwork& net, server::GameServer& left,
                       server::GameServer& right, FederationConfig cfg)
    : cfg_(cfg), left_(left), right_(right) {
  left_to_right_ = std::make_unique<Direction>(clock, net, left, right, cfg_, true);
  right_to_left_ = std::make_unique<Direction>(clock, net, right, left, cfg_, false);

  left.set_update_tap([this](const protocol::AnyMessage& msg, double weight,
                             std::uint64_t key, ChunkPos chunk,
                             entity::EntityKind kind) {
    left_to_right_->on_src_update(msg, weight, key, chunk, kind);
  });
  right.set_update_tap([this](const protocol::AnyMessage& msg, double weight,
                              std::uint64_t key, ChunkPos chunk,
                              entity::EntityKind kind) {
    right_to_left_->on_src_update(msg, weight, key, chunk, kind);
  });
}

Federation::~Federation() {
  left_.set_update_tap(nullptr);
  right_.set_update_tap(nullptr);
}

void Federation::tick() {
  for (Direction* d : {left_to_right_.get(), right_to_left_.get()}) {
    d->system.tick(*d);
    d->receive_and_apply(d->clock.now());
    d->expire_mirrors(d->clock.now());
  }
}

void Federation::flush_all() {
  for (Direction* d : {left_to_right_.get(), right_to_left_.get()}) {
    d->system.flush_all(*d);
  }
}

std::uint64_t Federation::peer_updates_enqueued() const {
  return left_to_right_->system.stats().enqueued +
         right_to_left_->system.stats().enqueued;
}

std::uint64_t Federation::peer_updates_coalesced() const {
  return left_to_right_->system.stats().coalesced +
         right_to_left_->system.stats().coalesced;
}

std::uint64_t Federation::peer_frames_sent() const {
  return left_to_right_->net.egress_frames(left_to_right_->src_ep) +
         right_to_left_->net.egress_frames(right_to_left_->src_ep);
}

std::uint64_t Federation::peer_bytes_sent() const {
  return left_to_right_->net.egress_bytes(left_to_right_->src_ep) +
         right_to_left_->net.egress_bytes(right_to_left_->src_ep);
}

std::size_t Federation::mirrors_on(const server::GameServer& server) const {
  if (&server == &right_) return left_to_right_->mirrors.size();
  if (&server == &left_) return right_to_left_->mirrors.size();
  return 0;
}

}  // namespace dyconits::federation
