// Cross-instance federation: multiple GameServer instances host one shared
// world, split into X-axis stripes, and keep each other's boundary bands
// consistent through a second, server-to-server dyconit layer.
//
// This implements the paper's motivating gap ("Minecraft-like games only
// scale using isolated instances") as the natural extension of its own
// mechanism: the peer server is just another subscriber with inconsistency
// bounds — conits' original wide-area setting. Per direction A->B the
// federation runs its own DyconitSystem whose single subscriber is B;
// every update A's game makes inside the boundary band is enqueued there,
// coalesced, and flushed under the federation bounds onto a peer link of
// the simulated network. The receiving side applies block changes to its
// replica stripe and maintains *mirror entities* for remote players/mobs,
// which then fan out to its local players through the ordinary dispatch
// path.
//
// Scope (documented in DESIGN.md): state mirroring only — each player's
// authority stays with its home server; edits outside a server's stripe
// are rejected (ServerConfig::owns_chunk). Mirrors expire if unseen for
// mirror_ttl (covers remote despawns without a tombstone protocol).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "server/game_server.h"

namespace dyconits::federation {

struct FederationConfig {
  /// Chunks on each side of a stripe boundary that are mirrored.
  int band_chunks = 8;
  /// Inconsistency bounds for the server-to-server subscriptions. WAN-ish
  /// defaults: tighter than far-player bounds, looser than near-player.
  dyconit::Bounds peer_bounds{SimDuration::millis(100), 4.0};
  /// Peer link characteristics (often a different network than clients').
  net::LinkParams peer_link{SimDuration::millis(10), 0.0};
  /// Unseen mirrors are removed after this long.
  SimDuration mirror_ttl = SimDuration::seconds(5);
};

/// Two federated servers: `left` owns chunks with x < 0, `right` owns
/// x >= 0. (N-way striping reuses Link per adjacent pair; two servers keep
/// the demonstration and tests sharp.)
class Federation {
 public:
  Federation(SimClock& clock, net::SimNetwork& net, server::GameServer& left,
             server::GameServer& right, FederationConfig cfg = {});
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// One federation tick: flush due peer queues in both directions and
  /// apply everything that arrived. Call once per game tick, after both
  /// servers ticked.
  void tick();

  /// Forces everything queued toward either peer onto the wire (shutdown,
  /// snapshots, convergence checks). Delivery still takes the peer link's
  /// latency: keep ticking to drain.
  void flush_all();

  // -- introspection --
  std::uint64_t peer_updates_enqueued() const;
  std::uint64_t peer_updates_coalesced() const;
  std::uint64_t peer_frames_sent() const;
  std::uint64_t peer_bytes_sent() const;
  std::size_t mirrors_on(const server::GameServer& server) const;

  static bool left_owns(world::ChunkPos c) { return c.x < 0; }

 private:
  /// One direction of the peer relationship (src server -> dst server).
  struct Direction : dyconit::FlushSink {
    Direction(SimClock& clock, net::SimNetwork& net, server::GameServer& src,
              server::GameServer& dst, const FederationConfig& cfg, bool src_is_left);

    // FlushSink: pack flushed updates into frames on the peer link.
    void deliver(dyconit::SubscriberId to, std::uint64_t batch,
                 const std::vector<FlushedUpdate>& updates) override;

    /// Tap installed into src: enqueue band updates toward the peer.
    void on_src_update(const protocol::AnyMessage& msg, double weight,
                       std::uint64_t key, world::ChunkPos chunk,
                       entity::EntityKind kind);

    /// Drain the peer endpoint and apply to dst.
    void receive_and_apply(SimTime now);

    void expire_mirrors(SimTime now);

    bool in_band(world::ChunkPos c) const;

    SimClock& clock;
    net::SimNetwork& net;
    server::GameServer& src;
    server::GameServer& dst;
    const FederationConfig& cfg;
    bool src_is_left;

    net::EndpointId src_ep = net::kInvalidEndpoint;  // src's uplink to dst
    net::EndpointId dst_ep = net::kInvalidEndpoint;  // dst's inbox
    dyconit::DyconitSystem system;
    static constexpr dyconit::SubscriberId kPeer = 1;

    /// Remote entity id (src id space) -> mirror entity id on dst, plus
    /// last-seen time for TTL expiry.
    struct Mirror {
      entity::EntityId local = entity::kInvalidEntity;
      SimTime last_seen;
    };
    std::unordered_map<entity::EntityId, Mirror> mirrors;
  };

  FederationConfig cfg_;
  std::unique_ptr<Direction> left_to_right_;
  std::unique_ptr<Direction> right_to_left_;
  server::GameServer& left_;
  server::GameServer& right_;
};

}  // namespace dyconits::federation
