// The MVE game server: a 20 Hz tick loop over player sessions, chunk
// streaming, interest management, and state-update dispatch. The dispatch
// path is the integration point of the paper: with use_dyconits=false every
// update is serialized and sent at the update site (the unmodified game);
// with use_dyconits=true the same call sites hand updates to the
// DyconitSystem and the server's FlushSink packs flushed batches into
// protocol frames on the existing network stack.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dyconit/policy.h"
#include "dyconit/system.h"
#include "entity/registry.h"
#include "metrics/metrics.h"
#include "net/shared_frame.h"
#include "net/transport.h"
#include "protocol/codec.h"
#include "server/config.h"
#include "trace/tick_profiler.h"
#include "util/id_set.h"
#include "util/rng.h"
#include "util/stats.h"
#include "world/world.h"

namespace dyconits::server {

using dyconit::SubscriberId;

class GameServer final : public dyconit::FlushSink {
 public:
  /// `policy` may be null only when cfg.use_dyconits is false. `net` is any
  /// Transport backend: the SimNetwork oracle in-process, UdpTransport for
  /// real deployments (DESIGN.md §12). Sim-only capabilities (remote-inbox
  /// backpressure, fault stats) are queried, never assumed.
  GameServer(SimClock& clock, net::Transport& net, world::World& world,
             std::unique_ptr<dyconit::Policy> policy, ServerConfig cfg);
  ~GameServer() override;

  GameServer(const GameServer&) = delete;
  GameServer& operator=(const GameServer&) = delete;

  net::EndpointId endpoint() const { return endpoint_; }

  /// Runs one full game tick at the current simulated time: drains inbound
  /// messages, applies actions, dispatches updates, streams chunks, flushes
  /// due dyconit queues, and runs the policy. Measures its own CPU time.
  void tick();

  /// Force-disconnects a player (drops session, despawns entity, notifies
  /// viewers). Used by tests/examples; timeouts call it internally.
  void disconnect(SubscriberId sub);

  // -- FlushSink --
  void deliver(SubscriberId to, std::uint64_t batch,
               const std::vector<FlushedUpdate>& updates) override;
  void request_snapshot(SubscriberId to, const dyconit::DyconitId& unit) override;

  // -- introspection --
  std::size_t player_count() const { return sessions_.size(); }
  const entity::EntityRegistry& entities() const { return registry_; }
  world::World& world() { return world_; }
  dyconit::DyconitSystem& dyconits() { return dyconits_; }
  const dyconit::Stats& dyconit_stats() const { return dyconits_.stats(); }
  dyconit::Policy* policy() { return policy_.get(); }
  const ServerConfig& config() const { return cfg_; }

  /// Wall-clock CPU time of each tick() call, in milliseconds.
  const Samples& tick_cpu_ms() const { return tick_cpu_ms_; }
  Samples& tick_cpu_ms() { return tick_cpu_ms_; }
  SimDuration last_tick_cpu() const { return last_tick_cpu_; }
  std::uint64_t tick_count() const { return tick_number_; }

  /// Per-phase tick cost breakdown, fed by the TRACE_SCOPE spans inside
  /// tick(). Reset it to scope the report to a measurement window.
  trace::TickProfiler& profiler() { return profiler_; }
  const trace::TickProfiler& profiler() const { return profiler_; }

  /// Entity id of a connected player, kInvalidEntity if unknown.
  entity::EntityId entity_of(SubscriberId sub) const;
  /// Smoothed keep-alive RTT of a player; zero until measured.
  SimDuration rtt_of(SubscriberId sub) const;
  /// Positions of all connected players (policy views).
  std::vector<dyconit::PlayerView> player_views() const;

  /// Inventory count of one item for a connected player (0 if unknown).
  std::uint32_t inventory_of(SubscriberId sub, world::Block item) const;

  std::uint64_t keepalives_sent() const { return keepalives_sent_; }
  std::uint64_t sessions_timed_out() const { return sessions_timed_out_; }
  std::uint64_t items_dropped() const { return items_dropped_; }
  std::uint64_t items_picked_up() const { return items_picked_up_; }
  std::uint64_t items_expired() const { return items_expired_; }
  /// Dirt-to-grass regrowths applied by tick_environment().
  std::uint64_t env_changes() const { return env_changes_; }

  // -- fault/recovery introspection (DESIGN.md §8) --
  std::uint64_t resyncs_served() const { return resyncs_served_; }
  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t malformed_frames() const { return malformed_frames_; }
  std::uint64_t client_gap_frames() const { return client_gap_frames_; }

  // -- wire-equivalence introspection (DESIGN.md §12) --
  /// Per-session application-stream digests, keyed by player name (endpoint
  /// ids are backend-local; names survive the sim/UDP comparison). Empty
  /// unless cfg.hash_streams. Sorted by name.
  struct SessionStreamHash {
    std::string name;
    std::uint64_t egress_hash = 0;
    std::uint64_t egress_frames = 0;
    std::uint64_t ingress_hash = 0;
    std::uint64_t ingress_frames = 0;
  };
  std::vector<SessionStreamHash> session_stream_hashes() const;

  // -- overload introspection (DESIGN.md §10) --
  const OverloadStats& overload_stats() const { return overload_stats_; }
  /// Transport-wide send-pressure counters (all-zero on backends without
  /// send visibility, i.e. the sim). Surfaces the EAGAIN/retry/congestion
  /// ledger the UDP path keeps per peer (DESIGN.md §13).
  net::SendPressure transport_pressure() const {
    return net_.send_pressure(net::kInvalidEndpoint);
  }
  /// Current degradation-ladder rung (0 = Normal).
  int overload_rung() const { return ladder_.rung(); }
  /// Bytes / frames currently staged in one subscriber's egress queue
  /// (0 for unknown subscribers). Bounded by OverloadConfig::queue_cap_*.
  std::size_t egress_queue_bytes(SubscriberId sub) const;
  std::size_t egress_queue_frames(SubscriberId sub) const;

 private:
  struct Session {
    SubscriberId id = 0;
    net::EndpointId endpoint = net::kInvalidEndpoint;
    entity::EntityId entity = entity::kInvalidEntity;
    std::string name;
    world::ChunkPos interest_center;
    std::unordered_set<world::ChunkPos> interest;        // chunks in view
    /// unit -> #interest chunks referencing it, and the held subscription
    /// retunes go through (no lookups).
    struct UnitRef {
      int refs = 0;
      dyconit::Subscription sub;
    };
    std::unordered_map<dyconit::DyconitId, UnitRef> unit_refs;
    std::deque<world::ChunkPos> chunk_queue;             // pending ChunkData sends
    std::unordered_set<world::ChunkPos> chunk_queued;    // membership for chunk_queue
    /// Entities this client has been sent a spawn for and no despawn since;
    /// a vanilla move probes it once per viewer.
    util::IdSet<entity::EntityId> known_entities;
    std::unordered_map<world::Block, std::uint32_t> inventory;
    std::uint32_t keepalive_pending = 0;
    SimTime keepalive_sent_at;
    /// Smoothed round-trip time measured from keep-alive replies (zero
    /// until the first reply). Available to policies via PlayerView.
    SimDuration rtt;
    /// Transport sequence numbers (DESIGN.md §8): every frame to this
    /// client is stamped ++out_seq; in_seq is the highest client frame
    /// seen (client->server gaps are counted, not recovered — inputs are
    /// absolute and the next one supersedes the lost).
    std::uint32_t out_seq = 0;
    std::uint32_t in_seq = 0;
    /// Mid-resync: bounds pinned at zero (maximally stale subscriber gets
    /// immediate delivery) until the snapshot chunk queue drains.
    bool resync_tighten = false;
    bool joined = false;
    /// Overload control (DESIGN.md §10): capped server-side staging between
    /// the game and the transport. Once non-empty, every send to this
    /// session appends (order preservation); the drain phase re-sends.
    EgressQueue egress;
    /// Transport inbox + staged bytes above the backlog threshold this
    /// tick. Recomputed once per tick (tick_overload) so the divert
    /// decision is stable across the whole tick.
    bool backlogged = false;
    /// The egress queue had to drop an order-critical frame; the replica
    /// cannot be repaired incrementally, so the session is disconnected at
    /// the next overload phase and resynced on rejoin.
    bool overload_poisoned = false;
    /// Lockstep scripted runs (DESIGN.md §12): the client sent a
    /// TickBarrier this tick; acknowledged as the last frame of the tick.
    bool barrier_armed = false;
    std::uint32_t barrier_tick = 0;
    /// Application-stream digest (ServerConfig::hash_streams): every frame
    /// sent to this session, mixed above the transport — before seq
    /// stamping — so sim and UDP runs are comparable. The ingress
    /// counterpart lives in ingress_hash_by_endpoint_ (frames arrive
    /// before the session exists: the JoinRequest itself is hashed).
    net::WireHasher egress_hash;
  };

  // -- tick phases --
  void process_inbound();
  void tick_mobs();
  void tick_environment();
  void tick_items();
  void dispatch_moved_entities();
  void stream_chunks();
  void send_keepalives();
  void run_policy();
  /// Overload phase (DESIGN.md §10): executes disconnects decided by the
  /// previous watchdog, recomputes per-session backlog flags, and drains
  /// egress queues of recovered subscribers within the per-tick budget.
  void tick_overload();
  /// End of tick, after the modeled cost is known: advances the
  /// degradation ladder and installs/clears per-subscriber shed directives
  /// and the next worst-offender disconnect. Decisions apply next tick.
  void overload_watchdog();
  /// After run_policy: re-derives backlogged subscribers' bounds widened
  /// by OverloadConfig::widen_factor (rung >= WidenBounds). Runs before
  /// the resync re-pin so resync still wins.
  void apply_overload_bounds();
  /// The per-subscriber overload signal: the transport's backlog toward the
  /// session (Transport::pending_bytes; 0 on backends without visibility)
  /// plus the bytes staged in its egress queue.
  std::size_t backlog_bytes(const Session& s) const {
    return net_.pending_bytes(s.endpoint) + s.egress.bytes();
  }
  /// Very last sends of a tick: TickBarrierAck to every session whose
  /// barrier this tick consumed, in ascending session id. On an in-order
  /// transport, a client that has seen ack N owns the complete tick-N
  /// stream — the property the lockstep equivalence driver relies on.
  void send_barrier_acks();

  // -- message handling --
  void handle_join(net::EndpointId from, const protocol::JoinRequest& m);
  void handle_message(Session& s, const protocol::AnyMessage& m);
  void apply_player_move(Session& s, const protocol::PlayerMove& m);
  /// Recovery handshake (DESIGN.md §8): flush owed updates, replay
  /// authoritative state for everything `s` subscribes to, pin bounds at
  /// zero until the snapshot drains, and acknowledge with ResyncAck.
  void begin_resync(Session& s);

  // -- interest management --
  void update_interest(Session& s, bool initial);
  void add_interest_chunk(Session& s, world::ChunkPos c);
  void remove_interest_chunk(Session& s, world::ChunkPos c);
  void retune_session_bounds(Session& s);
  void rebuild_subscriptions();
  void entity_crossed_chunk(entity::Entity& e, world::ChunkPos from, world::ChunkPos to);

  // -- update dispatch (the paper's integration point) --
  void on_block_change(const world::BlockChange& change);
  void dispatch_entity_move(const entity::Entity& e, double weight);

  // -- items --
  void drop_item(const world::BlockPos& pos, world::Block block);
  void pickup_item(Session& s, const entity::Entity& item);
  void despawn_entity_everywhere(entity::EntityId id, world::ChunkPos chunk);
  void announce_spawn(const entity::Entity& e);

  // -- sending --
  /// Flushes due dyconit queues; deliver() packs each batch onto the wire.
  void flush_dyconits();
  /// Subscribes `s` to `unit` on its first reference.
  void ref_unit(Session& s, const dyconit::DyconitId& unit, const world::Vec3& pos);
  /// Encodes `m` and puts it on the wire. With `shared` (a broadcast
  /// fan-out, DESIGN.md §11) the first recipient encodes `m` once into it
  /// and every recipient goes out through Transport::send_shared with its
  /// session seq; callers keep one SharedFrame per fan-out loop.
  void send_to(Session& s, const protocol::AnyMessage& m, SimTime trace_origin = {},
               net::SharedFrame* shared = nullptr);
  /// The overload-aware send gate every session-directed message goes
  /// through: a pass-through to send_to until the session is backlogged or
  /// already has staged frames, after which messages divert into the capped
  /// egress queue (with coalescing). With overload disabled it compiles
  /// down to send_to and the wire output is unchanged.
  void send_or_queue(Session& s, const protocol::AnyMessage& m,
                     SimTime trace_origin = {}, net::SharedFrame* shared = nullptr);
  /// Stages `m` in the egress queue, batch messages decomposed into atomic
  /// ones so coalescing is a per-key replace.
  void enqueue_egress(Session& s, const protocol::AnyMessage& m, SimTime origin);
  /// Re-sends staged frames (oldest first) within the drain budget,
  /// regrouping consecutive moves / same-chunk block ops into batch frames.
  void drain_egress(Session& s);
  void send_entity_spawn(Session& s, const entity::Entity& e);
  const std::string& display_name_of(entity::EntityId id) const;

  Session* session_of(SubscriberId sub);
  Session* session_by_entity(entity::EntityId id);

  SimClock& clock_;
  net::Transport& net_;
  world::World& world_;
  std::unique_ptr<dyconit::Policy> policy_;
  ServerConfig cfg_;

  net::EndpointId endpoint_;
  dyconit::DyconitSystem dyconits_;
  /// Dyconit batches packed since the last flush round ended (deliver):
  /// each distinct batch id is packed once, and its frames are encoded
  /// once (SharedFrame) for every session that takes it. packed_batches_
  /// is sorted by id.
  struct PackedFrame {
    protocol::AnyMessage msg;
    SimTime origin;
    net::SharedFrame shared;
  };
  struct PackedBatch {
    std::uint64_t id;
    std::size_t begin;  ///< its frames: packed_frames_[begin, end)
    std::size_t end;
  };
  std::vector<PackedFrame> packed_frames_;
  std::vector<PackedBatch> packed_batches_;
  entity::EntityRegistry registry_;

  std::unordered_map<SubscriberId, Session> sessions_;
  /// hash_streams: digest of everything each remote endpoint delivered to
  /// us, from its very first frame (sessions come and go; the client's
  /// egress stream spans the whole process).
  std::unordered_map<net::EndpointId, net::WireHasher> ingress_hash_by_endpoint_;
  std::unordered_map<entity::EntityId, SubscriberId> entity_to_session_;
  std::unordered_map<world::ChunkPos, std::unordered_set<SubscriberId>> viewers_;

  /// Entities that moved during the current tick and the weight (distance)
  /// they accumulated.
  std::unordered_map<entity::EntityId, double> moved_;
  /// Originator of the action currently being applied (excluded from its
  /// own update fan-out).
  SubscriberId current_actor_ = dyconit::kNoSubscriber;

  std::uint64_t tick_number_ = 0;
  SimDuration last_tick_cpu_;
  trace::TickProfiler profiler_;
  Samples tick_cpu_ms_;
  metrics::RateSampler egress_rate_;
  double egress_bytes_per_sec_ = 0.0;
  SimTime last_rate_sample_;
  std::uint64_t keepalives_sent_ = 0;
  std::uint64_t sessions_timed_out_ = 0;
  std::uint64_t resyncs_served_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t malformed_frames_ = 0;
  std::uint64_t client_gap_frames_ = 0;
  std::uint32_t resync_epoch_ = 0;
  int observer_token_ = 0;

  /// Overload control state (DESIGN.md §10). The ladder advances in
  /// overload_watchdog() at end of tick; its decisions apply next tick.
  DegradationLadder ladder_;
  OverloadStats overload_stats_;
  /// Worst offender picked by the last watchdog at rung Disconnect;
  /// executed (and cleared) by the next tick_overload().
  SubscriberId pending_overload_disconnect_ = dyconit::kNoSubscriber;
  std::uint64_t last_overload_disconnect_tick_ = 0;

  struct Mob {
    entity::EntityId id = entity::kInvalidEntity;
    world::Vec3 waypoint;
    SimTime next_waypoint;
  };
  std::vector<Mob> mobs_;
  Rng mob_rng_{1};

  struct DroppedItem {
    entity::EntityId id = entity::kInvalidEntity;
    SimTime expires;
  };
  std::vector<DroppedItem> items_;
  std::uint64_t items_dropped_ = 0;
  std::uint64_t items_picked_up_ = 0;
  std::uint64_t items_expired_ = 0;

  /// Chunks eligible for environmental ticks (watched by someone); lazily
  /// rebuilt from viewers_ every couple of seconds.
  std::vector<world::ChunkPos> active_chunks_;
  std::uint64_t active_chunks_built_at_tick_ = 0;
  std::uint64_t env_changes_ = 0;
};

}  // namespace dyconits::server
