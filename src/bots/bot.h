// A Yardstick-style bot client: speaks the full protocol, maintains a local
// replica of the world it has been sent (entities always; chunk blocks
// optionally), and drives a behavior (walking, building, mining) that
// generates the update workload. Bots run in-process but communicate with
// the server exclusively through the simulated network, so every byte they
// cause or consume is on the measured wire.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "entity/entity.h"
#include "net/transport.h"
#include "protocol/codec.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"
#include "world/world.h"

namespace dyconits::bots {

enum class BehaviorKind : std::uint8_t { Idle = 0, Walk = 1, Build = 2, Mine = 3 };

const char* behavior_name(BehaviorKind k);

struct BotConfig {
  BehaviorKind kind = BehaviorKind::Walk;
  /// Walking speed in blocks/second (Minecraft sprint ~5.6, walk ~4.3).
  double speed = 4.3;
  /// Interval between behavior decisions (digs/places/chats).
  SimDuration action_interval = SimDuration::millis(400);
  /// Waypoints are drawn from a disc of this radius around `home`.
  double wander_radius = 80.0;
  world::Vec3 home{};
  /// Build behavior: probability a build action places (vs digs).
  double place_prob = 0.55;
  /// Probability of sending a chat line per action.
  double chat_prob = 0.005;
  /// Keep a full block replica (memory-heavy; tests and small runs only).
  bool keep_chunk_replica = false;
  /// Survival economy: builders place only what their inventory holds and
  /// dig otherwise; they also walk to visible dropped items to collect
  /// them. Set when the server runs survival_mode.
  bool survival = false;

  // -- fault recovery (DESIGN.md §8) --
  /// Re-send JoinRequest if no JoinAck arrived within this window (the
  /// request or its ack was lost). Zero disables retries.
  SimDuration join_retry = SimDuration::seconds(2);
  /// Reconnect backoff: every unanswered JoinRequest multiplies the retry
  /// interval by this factor with ±10% jitter from the bot's seeded RNG,
  /// capped at join_retry_max — a restarting server isn't met by N clients
  /// hammering in lockstep. Exactly 1.0 keeps the legacy fixed interval
  /// and draws NOTHING from the RNG, so deterministic suites replay
  /// unchanged. Reset on JoinAck and reset_session().
  double join_retry_backoff = 1.0;
  SimDuration join_retry_max = SimDuration::seconds(8);
  /// Dead-server detector: if a joined bot hears nothing at all for this
  /// long (keep-alives come every ~5 s), assume the session is gone and
  /// rejoin from scratch. Zero disables.
  SimDuration liveness_timeout = SimDuration::seconds(30);

  /// Digest the application-level byte stream this bot sends and receives
  /// (tag + payload, above the transport) — the client half of the UDP/sim
  /// wire-equivalence check (DESIGN.md §12).
  bool hash_streams = false;
};

struct ReplicaEntity {
  entity::EntityKind kind = entity::EntityKind::Player;
  world::Vec3 pos;
  float yaw = 0, pitch = 0;
  std::string name;
  std::uint16_t data = 0;  // item entities: dropped Block id
  /// Server send time of the newest applied move; guards against applying
  /// stale positions when the transport reorders (order-error protection).
  SimTime last_update_sent;
};

class BotClient {
 public:
  /// `truth` is the server world, used only for walking kinematics (ground
  /// height); all state the bot *reacts to* comes from its replica. `net`
  /// is any Transport backend (the sim in-process, UDP across processes).
  BotClient(SimClock& clock, net::Transport& net, world::World& truth,
            net::EndpointId server, std::string name, std::uint64_t seed, BotConfig cfg);

  /// Sends the JoinRequest. The network link must already exist.
  void connect();

  /// Forgets the session and replica (used after a server-side disconnect);
  /// call connect() again to rejoin as a fresh session.
  void reset_session();

  /// One client tick: drain inbound, update replica, walk, act.
  void tick();

  /// The inbound half of tick() alone: drain deliveries, update the
  /// replica, run gap/resync/liveness bookkeeping — no walking or actions.
  /// The lockstep scripted driver calls this while blocked waiting for a
  /// TickBarrierAck, where behavior must not run (DESIGN.md §12).
  void poll_inbound();

  // -- lockstep scripted runs (DESIGN.md §12) --
  /// Sends TickBarrier{tick}; the server replies TickBarrierAck as the last
  /// frame of the tick that consumed it.
  void send_barrier(std::uint32_t tick);
  std::uint64_t barrier_acks_seen() const { return barrier_acks_; }
  std::uint32_t last_barrier_ack() const { return last_barrier_ack_; }

  /// Application-stream digests (BotConfig::hash_streams): everything this
  /// bot sent / received, hashed above the transport.
  const net::WireHasher& egress_hash() const { return egress_hash_; }
  const net::WireHasher& ingress_hash() const { return ingress_hash_; }

  bool joined() const { return joined_; }
  const std::string& name() const { return name_; }
  net::EndpointId endpoint() const { return endpoint_; }
  entity::EntityId self() const { return self_; }
  world::Vec3 pos() const { return pos_; }

  /// Redirects the bot mid-run (the E7 load-spike scenario: everyone
  /// converges on the village).
  void set_home(const world::Vec3& home, double radius);

  /// Paused bots stop walking/acting but keep polling and replying to
  /// keep-alives — used to quiesce a simulation before convergence checks.
  void set_paused(bool paused) { paused_ = paused; }
  bool paused() const { return paused_; }
  /// Stalled bots stop entirely — no polling, no sends — modeling a frozen
  /// client or saturated last-mile link. The server-side inbox grows until
  /// overload control isolates the subscriber (DESIGN.md §10).
  void set_stalled(bool stalled) { stalled_ = stalled; }
  bool stalled() const { return stalled_; }
  /// Behavior-rate multiplier: actions fire every action_interval / scale.
  /// The overload schedule's `spam` directive multiplies offered load with
  /// this mid-run; 1.0 restores the configured cadence.
  void set_action_scale(double scale) { action_scale_ = scale > 0.0 ? scale : 1.0; }
  double action_scale() const { return action_scale_; }
  const BotConfig& config() const { return cfg_; }

  /// Asks for a server resync on the next tick (tests force a final
  /// catch-up this way; gap detection sets the same flag internally).
  void request_resync() { pending_resync_ = true; }

  // -- replica --
  const std::unordered_map<entity::EntityId, ReplicaEntity>& replica_entities() const {
    return replica_entities_;
  }
  /// Block as this client believes it to be: from the full chunk replica if
  /// kept, else from the delta map; nullopt if never told.
  std::optional<world::Block> replica_block(const world::BlockPos& pos) const;
  const world::World* replica_world() const { return replica_world_.get(); }
  std::size_t loaded_chunk_count() const { return loaded_chunks_.size(); }

  /// Inventory as last told by the server (survival mode).
  const std::unordered_map<world::Block, std::uint32_t>& inventory() const {
    return inventory_;
  }
  std::uint32_t inventory_total() const;

  // -- measurements --
  /// End-to-end latency (ms) of entity-move and block-change updates, from
  /// server-side event creation to client arrival (via frame trace origin).
  Samples& update_latency_ms() { return update_latency_ms_; }
  const Samples& update_latency_ms() const { return update_latency_ms_; }

  /// Same, restricted to *nearby* updates (within kNearDistance blocks of
  /// this bot) — the updates a player actually perceives, and the paper's
  /// "without increasing game latency" claim.
  Samples& near_update_latency_ms() { return near_update_latency_ms_; }
  const Samples& near_update_latency_ms() const { return near_update_latency_ms_; }
  static constexpr double kNearDistance = 32.0;  // 2 chunks

  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t updates_applied() const { return updates_applied_; }
  std::uint64_t unknown_entity_updates() const { return unknown_entity_updates_; }
  std::uint64_t decode_failures() const { return decode_failures_; }
  std::uint64_t chats_seen() const { return chats_seen_; }
  /// Order error observed on the wire (frames arriving behind a newer one)
  /// and the stale entity moves the replica refused to apply because of it.
  /// Both are zero on FIFO (TCP-like) links.
  std::uint64_t out_of_order_frames() const { return out_of_order_frames_; }
  std::uint64_t stale_moves_rejected() const { return stale_moves_rejected_; }

  // -- fault recovery counters (DESIGN.md §8) --
  /// Transport sequence gaps observed (missing server frames, including
  /// transient reorder holes that later filled).
  std::uint64_t gaps_detected() const { return gaps_detected_; }
  std::uint64_t resyncs_requested() const { return resyncs_requested_; }
  std::uint64_t resync_acks_seen() const { return resync_acks_; }
  /// Duplicate or already-superseded frames (loss-free runs: zero on FIFO).
  std::uint64_t dup_or_old_frames() const { return dup_or_old_frames_; }
  /// Ghost replica entities removed at resync (despawns lost on the wire).
  std::uint64_t replica_pruned() const { return replica_pruned_; }
  std::uint64_t liveness_resets() const { return liveness_resets_; }
  /// JoinRequests the server refused under overload (DESIGN.md §10). The
  /// bot backs off for the server-suggested interval before retrying.
  std::uint64_t join_refusals() const { return join_refusals_; }
  /// The retry interval the next unanswered JoinRequest waits for (grows
  /// under join_retry_backoff; tests watch it escalate and reset).
  SimDuration current_join_retry() const { return current_join_retry_; }

 private:
  void apply(const protocol::AnyMessage& msg, const net::Delivery& d);
  void apply_entity_move(const protocol::EntityMove& m, SimTime sent);
  /// Gap detection on inbound server frames (see bot.cpp for the scheme).
  void track_seq(std::uint32_t seq, SimTime now);
  void apply_block(const world::BlockPos& pos, world::Block b);
  void walk();
  void act();
  void pick_waypoint();
  void send(const protocol::AnyMessage& msg);

  SimClock& clock_;
  net::Transport& net_;
  world::World& truth_;
  net::EndpointId server_;
  net::EndpointId endpoint_;
  std::string name_;
  Rng rng_;
  BotConfig cfg_;

  bool joined_ = false;
  bool paused_ = false;
  bool stalled_ = false;
  double action_scale_ = 1.0;
  entity::EntityId self_ = entity::kInvalidEntity;
  world::Vec3 pos_;
  world::Vec3 waypoint_;
  int blocked_ticks_ = 0;
  SimTime next_action_;

  std::unordered_map<entity::EntityId, ReplicaEntity> replica_entities_;
  std::unordered_map<world::Block, std::uint32_t> inventory_;
  std::unordered_map<world::BlockPos, world::Block> block_deltas_;
  std::unordered_set<world::ChunkPos> loaded_chunks_;
  std::unique_ptr<world::World> replica_world_;  // only if keep_chunk_replica

  Samples update_latency_ms_;
  Samples near_update_latency_ms_;
  std::uint64_t frames_received_ = 0;
  std::uint64_t updates_applied_ = 0;
  std::uint64_t unknown_entity_updates_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t chats_seen_ = 0;
  std::uint64_t out_of_order_frames_ = 0;
  std::uint64_t stale_moves_rejected_ = 0;
  SimTime newest_frame_sent_;

  // -- transport sequencing / recovery state (DESIGN.md §8) --
  /// A seq hole is only loss once it stayed unfilled this long (a non-FIFO
  /// link reorders frames; transient holes fill themselves).
  static constexpr SimDuration kGapGrace = SimDuration::millis(500);
  /// At most one ResyncRequest per interval, however many gaps appear.
  static constexpr SimDuration kResyncInterval = SimDuration::millis(500);
  /// Holes wider than this skip tracking and resync outright.
  static constexpr std::size_t kMaxTrackedGap = 64;

  std::uint32_t tx_seq_ = 0;  ///< stamped on every frame we send
  std::uint32_t rx_seq_ = 0;  ///< highest server seq seen (0 = none yet)
  std::unordered_map<std::uint32_t, SimTime> missing_;  ///< open holes -> first seen
  bool pending_resync_ = false;
  SimTime next_resync_ok_;
  SimTime join_sent_at_;
  SimTime join_backoff_until_;  ///< no JoinRequest before this (JoinRefused)
  /// Current retry interval under join_retry_backoff (== cfg_.join_retry
  /// while backoff is 1.0 or after a successful join).
  SimDuration current_join_retry_;
  SimTime last_rx_;
  std::uint64_t gaps_detected_ = 0;
  std::uint64_t resyncs_requested_ = 0;
  std::uint64_t resync_acks_ = 0;
  std::uint64_t dup_or_old_frames_ = 0;
  std::uint64_t replica_pruned_ = 0;
  std::uint64_t liveness_resets_ = 0;
  std::uint64_t join_refusals_ = 0;

  // -- lockstep / wire-equivalence instrumentation (DESIGN.md §12) --
  std::uint64_t barrier_acks_ = 0;
  std::uint32_t last_barrier_ack_ = 0;
  net::WireHasher egress_hash_;
  net::WireHasher ingress_hash_;
};

}  // namespace dyconits::bots
