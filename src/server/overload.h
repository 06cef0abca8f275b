// Overload control (DESIGN.md §10): the pieces that keep the server's
// memory and tick cost bounded when offered load exceeds its budgets.
//
//  * EgressQueue — a per-subscriber capped staging queue between the game
//    and the transport. A slow subscriber stops receiving wire frames and
//    accumulates (coalesced) state here instead, so neither the transport
//    inbox nor server memory grows without bound. Superseded updates
//    coalesce in place (newest entity position wins, block ops merge) in
//    the same util::CoalescingQueue the dyconit SubscriberQueue uses;
//    overflow evicts entity moves oldest-first (absolute state — the next
//    move supersedes them), defers chunk payloads back to the chunk
//    streamer, and as a last resort poisons the session for a
//    disconnect-and-resync rather than silently corrupting replica order.
//
//  * DegradationLadder — a deterministic rung state machine driven by the
//    modeled tick cost (a pure function of sim state under
//    ServerConfig::deterministic_load, so runs replay byte-identically
//    from a seed): Normal → WidenBounds → ShedLowPriority → DeferChunks
//    → Disconnect, with engage/release hysteresis.
//
// The GameServer owns both and wires them into its tick; nothing here
// touches the network or sessions directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "protocol/messages.h"
#include "util/coalescing_queue.h"
#include "util/sim_time.h"

namespace dyconits::server {

struct OverloadConfig {
  /// Master switch. Off by default: with it off the server's wire output is
  /// byte-identical to a build without the subsystem (the golden baseline
  /// and every pre-existing experiment are unaffected).
  bool enabled = false;

  /// Hard caps on one subscriber's egress staging queue. 0 = unlimited.
  std::size_t queue_cap_bytes = 64 * 1024;
  std::size_t queue_cap_frames = 2048;

  /// Backpressure: a subscriber whose transport backlog
  /// (Transport::pending_bytes) plus staged egress bytes exceed this is
  /// "backlogged" — its sends divert into the capped egress queue instead
  /// of growing the inbox. The threshold should sit comfortably below
  /// queue_cap_bytes.
  std::size_t backlog_threshold_bytes = 24 * 1024;

  /// Per-tick drain budget once a subscriber's inbox falls back under the
  /// backlog threshold (bytes of staged frames re-sent per tick).
  std::size_t drain_bytes_per_tick = 8 * 1024;

  /// Watchdog thresholds as fractions of the tick budget: modeled tick
  /// cost above budget_engage for engage_ticks consecutive ticks climbs
  /// one rung; below budget_release for release_ticks descends one.
  double budget_engage = 1.0;
  double budget_release = 0.6;
  std::uint32_t engage_ticks = 5;
  std::uint32_t release_ticks = 40;

  /// Self-calibration: when nonzero, derive_budget_from_uplink overwrites
  /// budget_engage / budget_release from this configured uplink capacity and
  /// the modeled per-byte network cost, so experiments stop hand-keying the
  /// watchdog to each server_egress_rate. 0 (default) keeps the manual
  /// budgets above untouched.
  std::size_t uplink_bytes_per_second = 0;
  /// Engage threshold = (modeled cost of one tick's worth of uplink bytes,
  /// as a fraction of the tick budget) × this safety margin.
  double engage_margin = 1.5;
  /// Release threshold = derived engage threshold × this fraction
  /// (hysteresis gap).
  double release_fraction = 0.4;

  /// Rung 1 (WidenBounds): factor applied to backlogged subscribers'
  /// policy bounds (staleness and numerical both).
  double widen_factor = 4.0;

  /// Rung 2 (ShedLowPriority): snapshot-threshold override installed for
  /// backlogged subscribers (tighter than the global threshold, converting
  /// block backlog into snapshot requests) alongside entity-move shedding.
  std::size_t shed_snapshot_threshold = 64;

  /// Rung 3 (DeferChunks): clamp on ChunkData sends per subscriber per
  /// tick while the ladder is at or above this rung.
  int defer_chunk_sends_per_tick = 4;

  /// Admission control: JoinRequests are refused (JoinRefused) while the
  /// ladder is at or above this rung. <= 0 never refuses.
  int admission_refuse_rung = 3;
  /// Suggested client backoff carried in the refusal, milliseconds.
  std::uint32_t admission_retry_ms = 2000;

  /// Rung 4 (Disconnect): minimum ticks between worst-offender
  /// disconnects, so the ladder sheds one player at a time and re-observes.
  std::uint32_t disconnect_interval_ticks = 100;
};

/// Ladder rungs, in escalation order. Each rung includes every milder
/// measure below it.
enum LadderRung : int {
  kRungNormal = 0,
  kRungWidenBounds = 1,
  kRungShedLowPriority = 2,
  kRungDeferChunks = 3,
  kRungDisconnect = 4,
};

const char* ladder_rung_name(int rung);

/// Derives cfg.budget_engage / cfg.budget_release from
/// cfg.uplink_bytes_per_second and the modeled network byte cost
/// (ServerConfig::net_cost_per_byte_ns). No-op unless overload control is
/// enabled and an uplink capacity is configured, so default configs — and
/// the golden wire baseline — are unaffected.
void derive_budget_from_uplink(OverloadConfig& cfg, SimDuration tick_interval,
                               double net_cost_per_byte_ns);

/// Monotonic overload counters (whole run).
struct OverloadStats {
  std::uint64_t egress_queued = 0;     ///< updates staged into egress queues
  std::uint64_t egress_coalesced = 0;  ///< updates absorbed into a queued one
  std::uint64_t egress_drained = 0;    ///< staged updates later put on the wire
  std::uint64_t egress_evicted_moves = 0;   ///< queued moves evicted on overflow
  std::uint64_t egress_dropped_moves = 0;   ///< incoming moves dropped on overflow
  std::uint64_t egress_dropped_ordered = 0; ///< order-critical drops (poisons)
  std::uint64_t egress_dropped_disconnect = 0;  ///< staged updates lost with a session
  std::uint64_t chunks_deferred = 0;   ///< ChunkData bounced back to the streamer
  std::uint64_t joins_refused = 0;
  std::uint64_t overload_disconnects = 0;
  std::uint64_t ladder_transitions = 0;
  std::size_t peak_queue_bytes = 0;    ///< max bytes any one queue ever held
};

/// The deterministic rung state machine. Pure function of the modeled
/// cost samples fed to it — no wall clock, no randomness.
class DegradationLadder {
 public:
  /// Feeds one end-of-tick modeled cost sample. Returns true if the rung
  /// changed (at most one rung per call, either direction).
  bool on_tick(SimDuration modeled_cost, SimDuration tick_budget,
               const OverloadConfig& cfg);

  int rung() const { return rung_; }
  std::uint64_t transitions() const { return transitions_; }

 private:
  int rung_ = kRungNormal;
  std::uint32_t over_ = 0;   // consecutive ticks above budget_engage
  std::uint32_t under_ = 0;  // consecutive ticks below budget_release
  std::uint64_t transitions_ = 0;
};

/// Capped, coalescing staging queue for one subscriber: util::CoalescingQueue
/// plus the egress policy (byte and frame caps, the overflow ladder, move
/// eviction). Holds *atomic* messages (EntityMoveBatch / MultiBlockChange
/// are decomposed by the caller) so coalescing is a per-key replace; the
/// drain path re-groups consecutive runs back into batch frames.
class EgressQueue {
 public:
  struct Item {
    protocol::AnyMessage msg;
    SimTime origin;            // oldest constituent (kept across coalescing)
    std::uint64_t key = 0;     // dyconit coalesce key; 0 = never coalesce
    std::size_t bytes = 0;     // wire-size estimate of the encoded frame
  };

  enum class PushResult {
    Queued,
    Coalesced,     ///< absorbed into a queued item with the same key
    DeferChunk,    ///< no room: caller should re-queue the chunk pos instead
    DroppedMove,   ///< no room: move dropped (next move supersedes it)
    DroppedPoison, ///< no room for an order-critical message: session must
                   ///< be disconnected and resynced on rejoin
  };

  PushResult push(const protocol::AnyMessage& m, SimTime origin, std::uint64_t key,
                  std::size_t bytes, const OverloadConfig& cfg, OverloadStats& stats);

  bool empty() const { return q_.empty(); }
  std::size_t frames() const { return q_.size(); }
  std::size_t bytes() const { return bytes_; }
  const Item& front() const { return q_.front(); }
  Item pop_front() {
    Item out = q_.pop_front();
    bytes_ -= out.bytes;
    return out;
  }
  /// Drops everything (session teardown); returns how many items died.
  std::size_t clear() {
    const std::size_t n = frames();
    q_.clear();
    bytes_ = 0;
    return n;
  }

 private:
  bool fits(std::size_t incoming_bytes, std::size_t incoming_frames,
            const OverloadConfig& cfg) const;
  /// Evicts queued entity moves oldest-first until `incoming_bytes` fits
  /// (or no moves remain), keeping every other item in order.
  void evict_moves(std::size_t incoming_bytes, const OverloadConfig& cfg,
                   OverloadStats& stats);

  util::CoalescingQueue<Item, &Item::key> q_;
  std::size_t bytes_ = 0;
};

}  // namespace dyconits::server
