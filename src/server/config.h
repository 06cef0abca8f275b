// Server configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "server/overload.h"
#include "util/sim_time.h"
#include "world/geometry.h"

namespace dyconits::server {

struct ServerConfig {
  /// Chunk view distance (Chebyshev radius); interest set is the
  /// (2v+1)^2 square around the player.
  int view_distance = 8;

  /// Hysteresis: chunks are unloaded only beyond view_distance + this
  /// margin, so a player oscillating at the view border doesn't thrash
  /// ChunkData resends (Minecraft servers do the same).
  int unload_margin = 2;

  /// Nominal game tick (Minecraft: 50 ms).
  SimDuration tick_interval = SimDuration::millis(50);

  /// Ticks between KeepAlive probes (100 ticks = 5 s).
  std::uint32_t keepalive_interval_ticks = 100;
  /// Missed keep-alives before the session is dropped.
  std::uint32_t keepalive_missed_limit = 4;

  /// false = vanilla baseline: updates are serialized and sent directly at
  /// the update site, exactly like the unmodified game. true = updates are
  /// routed through the dyconit middleware.
  bool use_dyconits = true;

  /// Chunk streaming throttle: ChunkData frames per player per tick.
  int max_chunk_sends_per_tick = 24;

  /// Reject client moves longer than this per message (anti-teleport).
  double max_move_per_message = 12.0;

  /// Bandwidth budget handed to the policy (bits/s); 0 = none.
  double bandwidth_budget_bps = 0.0;

  /// Survival economy: digging drops an item entity, walking over an item
  /// picks it up into the player's inventory, and placement consumes
  /// inventory (rejected when empty). false = creative: digs destroy the
  /// block outright and placement is free.
  bool survival_mode = false;
  /// Dropped items despawn after this long on the ground.
  SimDuration item_ttl = SimDuration::seconds(60);
  /// Pickup distance (blocks, horizontal+vertical).
  double pickup_radius = 1.5;

  /// Environmental block ticks: per game tick, this many random columns of
  /// watched chunks get a chance to evolve (dirt with sky above turns to
  /// grass). Server-originated block updates, dispatched like any player
  /// edit. 0 disables.
  std::size_t env_ticks_per_tick = 0;

  /// Snapshot catch-up: a (dyconit, subscriber) queue longer than this is
  /// dropped and the unit's fresh state resent instead (ChunkData for block
  /// units, current positions for entity units). 0 disables.
  std::size_t snapshot_queue_threshold = 512;

  /// Modeled CPU cost of the real network send path (syscall, packet
  /// pipeline, compression), which an in-process simulated send does not
  /// incur. Added to the measured tick CPU per frame/byte the server sent
  /// that tick. Defaults approximate a Netty+zlib Minecraft-like stack;
  /// set both to zero to measure raw simulation CPU only. See DESIGN.md
  /// (substitution table).
  SimDuration net_cost_per_frame = SimDuration::micros(8);
  double net_cost_per_byte_ns = 25.0;

  /// Feed adaptive policies the modeled tick cost only (frames/bytes sent,
  /// via the net_cost_* model) instead of measured wall-clock CPU plus
  /// modeled. Measured CPU is the one host-dependent input in the
  /// simulation: with it in the loop, a slow host (or a sanitizer build)
  /// can push the director over its tick-pressure threshold and change
  /// what goes on the wire. Setting this makes policy decisions — and
  /// therefore wire bytes — a pure function of simulation state, which
  /// seeded replay requires (DESIGN.md §9). Reported tick
  /// CPU metrics (tick_cpu_ms) always remain the real measurement.
  bool deterministic_load = false;

  /// Digest every session's application-level byte stream (tag + payload,
  /// above the transport) into per-session WireHashers, readable via
  /// GameServer::session_stream_hashes(). The UDP/sim equivalence check
  /// (DESIGN.md §12) compares these across backends; off by default — it
  /// touches every payload byte a second time.
  bool hash_streams = false;

  /// Aggregate tick spans into the per-phase profiler (GameServer::
  /// profiler()). Off by default: an installed profiler makes every
  /// TRACE_SCOPE on the send path take timestamps (~1-2% of a busy tick),
  /// so only runs that print the breakdown (e5/e6) pay for it. Independent
  /// of --trace ring-buffer recording, which captures spans either way.
  bool profile_ticks = false;

  /// Where new players spawn. The workload harness overrides this to shape
  /// player density (spread walkers vs a packed village).
  std::function<world::Vec3(const std::string& name)> spawn_provider;

  /// Overload control (DESIGN.md §10): bounded per-subscriber egress
  /// queues, the tick watchdog + degradation ladder, and join-time
  /// admission control. Disabled by default — with overload.enabled false
  /// the wire output is byte-identical to builds without the subsystem.
  OverloadConfig overload;

  /// Server-driven NPC entities (mobs): random-waypoint wanderers whose
  /// movement goes through the same update-dispatch path as players. They
  /// model the server-originated share of MVE update load.
  std::size_t mob_count = 0;
  double mob_spawn_radius = 96.0;
  double mob_speed = 1.6;  // blocks/second
  std::uint64_t mob_seed = 1;
};

}  // namespace dyconits::server
