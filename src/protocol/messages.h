// The Minecraft-like wire protocol: message structs and tags.
//
// Angles travel as 1/256-turn bytes and positions as f32, mirroring the
// fixed-point compactness of the real protocol. The *batch* variants
// (EntityMoveBatch, MultiBlockChange) are the frames the dyconit flush
// engine emits: many coalesced updates under one frame header.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "entity/entity.h"
#include "world/block.h"
#include "world/geometry.h"

namespace dyconits::protocol {

enum class MessageType : std::uint8_t {
  // client -> server
  JoinRequest = 1,
  PlayerMove = 2,
  PlayerDig = 3,
  PlayerPlace = 4,
  KeepAliveReply = 5,
  ChatSend = 6,
  ResyncRequest = 7,
  TickBarrier = 8,
  // server -> client
  JoinAck = 10,
  ChunkData = 11,
  UnloadChunk = 12,
  BlockChange = 13,
  MultiBlockChange = 14,
  EntitySpawn = 15,
  EntityDespawn = 16,
  EntityMove = 17,
  EntityMoveBatch = 18,
  KeepAlive = 19,
  ChatBroadcast = 20,
  InventoryUpdate = 21,
  ResyncAck = 22,
  JoinRefused = 23,
  TickBarrierAck = 24,
};

const char* message_type_name(MessageType t);

// ---- client -> server ----

struct JoinRequest {
  std::string name;
};

struct PlayerMove {
  world::Vec3 pos;
  float yaw = 0, pitch = 0;
};

struct PlayerDig {
  world::BlockPos pos;
};

struct PlayerPlace {
  world::BlockPos pos;
  world::Block block = world::Block::Stone;
};

struct KeepAliveReply {
  std::uint32_t nonce = 0;
};

struct ChatSend {
  std::string text;
};

/// Client -> server: "I detected a transport gap (or just reconnected) —
/// replay authoritative state for everything I subscribe to." Part of the
/// recovery handshake, DESIGN.md §8.
struct ResyncRequest {
  /// Highest server frame sequence number the client has seen.
  std::uint32_t last_seq = 0;
};

/// Client -> server: "my inputs for scripted tick N are all in." Used only
/// by the lockstep scripted driver behind the UDP/sim equivalence check
/// (DESIGN.md §12): the server acknowledges with TickBarrierAck as the
/// *last* frame of the tick, so a client that has seen ack N has the
/// complete tick-N output stream on an in-order transport.
struct TickBarrier {
  std::uint32_t tick = 0;
};

// ---- server -> client ----

struct JoinAck {
  entity::EntityId self_id = 0;
  world::Vec3 spawn;
  std::uint8_t view_distance = 8;
};

struct ChunkData {
  world::ChunkPos pos;
  std::vector<std::uint8_t> rle;  // Chunk::encode_rle payload
};

struct UnloadChunk {
  world::ChunkPos pos;
};

struct BlockChange {
  world::BlockPos pos;
  world::Block block = world::Block::Air;
};

struct MultiBlockChange {
  world::ChunkPos chunk;
  struct Entry {
    // Local coordinates packed client-side exactly like the wire format:
    // x:4 bits, z:4 bits, y: 8 bits.
    std::uint8_t x = 0, y = 0, z = 0;
    world::Block block = world::Block::Air;
  };
  std::vector<Entry> entries;
};

struct EntitySpawn {
  entity::EntityId id = 0;
  entity::EntityKind kind = entity::EntityKind::Player;
  world::Vec3 pos;
  float yaw = 0, pitch = 0;
  std::string name;        // display name; empty for non-players
  std::uint16_t data = 0;  // item entities: the dropped Block id
};

struct EntityDespawn {
  entity::EntityId id = 0;
};

struct EntityMove {
  entity::EntityId id = 0;
  world::Vec3 pos;
  float yaw = 0, pitch = 0;
};

struct EntityMoveBatch {
  std::vector<EntityMove> moves;
};

struct KeepAlive {
  std::uint32_t nonce = 0;
};

struct ChatBroadcast {
  entity::EntityId from = 0;
  std::string text;
};

/// Server -> client: authoritative count of one inventory item (absolute,
/// not a delta — robust to loss/reorder).
struct InventoryUpdate {
  world::Block item = world::Block::Air;
  std::uint32_t count = 0;
};

/// Server -> client: closes a ResyncRequest. Sent after the server has
/// flushed owed updates, queued snapshots, and refreshed entity state for
/// the subscriber; the client uses its Delivery timestamp to prune replica
/// entities the refresh did not confirm.
struct ResyncAck {
  /// Server-global resync epoch (monotonic; diagnostics only).
  std::uint32_t epoch = 0;
};

/// Server -> client: admission control turned a JoinRequest away because
/// the overload ladder is at or above the configured admission rung
/// (DESIGN.md §10). Sent unsequenced (seq 0 — no session exists yet);
/// well-behaved clients back off for at least retry_after_ms before
/// retrying the join.
struct JoinRefused {
  /// The ladder rung the server was at when it refused (diagnostics).
  std::uint8_t rung = 0;
  /// Suggested client backoff before the next JoinRequest, milliseconds.
  std::uint32_t retry_after_ms = 0;
};

/// Server -> client: closes a TickBarrier, echoing its tick number. Sent at
/// the very end of the server tick that consumed the barrier.
struct TickBarrierAck {
  std::uint32_t tick = 0;
};

using AnyMessage =
    std::variant<JoinRequest, PlayerMove, PlayerDig, PlayerPlace, KeepAliveReply, ChatSend,
                 ResyncRequest, JoinAck, ChunkData, UnloadChunk, BlockChange,
                 MultiBlockChange, EntitySpawn, EntityDespawn, EntityMove, EntityMoveBatch,
                 KeepAlive, ChatBroadcast, InventoryUpdate, ResyncAck, JoinRefused,
                 TickBarrier, TickBarrierAck>;

}  // namespace dyconits::protocol
