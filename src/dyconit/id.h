// Dyconit identity. The game world is partitioned into consistency units;
// an id names one unit: the block state or the entity state of a chunk, a
// region (kRegionSize^2 chunks), or the whole world. The granularity a
// server uses is chosen by its policy (see Policy::block_unit_for /
// entity_unit_for) and is the subject of the E8 ablation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "world/geometry.h"

namespace dyconits::dyconit {

/// Chunks per region edge for region-granularity dyconits.
inline constexpr int kRegionSize = 4;

enum class Domain : std::uint8_t {
  Invalid = 0,
  ChunkBlocks = 1,
  ChunkEntities = 2,
  RegionBlocks = 3,
  RegionEntities = 4,
  GlobalBlocks = 5,
  GlobalEntities = 6,
  Custom = 7,
};

struct DyconitId {
  Domain domain = Domain::Invalid;
  std::int32_t x = 0;  // chunk or region coordinate; 0 for global/custom
  std::int32_t z = 0;  // likewise; for Custom, (x,z) is a free 64-bit tag

  constexpr bool operator==(const DyconitId&) const = default;

  /// Canonical order (domain, x, z): the order flush work is settled in
  /// (DESIGN.md §9).
  constexpr bool operator<(const DyconitId& o) const {
    if (domain != o.domain) return domain < o.domain;
    if (x != o.x) return x < o.x;
    return z < o.z;
  }

  bool valid() const { return domain != Domain::Invalid; }

  /// The world-space center this unit covers, for distance-based policies.
  /// nullopt for global/custom units (no meaningful location).
  std::optional<world::Vec3> center() const;

  /// True if this unit carries entity-movement updates.
  bool is_entity_domain() const {
    return domain == Domain::ChunkEntities || domain == Domain::RegionEntities ||
           domain == Domain::GlobalEntities;
  }

  std::string to_string() const;

  // -- constructors --
  static constexpr DyconitId chunk_blocks(world::ChunkPos c) {
    return {Domain::ChunkBlocks, c.x, c.z};
  }
  static constexpr DyconitId chunk_entities(world::ChunkPos c) {
    return {Domain::ChunkEntities, c.x, c.z};
  }
  static constexpr DyconitId region_blocks(world::ChunkPos c) {
    return {Domain::RegionBlocks, world::floor_div(c.x, kRegionSize),
            world::floor_div(c.z, kRegionSize)};
  }
  static constexpr DyconitId region_entities(world::ChunkPos c) {
    return {Domain::RegionEntities, world::floor_div(c.x, kRegionSize),
            world::floor_div(c.z, kRegionSize)};
  }
  static constexpr DyconitId global_blocks() { return {Domain::GlobalBlocks, 0, 0}; }
  static constexpr DyconitId global_entities() { return {Domain::GlobalEntities, 0, 0}; }
  static constexpr DyconitId custom(std::uint64_t tag) {
    return {Domain::Custom, static_cast<std::int32_t>(tag >> 32),
            static_cast<std::int32_t>(tag & 0xFFFFFFFFull)};
  }
};

}  // namespace dyconits::dyconit

template <>
struct std::hash<dyconits::dyconit::DyconitId> {
  std::size_t operator()(const dyconits::dyconit::DyconitId& id) const noexcept {
    std::uint64_t h = static_cast<std::uint8_t>(id.domain);
    h = h * 0x100000001B3ull ^ static_cast<std::uint32_t>(id.x);
    h = h * 0x100000001B3ull ^ static_cast<std::uint32_t>(id.z);
    return static_cast<std::size_t>(h * 0x9E3779B97F4A7C15ull);
  }
};
