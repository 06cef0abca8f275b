// Order-independent digest of a simulation's final game state, shared by
// the chaos and determinism suites: entities sorted by id, then one digest
// per loaded ground-truth chunk (blocks near the ground, where edits
// happen) XOR-combined so the world's hash-map iteration order does not
// matter. Digests are only compared across same-seed reruns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bots/simulation.h"
#include "net/transport.h"

namespace dyconits::bots {

inline std::uint64_t world_digest(Simulation& sim) {
  net::Fnv1a h;
  std::vector<const entity::Entity*> ents;
  sim.server().entities().for_each([&](const entity::Entity& e) { ents.push_back(&e); });
  std::sort(ents.begin(), ents.end(),
            [](const entity::Entity* a, const entity::Entity* b) { return a->id < b->id; });
  for (const entity::Entity* e : ents) {
    h.u64(e->id);
    for (const double coord : {e->pos.x, e->pos.y, e->pos.z}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &coord, sizeof(double));
      h.u64(bits);
    }
  }

  std::uint64_t chunks = 0;
  sim.world().for_each_chunk([&](const world::Chunk& c) {
    net::Fnv1a ch;
    ch.u64(static_cast<std::uint32_t>(c.pos().x));
    ch.u64(static_cast<std::uint32_t>(c.pos().z));
    for (int x = 0; x < world::kChunkSize; ++x) {
      for (int z = 0; z < world::kChunkSize; ++z) {
        for (int y = 0; y < 10; ++y) ch.u64(static_cast<std::uint64_t>(c.get_local(x, y, z)));
      }
    }
    chunks ^= ch.value();
  });
  h.u64(chunks);
  return h.value();
}

}  // namespace dyconits::bots
