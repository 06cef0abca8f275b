// The unit of optimistic replication: an update queued toward a subscriber.
//
// The middleware treats the game message as opaque (it only moves, counts,
// and coalesces them); the game supplies a weight — the update's numerical-
// error contribution (blocks of positional drift for moves, 1.0 per block
// edit) — and an optional coalesce key. Two queued updates with the same
// nonzero key collapse: the newer message replaces the older one (absolute
// state: last write wins), their weights add (the replica keeps drifting),
// and the older creation time is kept (staleness is the age of the oldest
// unseen write). Coalescing is what converts bound slack into bandwidth.
#pragma once

#include <cstdint>
#include <vector>

#include "dyconit/id.h"
#include "protocol/messages.h"
#include "util/sim_time.h"

namespace dyconits::dyconit {

/// Subscribers are the game's client connections; the server maps these to
/// network endpoints. 0 is reserved (no subscriber).
using SubscriberId = std::uint32_t;
inline constexpr SubscriberId kNoSubscriber = 0;

struct Update {
  protocol::AnyMessage msg;
  double weight = 1.0;
  SimTime created;
  /// 0 = never coalesce. Callers build keys via the helpers below.
  std::uint64_t coalesce_key = 0;
};

/// Coalesce keys. Namespaced so entity ids cannot collide with block
/// positions within one dyconit's queue.
inline std::uint64_t coalesce_key_entity(std::uint32_t entity_id) {
  return (1ull << 56) | entity_id;
}
/// True for keys built by coalesce_key_entity. A queued entity move is
/// absolute state the next move supersedes, so overload control may shed or
/// evict it.
inline bool is_entity_move_key(std::uint64_t key) { return (key >> 56) == 1; }
inline std::uint64_t coalesce_key_block(const world::BlockPos& p) {
  const std::uint64_t x = static_cast<std::uint32_t>(p.x);
  const std::uint64_t z = static_cast<std::uint32_t>(p.z);
  const std::uint64_t y = static_cast<std::uint8_t>(p.y);
  return (2ull << 56) | ((x & 0xFFFFFF) << 32) | ((z & 0xFFFFFF) << 8) | y;
}

/// Where flushed updates go. The server's implementation packs the message
/// batch into protocol frames (EntityMoveBatch / MultiBlockChange) and
/// hands them to the existing network stack — the middleware itself never
/// touches sockets, which is what keeps it "thin".
class FlushSink {
 public:
  virtual ~FlushSink() = default;

  struct FlushedUpdate {
    const protocol::AnyMessage* msg;  // borrowed; valid during the call
    SimTime created;                  // when the oldest coalesced-in write happened
    double weight;
  };

  /// One flush: every update a subscriber is owed for one dyconit, in
  /// enqueue order. Subscribers that take the same contents (they shared
  /// one queue) get the same `batch` id, so the sink may pack and encode
  /// the batch once; a different id may still carry equal contents. Ids
  /// are never 0 and never reused by one DyconitSystem.
  virtual void deliver(SubscriberId to, std::uint64_t batch,
                       const std::vector<FlushedUpdate>& updates) = 0;

  /// Snapshot catch-up: the subscriber's queue for `unit` grew past the
  /// configured threshold and was dropped; the game should resend fresh
  /// state for the unit (cheaper than the delta flood). Default: ignore —
  /// only hosts that configure a threshold need to implement this.
  virtual void request_snapshot(SubscriberId to, const DyconitId& unit) {
    (void)to;
    (void)unit;
  }
};

}  // namespace dyconits::dyconit
