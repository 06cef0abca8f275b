#include "server/overload.h"

#include <algorithm>
#include <variant>

#include "dyconit/update.h"

namespace dyconits::server {

const char* ladder_rung_name(int rung) {
  switch (rung) {
    case kRungNormal: return "Normal";
    case kRungWidenBounds: return "WidenBounds";
    case kRungShedLowPriority: return "ShedLowPriority";
    case kRungDeferChunks: return "DeferChunks";
    case kRungDisconnect: return "Disconnect";
    default: return "?";
  }
}

void derive_budget_from_uplink(OverloadConfig& cfg, SimDuration tick_interval,
                               double net_cost_per_byte_ns) {
  if (!cfg.enabled || cfg.uplink_bytes_per_second == 0) return;
  // One tick's worth of uplink bytes, priced at the modeled per-byte cost,
  // expressed as a fraction of the tick budget. A server saturating its
  // uplink spends exactly this fraction of each tick in net.modeled time,
  // so "above it with margin" is the natural engage point.
  const double tick_s =
      static_cast<double>(tick_interval.count_micros()) / 1'000'000.0;
  const double bytes_per_tick =
      static_cast<double>(cfg.uplink_bytes_per_second) * tick_s;
  const double cost_us = bytes_per_tick * net_cost_per_byte_ns / 1000.0;
  const double budget_us =
      std::max(static_cast<double>(tick_interval.count_micros()), 1.0);
  const double fraction = cost_us / budget_us;
  cfg.budget_engage = fraction * cfg.engage_margin;
  cfg.budget_release = cfg.budget_engage * cfg.release_fraction;
}

bool DegradationLadder::on_tick(SimDuration modeled_cost, SimDuration tick_budget,
                                const OverloadConfig& cfg) {
  const double budget_us =
      std::max(static_cast<double>(tick_budget.count_micros()), 1.0);
  const double ratio = static_cast<double>(modeled_cost.count_micros()) / budget_us;
  if (ratio > cfg.budget_engage) {
    ++over_;
    under_ = 0;
  } else if (ratio < cfg.budget_release) {
    ++under_;
    over_ = 0;
  } else {
    // Between the thresholds: hold the rung (hysteresis dead band).
    over_ = 0;
    under_ = 0;
  }
  const int old = rung_;
  if (over_ >= cfg.engage_ticks && rung_ < kRungDisconnect) {
    ++rung_;
    over_ = 0;
  } else if (under_ >= cfg.release_ticks && rung_ > kRungNormal) {
    --rung_;
    under_ = 0;
  }
  if (rung_ != old) ++transitions_;
  return rung_ != old;
}

bool EgressQueue::fits(std::size_t incoming_bytes, std::size_t incoming_frames,
                       const OverloadConfig& cfg) const {
  if (cfg.queue_cap_bytes > 0 && bytes_ + incoming_bytes > cfg.queue_cap_bytes) {
    return false;
  }
  if (cfg.queue_cap_frames > 0 && frames() + incoming_frames > cfg.queue_cap_frames) {
    return false;
  }
  return true;
}

void EgressQueue::evict_moves(std::size_t incoming_bytes, const OverloadConfig& cfg,
                              OverloadStats& stats) {
  // One front-to-back pass: while the queue (less what is already evicted)
  // is over a cap, each move met is dropped; once it fits, the rest stay.
  std::size_t remaining = frames();
  stats.egress_evicted_moves += q_.remove_if([&](const Item& it) {
    const bool over_bytes =
        cfg.queue_cap_bytes > 0 && bytes_ + incoming_bytes > cfg.queue_cap_bytes;
    const bool over_frames =
        cfg.queue_cap_frames > 0 && remaining + 1 > cfg.queue_cap_frames;
    if (!(over_bytes || over_frames) || !dyconit::is_entity_move_key(it.key)) {
      return false;
    }
    bytes_ -= it.bytes;
    --remaining;
    return true;
  });
}

EgressQueue::PushResult EgressQueue::push(const protocol::AnyMessage& m,
                                          SimTime origin, std::uint64_t key,
                                          std::size_t bytes,
                                          const OverloadConfig& cfg,
                                          OverloadStats& stats) {
  if (Item* slot = q_.find(key)) {
    bytes_ -= slot->bytes;
    bytes_ += bytes;
    slot->msg = m;  // newest state wins; origin stays the oldest constituent
    slot->bytes = bytes;
    ++stats.egress_coalesced;
    // A replace can grow the slot by a few bytes (varint widths); keep
    // the hard cap honest by evicting moves if it pushed us over.
    if (!fits(0, 0, cfg)) evict_moves(0, cfg, stats);
    stats.peak_queue_bytes = std::max(stats.peak_queue_bytes, bytes_);
    return PushResult::Coalesced;
  }
  if (!fits(bytes, 1, cfg)) evict_moves(bytes, cfg, stats);
  if (!fits(bytes, 1, cfg)) {
    if (std::get_if<protocol::ChunkData>(&m) != nullptr) {
      return PushResult::DeferChunk;
    }
    if (std::get_if<protocol::EntityMove>(&m) != nullptr) {
      ++stats.egress_dropped_moves;
      return PushResult::DroppedMove;
    }
    // Order-critical message (spawn/despawn/unload/...) with nowhere to
    // go: dropping it silently would corrupt the replica, so the caller
    // must disconnect this session and let rejoin-resync repair it.
    ++stats.egress_dropped_ordered;
    return PushResult::DroppedPoison;
  }
  q_.push(Item{m, origin, key, bytes});
  bytes_ += bytes;
  ++stats.egress_queued;
  stats.peak_queue_bytes = std::max(stats.peak_queue_bytes, bytes_);
  return PushResult::Queued;
}

}  // namespace dyconits::server
