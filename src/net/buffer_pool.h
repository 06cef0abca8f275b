// Frame-buffer pool (DESIGN.md §11): a process-wide freelist of payload
// vectors so the hot egress path — encode, stage, send, poll, decode —
// recycles buffers instead of allocating one per frame. Acquire hands back
// a cleared vector that keeps its previous capacity; release returns a
// spent payload. Releasing is opportunistic: a site that forgets only
// costs a future pool miss, never a leak or a double free.
//
// The pool is the allocation "counting hook" for the zero-allocation
// contract: steady-state misses are exactly the frame-buffer heap
// allocations the egress pipeline still performs (bench/e14_egress and the
// allocation regression test assert they reach zero once capacity warms).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace dyconits::net {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;      ///< acquires served from the freelist
    std::uint64_t misses = 0;    ///< acquires that had to heap-allocate
    std::uint64_t releases = 0;  ///< buffers returned (kept or dropped)
    std::uint64_t dropped = 0;   ///< released buffers discarded (pool full / tiny)
    std::size_t pooled = 0;      ///< buffers in the freelist right now
    std::size_t high_water = 0;  ///< max buffers the freelist ever held
  };

  /// The process-wide pool every frame payload cycles through. A single
  /// instance keeps the recycle loop closed across layers (protocol encode,
  /// server staging, SimNetwork drops, bot decode) without threading a pool
  /// reference through each of them.
  static BufferPool& instance();

  /// A cleared buffer, with whatever capacity its previous life grew.
  std::vector<std::uint8_t> acquire();

  /// Returns a spent buffer to the freelist. Buffers below kMinCapacity
  /// (never grown — nothing to recycle) and buffers beyond kMaxPooled are
  /// dropped so an idle pool cannot pin unbounded memory.
  void release(std::vector<std::uint8_t>&& buf);

  Stats stats() const;
  void reset_stats();
  /// Drops every pooled buffer (tests that want a cold pool).
  void trim();

  /// Freelist size cap; beyond it released buffers are freed normally.
  static constexpr std::size_t kMaxPooled = 4096;
  /// Released buffers smaller than this carry no useful capacity.
  static constexpr std::size_t kMinCapacity = 16;

 private:
  mutable std::mutex mu_;  // process-wide: any thread may acquire/release
  std::vector<std::vector<std::uint8_t>> free_;
  Stats stats_;
};

}  // namespace dyconits::net
