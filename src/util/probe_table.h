// The open-addressed table under every flat hash index in src/
// (util::CoalescingQueue's key -> position index and util::IdSet): linear
// probing over a power-of-two slot array kept at most half full, with
// backward-shift erase, so there are no tombstones and every probe run
// stays gap-free. What a slot holds and what "matches" means belong to the
// index built on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dyconits::util {

/// Multiplicative (Fibonacci) hashing; the high half of the product is the
/// best-mixed.
inline std::uint32_t fib_hash(std::uint64_t key) {
  return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
}

/// `Slot` is a small value type whose default value is the empty slot, with
///   bool empty() const;          // unoccupied
///   std::uint32_t hash() const;  // its low bits are the home slot
/// The table doubles from kMinCapacity whenever an insert would take it past
/// half full, and never shrinks on its own (release() frees it).
template <typename Slot, std::size_t kMinCapacity>
class ProbeTable {
  static_assert(kMinCapacity > 0 && (kMinCapacity & (kMinCapacity - 1)) == 0,
                "capacity must be a power of two");

 public:
  /// Occupied slots.
  std::size_t size() const { return size_; }
  /// All slots; 0 before the first insert, else a power of two.
  std::size_t capacity() const { return slots_.size(); }

  /// The slot of `h`'s probe run for which `match` holds, or nullptr when
  /// an empty slot ends the run first.
  template <typename Match>
  Slot* find(std::uint32_t h, Match match) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.empty()) return nullptr;
      if (match(std::as_const(s))) return &s;
    }
  }
  template <typename Match>
  const Slot* find(std::uint32_t h, Match match) const {
    return const_cast<ProbeTable*>(this)->find(h, match);
  }

  /// Places `s` in the first empty slot of its probe run. Its key must be
  /// absent; the table doubles first if it would pass half full.
  void insert(const Slot& s) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    place(s);
    ++size_;
  }

  /// Backward-shift deletion of a slot find() returned: after emptying it,
  /// each later slot of the run that could have been placed in the hole
  /// moves into it.
  void erase(Slot* slot) {
    std::size_t hole = static_cast<std::size_t>(slot - slots_.data());
    for (std::size_t i = (hole + 1) & mask(); !slots_[i].empty(); i = (i + 1) & mask()) {
      // The slot at i may fill the hole iff its home does not lie
      // cyclically in (hole, i].
      const std::size_t home = slots_[i].hash() & mask();
      if (((i - home) & mask()) >= ((i - hole) & mask())) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Empties every slot and keeps the storage.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }
  /// Empties the table and frees its storage.
  void release() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
  }

  /// Visits every occupied slot in table order. `f` may edit a slot in
  /// place as long as its hash() stays the same.
  template <typename F>
  void for_each(F f) {
    for (Slot& s : slots_) {
      if (!s.empty()) f(s);
    }
  }
  template <typename F>
  void for_each(F f) const {
    for (const Slot& s : slots_) {
      if (!s.empty()) f(s);
    }
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  void place(const Slot& s) {
    std::size_t i = s.hash() & mask();
    while (!slots_[i].empty()) i = (i + 1) & mask();
    slots_[i] = s;
  }

  void grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max(kMinCapacity, slots_.size() * 2)));
    for (const Slot& s : old) {
      if (!s.empty()) place(s);
    }
  }

  std::vector<Slot> slots_;  // empty or a power of two
  std::size_t size_ = 0;
};

}  // namespace dyconits::util
