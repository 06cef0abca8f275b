// The one coalescing queue (DESIGN.md §10) under both the dyconit's
// SubscriberQueue and the server's EgressQueue: insertion-ordered, with one
// key -> slot index. find() hands back the queued slot so the caller merges
// in place (newest payload wins; the slot keeps its position and age); what
// a merge means — weights add, byte counts change — is the caller's policy.
// Key 0 never coalesces. `Key` names the T member holding the key.
//
// The index is a flat open-addressed table owned by the queue: linear
// probing over a power-of-two capacity, at most half full, and
// backward-shift erase, so there are no tombstones. A slot holds 32 bits of
// the key's hash (which also give its home slot) and the entry's position;
// a probe reads the entry's key only when the hash bits match. It is
// lookup-only: which slot an entry lands in never changes the queue's
// order, so the index cannot move the wire.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dyconits::util {

template <typename T, std::uint64_t T::*Key>
class CoalescingQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  const T& front() const { return items_[head_]; }
  /// Live entry `i` places behind the front.
  const T& operator[](std::size_t i) const { return items_[head_ + i]; }

  /// The queued entry with `key`, or nullptr (always for key 0). Valid
  /// until the next push, pop_front or remove_if.
  T* find(std::uint64_t key) {
    if (key == 0 || table_.empty()) return nullptr;
    const std::uint32_t h = hash(key);
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      const Slot& s = table_[i];
      if (s.pos == kEmpty) return nullptr;
      if (s.hash == h && items_[s.pos].*Key == key) return &items_[s.pos];
    }
  }

  /// Appends `item`; a nonzero key must not be queued yet (find() first).
  template <typename U>
  void push(U&& item) {
    const std::uint64_t key = item.*Key;
    if (key != 0) {
      if ((indexed_ + 1) * 2 > table_.size()) grow();
      insert(hash(key), items_.size());
      ++indexed_;
    }
    items_.push_back(std::forward<U>(item));
  }

  T pop_front() {
    if (items_[head_].*Key != 0) erase(items_[head_].*Key, head_);
    T out = std::move(items_[head_]);
    ++head_;
    // Amortised compaction: once the dead prefix is large and at least half
    // the storage, shift the live tail down and re-base the index in place.
    if (head_ >= 128 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      for (Slot& s : table_) {
        if (s.pos != kEmpty) s.pos -= static_cast<std::uint32_t>(head_);
      }
      head_ = 0;
    }
    return out;
  }

  /// In-place, order-preserving removal; returns how many entries went.
  /// `pred` sees each live entry exactly once, front to back, so it may
  /// carry state (a running byte total). Survivors keep their order, the
  /// index is rebuilt, and the storage is kept (no allocation).
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    std::size_t kept = head_;
    for (std::size_t i = head_; i < items_.size(); ++i) {
      if (pred(std::as_const(items_[i]))) continue;
      if (kept != i) items_[kept] = std::move(items_[i]);
      ++kept;
    }
    const std::size_t removed = items_.size() - kept;
    if (removed == 0) return 0;
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(kept), items_.end());
    std::fill(table_.begin(), table_.end(), Slot{});
    indexed_ = 0;
    for (std::size_t i = head_; i < kept; ++i) {
      if (items_[i].*Key == 0) continue;
      insert(hash(items_[i].*Key), i);
      ++indexed_;
    }
    return removed;
  }

  /// Moves the live entries into `out` (cleared first), in order, and
  /// empties the queue. Swaps storage: the queue inherits `out`'s capacity,
  /// so a caller reusing one scratch vector allocates nothing per take.
  void take_into(std::vector<T>& out) {
    const std::size_t held = size();
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
    out.clear();
    out.swap(items_);
    reset(held);
  }

  /// Drops every entry. Keeps the storage unless it is far larger than
  /// what the queue recently held (see reset()).
  void clear() { reset(size()); }

  /// Storage held, for tests: item slots and index slots.
  std::size_t capacity() const { return items_.capacity(); }
  std::size_t index_capacity() const { return table_.size(); }

  /// The index slot `key` probes first in a table of `capacity` slots (a
  /// power of two); lets tests build keys that collide or wrap.
  static std::size_t home_slot(std::uint64_t key, std::size_t capacity) {
    return hash(key) & (capacity - 1);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t pos = kEmpty;  // items_ index
  };

  /// Multiplicative (Fibonacci) hashing; the high half of the product is
  /// the best-mixed.
  static std::uint32_t hash(std::uint64_t key) {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }

  static constexpr std::size_t kMinTable = 8;
  // Capacity release: a take or clear frees storage holding more than
  // kReleaseFactor times the recent size (an average over takes with
  // weight 1/8 on the newest), and never storage of kReleaseFloor entries
  // or fewer. A steady queue keeps its storage (its table holds at most
  // twice its peak); one burst that leaves a queue mostly idle gives its
  // storage back at the take that drains it.
  static constexpr std::size_t kReleaseFactor = 8;
  static constexpr std::size_t kReleaseFloor = 64;

  std::size_t mask() const { return table_.size() - 1; }

  /// Places an entry in the first empty slot of its probe run (its key
  /// must be absent, and the table must have room).
  void insert(std::uint32_t h, std::size_t pos) {
    std::size_t i = h & mask();
    while (table_[i].pos != kEmpty) i = (i + 1) & mask();
    table_[i] = Slot{h, static_cast<std::uint32_t>(pos)};
  }

  /// Backward-shift deletion of the entry at items_ position `pos`: after
  /// emptying its slot, each later entry of the run that could have been
  /// placed in the hole moves into it, so every probe run stays gap-free.
  void erase(std::uint64_t key, std::size_t pos) {
    std::size_t hole = hash(key) & mask();
    while (table_[hole].pos != pos) hole = (hole + 1) & mask();
    for (std::size_t i = (hole + 1) & mask(); table_[i].pos != kEmpty; i = (i + 1) & mask()) {
      // The entry at i may fill the hole iff its home does not lie
      // cyclically in (hole, i].
      const std::size_t home = table_[i].hash & mask();
      if (((i - home) & mask()) >= ((i - hole) & mask())) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = Slot{};
    --indexed_;
  }

  void grow() {
    std::vector<Slot> old = std::exchange(
        table_, std::vector<Slot>(std::max(kMinTable, table_.size() * 2)));
    for (const Slot& s : old) {
      if (s.pos != kEmpty) insert(s.hash, s.pos);
    }
  }

  /// Empties the queue after it held `held` entries, releasing storage the
  /// recent sizes no longer justify.
  void reset(std::size_t held) {
    items_.clear();
    head_ = 0;
    indexed_ = 0;
    recent_ = (recent_ * 7 + held) / 8;
    const std::size_t keep = std::max(kReleaseFloor, kReleaseFactor * recent_);
    if (items_.capacity() > keep) std::vector<T>().swap(items_);
    if (table_.size() / 2 > keep) {
      std::vector<Slot>().swap(table_);
    } else {
      std::fill(table_.begin(), table_.end(), Slot{});
    }
  }

  std::vector<T> items_;  // [head_, items_.size()) are live
  std::size_t head_ = 0;
  std::vector<Slot> table_;  // key -> items_ slot; empty or a power of two
  std::size_t indexed_ = 0;  // keyed live entries (occupied slots)
  std::size_t recent_ = 0;   // smoothed size at take/clear
};

}  // namespace dyconits::util
