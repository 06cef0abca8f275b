// The one coalescing queue (DESIGN.md §10) under both the dyconit's
// SubscriberQueue and the server's EgressQueue: insertion-ordered, with one
// key -> slot index. find() hands back the queued slot so the caller merges
// in place (newest payload wins; the slot keeps its position and age); what
// a merge means — weights add, byte counts change — is the caller's policy.
// Key 0 never coalesces. `Key` names the T member holding the key.
//
// The index is a util::ProbeTable owned by the queue (linear probing, at
// most half full, backward-shift erase). A slot holds 32 bits of the key's
// hash (which also give its home slot) and the entry's position; a probe
// reads the entry's key only when the hash bits match. It is lookup-only:
// which slot an entry lands in never changes the queue's order, so the
// index cannot move the wire.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/probe_table.h"

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
    if (key == 0) return nullptr;
    const std::uint32_t h = fib_hash(key);
    const Slot* s = index_.find(
        h, [&](const Slot& c) { return c.hash_bits == h && items_[c.pos].*Key == key; });
    return s == nullptr ? nullptr : &items_[s->pos];
  }

  /// Appends `item`; a nonzero key must not be queued yet (find() first).
  template <typename U>
  void push(U&& item) {
    const std::uint64_t key = item.*Key;
    if (key != 0) {
      index_.insert(Slot{fib_hash(key), static_cast<std::uint32_t>(items_.size())});
    }
    items_.push_back(std::forward<U>(item));
  }

  T pop_front() {
    if (const std::uint64_t key = items_[head_].*Key; key != 0) {
      const auto pos = static_cast<std::uint32_t>(head_);
      index_.erase(
          index_.find(fib_hash(key), [pos](const Slot& s) { return s.pos == pos; }));
    }
    T out = std::move(items_[head_]);
    ++head_;
    // Amortised compaction: once the dead prefix is large and at least half
    // the storage, shift the live tail down and re-base the index in place.
    if (head_ >= 128 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      index_.for_each([&](Slot& s) { s.pos -= static_cast<std::uint32_t>(head_); });
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
    index_.clear();
    for (std::size_t i = head_; i < kept; ++i) {
      const std::uint64_t key = items_[i].*Key;
      if (key != 0) index_.insert(Slot{fib_hash(key), static_cast<std::uint32_t>(i)});
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
  std::size_t index_capacity() const { return index_.capacity(); }

  /// The index slot `key` probes first in a table of `capacity` slots (a
  /// power of two); lets tests build keys that collide or wrap.
  static std::size_t home_slot(std::uint64_t key, std::size_t capacity) {
    return fib_hash(key) & (capacity - 1);
  }

 private:
  struct Slot {
    std::uint32_t hash_bits = 0;
    std::uint32_t pos = 0xFFFFFFFFu;  // items_ index; all ones = empty
    bool empty() const { return pos == 0xFFFFFFFFu; }
    std::uint32_t hash() const { return hash_bits; }
  };

  // Capacity release: a take or clear frees storage holding more than
  // kReleaseFactor times the recent size (an average over takes with
  // weight 1/8 on the newest), and never storage of kReleaseFloor entries
  // or fewer. A steady queue keeps its storage (its table holds at most
  // twice its peak); one burst that leaves a queue mostly idle gives its
  // storage back at the take that drains it.
  static constexpr std::size_t kReleaseFactor = 8;
  static constexpr std::size_t kReleaseFloor = 64;

  /// Empties the queue after it held `held` entries, releasing storage the
  /// recent sizes no longer justify.
  void reset(std::size_t held) {
    items_.clear();
    head_ = 0;
    recent_ = (recent_ * 7 + held) / 8;
    const std::size_t keep = std::max(kReleaseFloor, kReleaseFactor * recent_);
    if (items_.capacity() > keep) std::vector<T>().swap(items_);
    if (index_.capacity() / 2 > keep) {
      index_.release();
    } else {
      index_.clear();
    }
  }

  std::vector<T> items_;  // [head_, items_.size()) are live
  std::size_t head_ = 0;
  ProbeTable<Slot, 8> index_;  // key -> items_ slot, one per keyed live entry
  std::size_t recent_ = 0;     // smoothed size at take/clear
};

}  // namespace dyconits::util
