// The one coalescing queue (DESIGN.md §10) under both the dyconit's
// SubscriberQueue and the server's EgressQueue: insertion-ordered, with one
// key -> slot index. find() hands back the queued slot so the caller merges
// in place (newest payload wins; the slot keeps its position and age); what
// a merge means — weights add, byte counts change — is the caller's policy.
// Key 0 never coalesces. `Key` names the T member holding the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
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
    if (key == 0) return nullptr;
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &items_[it->second];
  }

  /// Appends `item`; a nonzero key must not be queued yet (find() first).
  template <typename U>
  void push(U&& item) {
    if (item.*Key != 0) index_.emplace(item.*Key, items_.size());
    items_.push_back(std::forward<U>(item));
  }

  T pop_front() {
    T out = std::move(items_[head_]);
    if (out.*Key != 0) index_.erase(out.*Key);
    ++head_;
    // Amortised compaction: once the dead prefix is large and at least half
    // the storage, shift the live tail down and re-base the index.
    if (head_ >= 128 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      for (auto& [key, slot] : index_) slot -= head_;
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
      if (items_[i].*Key != 0) index_.emplace(items_[i].*Key, i);
    }
    return removed;
  }

  /// Moves the live entries into `out` (cleared first), in order, and
  /// empties the queue. Swaps storage: the queue inherits `out`'s capacity,
  /// so a caller reusing one scratch vector allocates nothing per take.
  void take_into(std::vector<T>& out) {
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
    out.clear();
    out.swap(items_);
    clear();
  }

  /// Drops every entry, keeping the storage.
  void clear() {
    items_.clear();
    index_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;  // [head_, items_.size()) are live
  std::size_t head_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // key -> items_ slot
};

}  // namespace dyconits::util
