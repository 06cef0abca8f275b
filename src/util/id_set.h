// A flat set of nonzero integer ids on util::ProbeTable: one slot per id,
// no nodes, and a probe that reads one cache line in the common case. Id 0
// marks an empty slot, so it cannot be stored (entity ids start at 1).
// Iteration order is the table's; sorted() is the one way out that callers
// may put on the wire.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/probe_table.h"

namespace dyconits::util {

template <typename Id>
class IdSet {
  static_assert(std::is_unsigned_v<Id>, "ids are unsigned integers");

 public:
  /// Slots the first insert allocates. Sized so a session's known-entity
  /// set rarely grows: a grown set frees its old table, and the sizes of
  /// those freed blocks shift the heap enough to move peak RSS.
  static constexpr std::size_t kInitialCapacity = 256;

  bool empty() const { return table_.size() == 0; }
  std::size_t size() const { return table_.size(); }
  /// Slots held (0 before the first insert), for tests.
  std::size_t capacity() const { return table_.capacity(); }

  bool contains(Id id) const { return table_.find(fib_hash(id), Match{id}) != nullptr; }

  /// Adds `id` (nonzero); false if it was already present.
  bool insert(Id id) {
    assert(id != 0);
    if (contains(id)) return false;
    table_.insert(Slot{id});
    return true;
  }

  /// Removes `id`; false if it was absent.
  bool erase(Id id) {
    Slot* s = table_.find(fib_hash(id), Match{id});
    if (s == nullptr) return false;
    table_.erase(s);
    return true;
  }

  /// The ids in ascending order.
  std::vector<Id> sorted() const {
    std::vector<Id> out;
    out.reserve(size());
    table_.for_each([&](const Slot& s) { out.push_back(s.id); });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The slot `id` probes first in a table of `capacity` slots (a power of
  /// two); lets tests build ids that collide or wrap.
  static std::size_t home_slot(Id id, std::size_t capacity) {
    return fib_hash(id) & (capacity - 1);
  }

 private:
  struct Slot {
    Id id = 0;
    bool empty() const { return id == 0; }
    std::uint32_t hash() const { return fib_hash(id); }
  };
  struct Match {
    Id id;
    bool operator()(const Slot& s) const { return s.id == id; }
  };

  ProbeTable<Slot, kInitialCapacity> table_;
};

}  // namespace dyconits::util
