// Encode-once broadcast frames (DESIGN.md §11). A message fanned out to N
// subscribers has one wire payload; only the per-session transport sequence
// number differs. SharedFrame holds that payload once and hands it to
// Transport::send_shared for each recipient — one serialization per
// broadcast instead of N.
//
// Ownership rules: a SharedFrame is the single owner of one pooled payload
// (move-only, no refcount); the payload is immutable for its lifetime and
// returns to the BufferPool when it dies. A backend that can put borrowed
// bytes straight on the wire (UdpTransport) reads payload() during the
// send call and keeps nothing; one that must own a frame (SimNetwork's
// inbox, the fault layer's corruption) takes instance(), an independent
// pooled copy, so downstream mutation never aliases the master or a
// sibling recipient's frame.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/buffer_pool.h"
#include "net/transport.h"

namespace dyconits::net {

class SharedFrame {
 public:
  SharedFrame() = default;
  SharedFrame(std::uint8_t tag, std::vector<std::uint8_t> payload)
      : tag_(tag), payload_(std::move(payload)), valid_(true) {}
  ~SharedFrame() { reset(); }

  SharedFrame(const SharedFrame&) = delete;
  SharedFrame& operator=(const SharedFrame&) = delete;
  SharedFrame(SharedFrame&& o) noexcept
      : tag_(o.tag_),
        payload_(std::move(o.payload_)),
        valid_(std::exchange(o.valid_, false)) {}
  SharedFrame& operator=(SharedFrame&& o) noexcept {
    if (this != &o) {
      reset();
      tag_ = o.tag_;
      payload_ = std::move(o.payload_);
      valid_ = std::exchange(o.valid_, false);
    }
    return *this;
  }

  bool valid() const { return valid_; }
  std::uint8_t tag() const { return tag_; }
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  /// One recipient's owned copy: identical tag and payload bytes, caller's
  /// seq, in a pooled buffer.
  Frame instance(std::uint32_t seq, SimTime trace_origin) const {
    Frame f;
    f.tag = tag_;
    f.seq = seq;
    f.trace_origin = trace_origin;
    std::vector<std::uint8_t> buf = BufferPool::instance().acquire();
    buf.assign(payload_.begin(), payload_.end());
    f.payload = std::move(buf);
    return f;
  }

 private:
  /// Returns the payload to the pool; an empty SharedFrame (a fan-out loop
  /// that never encoded, or a moved-from one) costs no pool round trip.
  void reset() {
    if (valid_) BufferPool::instance().release(std::move(payload_));
    valid_ = false;
  }

  std::uint8_t tag_ = 0;
  std::vector<std::uint8_t> payload_;
  bool valid_ = false;
};

}  // namespace dyconits::net
