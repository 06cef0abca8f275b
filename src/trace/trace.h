// Low-overhead span/event tracing (S17).
//
// RAII scopes write fixed-size records into preallocated ring buffers and
// feed an optional TickProfiler (per-phase tick breakdowns, see
// tick_profiler.h). Every record carries dual timestamps: wall-clock
// nanoseconds (what the CPU actually spent — the quantity the paper's
// tick-duration claims are about) and the simulated-time instant plus tick
// number (so a span can be located in the deterministic experiment
// timeline). Export to Chrome/Perfetto `trace_event` JSON lives in
// export.h.
//
// Cost model:
//   - compiled out (DYCONITS_TRACING=0): the macros expand to nothing.
//   - compiled in, inactive (no recording, no profiler): one predictable
//     branch per scope.
//   - active: two steady_clock reads plus a lock-free ring-buffer store
//     and/or a memoized profiler lookup; no allocation on the hot path.
//
// Thread-safety: spans may be emitted from any thread.
// Each thread records into its own ring buffer, registered on first use,
// so the emission hot path takes no locks; snapshot() merges the
// per-thread rings into one wall-clock-ordered stream, and every record
// carries the tid of the thread that emitted it. Control operations
// (start/stop recording, clear, set_profiler, set_tick, set_sim_clock,
// snapshot) belong to the tick thread and must not run concurrently with
// span emission from other threads; a caller that spawns threads joins
// them before snapshotting. The installed TickProfiler observes spans only
// from the thread that installed it; other threads' spans go to the rings
// alone, so per-phase tick accounting stays single-threaded.
//
// Names must be string literals (records store the pointer, never copy).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/sim_time.h"

// Compile-time switch: -DDYCONITS_TRACING=0 turns every TRACE_* macro into
// a no-op and lets the optimizer drop the instrumentation entirely.
#ifndef DYCONITS_TRACING
#define DYCONITS_TRACING 1
#endif

namespace dyconits::trace {

class TickProfiler;

/// One completed span or instant event. Fixed-size; `name` points at the
/// string literal given to the scope (never owned).
struct TraceRecord {
  const char* name = nullptr;
  std::int64_t wall_start_ns = 0;  ///< wall time since Tracer epoch
  std::int64_t wall_dur_ns = 0;    ///< 0 for instant events
  std::int64_t sim_us = -1;        ///< simulated time at completion; -1 if no clock
  std::uint64_t tick = 0;          ///< server tick number (0 before the first tick)
  std::uint32_t tid = 0;           ///< emitting thread (registration order)
  bool instant = false;
};

class Tracer {
 public:
  static Tracer& instance();

  // -- ring-buffer recording (drives the Chrome/Perfetto export) --

  /// Starts capturing records into freshly preallocated per-thread rings
  /// of `capacity` entries each. When a thread's ring is full, its oldest
  /// records are overwritten (dropped() counts them).
  void start_recording(std::size_t capacity);
  void stop_recording() { recording_.store(false, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  /// All threads' records merged in emission (wall-clock completion)
  /// order — per thread, exactly the order the records were pushed.
  std::vector<TraceRecord> snapshot() const;
  std::size_t recorded() const;
  std::uint64_t dropped() const;
  void clear();

  // -- context --

  /// Simulated clock used to stamp records; may be null (sim_us = -1).
  void set_sim_clock(const SimClock* clock) {
    sim_clock_.store(clock, std::memory_order_relaxed);
  }
  const SimClock* sim_clock() const {
    return sim_clock_.load(std::memory_order_relaxed);
  }
  /// Current server tick, stamped into every record.
  void set_tick(std::uint64_t tick) { tick_.store(tick, std::memory_order_relaxed); }

  /// Profiler observing completed spans (may be null). Only spans emitted
  /// by the installing thread are observed — other threads' spans never
  /// feed the tick profiler. See ProfilerScope for the RAII install/restore
  /// helper.
  void set_profiler(TickProfiler* p);
  TickProfiler* profiler() const { return profiler_.load(std::memory_order_relaxed); }

  /// True when scopes must take timestamps at all.
  bool active() const { return recording() || profiler() != nullptr; }

  // -- record emission (called by the scope/macro machinery) --

  void end_span(const char* name, std::chrono::steady_clock::time_point start);
  void instant(const char* name);

 private:
  struct ThreadRing {
    std::vector<TraceRecord> ring;
    std::size_t head = 0;   // next write position
    std::size_t count = 0;  // valid records (<= ring.size())
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;  // registration order within the session
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// The calling thread's ring for the current recording session,
  /// registering (under the registry lock) on first use or after the
  /// session changed. The returned reference stays valid until the next
  /// start_recording/clear, which must not race emission (see banner).
  ThreadRing& local_ring();
  void push(const char* name, std::int64_t start_ns, std::int64_t dur_ns, bool instant);
  std::int64_t since_epoch_ns(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<const SimClock*> sim_clock_{nullptr};
  std::atomic<TickProfiler*> profiler_{nullptr};
  std::atomic<std::thread::id> profiler_owner_{};
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<bool> recording_{false};

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  std::size_t capacity_ = 1;
  /// Bumped by start_recording/clear so threads re-register instead of
  /// writing into a ring from a previous session.
  std::atomic<std::uint64_t> session_{0};
};

/// RAII span: measures wall time from construction to destruction and
/// reports it to the tracer. Costs one branch when the tracer is inactive.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (Tracer::instance().active()) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) Tracer::instance().end_span(name_, start_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Installs `p` as the tracer's active profiler for the current scope and
/// restores the previous one on exit (so servers ticked inside another's
/// scope each aggregate their own tick). Null is allowed and installs nothing,
/// keeping an unprofiled server from shadowing a profiled outer one.
class ProfilerScope {
 public:
  explicit ProfilerScope(TickProfiler* p) : prev_(Tracer::instance().profiler()) {
    if (p != nullptr) Tracer::instance().set_profiler(p);
  }
  explicit ProfilerScope(TickProfiler& p) : ProfilerScope(&p) {}
  ~ProfilerScope() { Tracer::instance().set_profiler(prev_); }

  ProfilerScope(const ProfilerScope&) = delete;
  ProfilerScope& operator=(const ProfilerScope&) = delete;

 private:
  TickProfiler* prev_;
};

}  // namespace dyconits::trace

#if DYCONITS_TRACING
#define DYCO_TRACE_CONCAT2(a, b) a##b
#define DYCO_TRACE_CONCAT(a, b) DYCO_TRACE_CONCAT2(a, b)
/// Times the enclosing scope under `name` (a string literal).
#define TRACE_SCOPE(name) \
  ::dyconits::trace::TraceScope DYCO_TRACE_CONCAT(dyco_trace_scope_, __LINE__)(name)
/// Emits a zero-duration marker event.
#define TRACE_INSTANT(name)                                 \
  do {                                                      \
    if (::dyconits::trace::Tracer::instance().recording())  \
      ::dyconits::trace::Tracer::instance().instant(name);  \
  } while (0)
#else
#define TRACE_SCOPE(name) \
  do {                    \
  } while (0)
#define TRACE_INSTANT(name) \
  do {                      \
  } while (0)
#endif
