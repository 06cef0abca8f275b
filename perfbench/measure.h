// Measurement primitives of the repository benchmark: tail percentiles
// that know how many samples support them, the ledger that turns late
// ticks, lost updates and refused joins into failures, and the in-memory
// span log the traced run records around every call the load generator
// makes into the program. Header-only and free of program dependencies so
// tests/perfbench_test.cpp can exercise it directly.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile read off a sample set, with the number of samples ranked
/// strictly above it. A tail percentile is reported only when at least
/// kMinBeyond samples lie beyond it; fewer means the sample cannot tell
/// that percentile apart from the maximum.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< per block, for block_percentile()
  bool supported = false;
  std::size_t blocks = 0;  ///< full blocks behind a block_percentile()
};

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the sample at rank ceil(q * n) of the sorted
/// values (q in [0, 1]). Sorts `values` in place.
inline Percentile percentile(std::vector<double>& values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, values.size() - 1);
  p.value = values[idx];
  p.beyond = values.size() - 1 - idx;
  // The median needs no tail support; every higher percentile does.
  p.supported = q <= 0.5 || p.beyond >= kMinBeyond;
  return p;
}

/// Smallest sample count whose percentile q has kMinBeyond samples beyond.
inline std::size_t min_samples_for(double q) {
  for (std::size_t n = 1;; ++n) {
    const double rank = std::ceil(q * static_cast<double>(n));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (n - 1 - std::min(idx, n - 1) >= kMinBeyond) return n;
  }
}

/// A tail percentile that one burst of host noise cannot move: the samples,
/// in the order they were taken, are cut into consecutive blocks of at
/// least min_samples_for(q); each full block yields its own percentile q
/// (with at least kMinBeyond samples beyond it), and the result is the
/// median of those. Without a full block it is percentile() over all
/// samples.
///
/// Samples taken in episodes of `episode` samples each, where every episode
/// repeats the same pattern (a flash crowd at the same tick), are cut only
/// at episode boundaries: a block is the fewest whole episodes that hold
/// min_samples_for(q). Blocks cut elsewhere would hold the pattern's peak
/// a varying number of times, and their percentiles would jump with it.
inline Percentile block_percentile(const std::vector<double>& in_order, double q,
                                   std::size_t episode = 1) {
  episode = std::max<std::size_t>(1, episode);
  const std::size_t block = (min_samples_for(q) + episode - 1) / episode * episode;
  const std::size_t n_blocks = in_order.size() / block;
  if (n_blocks == 0) {
    std::vector<double> all = in_order;
    return percentile(all, q);
  }
  std::vector<double> per_block;
  Percentile p;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    std::vector<double> chunk(in_order.begin() + static_cast<std::ptrdiff_t>(b * block),
                              in_order.begin() + static_cast<std::ptrdiff_t>((b + 1) * block));
    const Percentile bp = percentile(chunk, q);
    per_block.push_back(bp.value);
    p.beyond = bp.beyond;
    p.supported = bp.supported;
  }
  p.value = percentile(per_block, 0.5).value;
  p.samples = in_order.size();
  p.blocks = n_blocks;
  return p;
}

inline double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Operations attempted and failed over a measured window. A tick longer
/// than the tick interval is lag every player sees; an update the server
/// produced that no client applied (shed by overload control, lost between
/// socket send and receive, refused by sendto) and a join refused by
/// admission control are failures too. attempted() counts each such
/// operation once, failed or not.
struct Ledger {
  std::uint64_t ticks = 0;
  std::uint64_t late_ticks = 0;
  std::uint64_t joins_attempted = 0;
  std::uint64_t joins_refused = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_shed = 0;      ///< dropped by overload control
  std::uint64_t updates_lost = 0;      ///< sent on a socket, never received
  std::uint64_t sends_refused = 0;     ///< datagrams sendto gave up on

  void add_tick(double tick_ms, double interval_ms) {
    ++ticks;
    if (tick_ms > interval_ms) ++late_ticks;
  }
  void merge(const Ledger& o) {
    ticks += o.ticks;
    late_ticks += o.late_ticks;
    joins_attempted += o.joins_attempted;
    joins_refused += o.joins_refused;
    updates_applied += o.updates_applied;
    updates_shed += o.updates_shed;
    updates_lost += o.updates_lost;
    sends_refused += o.sends_refused;
  }

  std::uint64_t updates_produced() const {
    return updates_applied + updates_shed + updates_lost + sends_refused;
  }
  std::uint64_t attempted() const { return ticks + joins_attempted + updates_produced(); }
  std::uint64_t failed() const {
    return late_ticks + joins_refused + updates_shed + updates_lost + sends_refused;
  }

  static double pct(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
  }
  double late_tick_pct() const { return pct(late_ticks, ticks); }
  double update_loss_pct() const {
    return pct(updates_shed + updates_lost + sends_refused, updates_produced());
  }
  double join_refused_pct() const { return pct(joins_refused, joins_attempted); }
};

/// Spans the load generator records around its calls into the program.
/// Every span carries the tick number it belongs to as the shared id and
/// the index of its enclosing span; all of them stay in memory until the
/// run ends. Recording is off unless enabled, and then a scope costs two
/// clock reads and one vector append.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t tick = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void set_tick(std::uint64_t tick) { tick_ = tick; }

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (log_.enabled_) idx_ = log_.open(name);
    }
    ~Scope() {
      if (idx_ >= 0) log_.close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int32_t idx_ = -1;
  };

  /// Per-name totals over spans whose tick lies in [first_tick, last_tick]:
  /// summed duration and summed self time (duration minus the durations
  /// of its direct children), in milliseconds.
  struct Total {
    double busy_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Total> totals(std::uint64_t first_tick,
                                      std::uint64_t last_tick) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, Total> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.tick < first_tick || s.tick > last_tick) continue;
      Total& t = out[s.name];
      const std::int64_t dur = s.end_ns - s.start_ns;
      t.busy_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
      ++t.count;
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::int32_t open(const char* name) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, tick_, parent, now_ns(), 0});
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_;
  std::uint64_t tick_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
