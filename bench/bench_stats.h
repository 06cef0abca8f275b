// Statistics + machine-readable report layer for the experiment binaries
// (Meterstick-style variability discipline, PAPERS.md): every reported
// number carries its cross-seed spread, snapshots are versioned JSON
// (BENCH_<pr>.json), and scripts/verify.sh's bench-gate stage diffs fresh
// runs against the committed snapshot with a per-metric noise band.
//
// This header is deliberately self-contained (stdlib only) so
// tests/bench_stats_test.cpp and tests/bench_json_test.cpp can exercise
// the stats, schema, and gate logic without pulling in the simulator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dyconits::bench {

// ------------------------------------------------------ scalar statistics

inline double vec_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
inline double vec_stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = vec_mean(xs);
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - m) * (x - m);
  return std::sqrt(m2 / static_cast<double>(xs.size() - 1));
}

/// Coefficient of variation as a percentage: 100 * stddev / |mean|.
/// 0 for fewer than 2 values or a zero mean (CoV is undefined there).
inline double vec_cov_pct(const std::vector<double>& xs) {
  const double m = vec_mean(xs);
  if (xs.size() < 2 || m == 0.0) return 0.0;
  return 100.0 * vec_stddev(xs) / std::fabs(m);
}

/// Nearest-rank percentile, same convention as Samples::percentile so a
/// per-run p95 and a cross-run p95 read the same way.
inline double vec_percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

/// Safety factor applied to the measured cross-seed spread when recording a
/// metric's noise band. The band protects the regression gate against
/// run-to-run (same-seed) noise that the seed sweep cannot observe; 2x the
/// observed half-range is the documented margin (EXPERIMENTS.md).
inline constexpr double kNoiseBandSafety = 2.0;

/// Noise band as a percentage of the mean: the largest relative deviation
/// of any run from the cross-run mean, times kNoiseBandSafety. 0 when the
/// mean is 0 (the gate falls back to absolute comparison) or under 2 runs.
inline double noise_band_pct(const std::vector<double>& xs) {
  const double m = vec_mean(xs);
  if (xs.size() < 2 || m == 0.0) return 0.0;
  double worst = 0.0;
  for (const double x : xs) worst = std::max(worst, std::fabs(x - m) / std::fabs(m));
  return 100.0 * worst * kNoiseBandSafety;
}

// ------------------------------------------------------ JSON value output

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Renders a double as a JSON number. JSON has no NaN/Inf; a metric that
/// arrives non-finite is clamped (NaN -> 0, +/-Inf -> +/-1e308) so a
/// requested report can never be unparseable. Benches are expected to feed
/// finite values; the clamp is a last line of defense for committed
/// baselines, not a license to emit garbage.
inline std::string json_num(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[32];
  // 10 significant digits: enough for a written snapshot to rehydrate with
  // sub-1e-6-relative error (the round-trip test pins this), still compact.
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ------------------------------------------------------------ run reports

/// One run's report: config, a flat metric map, and per-phase timing
/// percentiles. Every bench that takes --json=FILE fills one of these per
/// seed; run_seeded() (bench_util.h) aggregates them across seeds.
struct JsonReport {
  std::string bench;
  /// Config as (key, already-rendered JSON value) — use json_str/json_num.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, double>> metrics;
  struct Phase {
    std::string name;
    double mean_ms = 0, p50_ms = 0, p95_ms = 0, p99_ms = 0;
    /// Simulation phase timings are streaming (RunningStats) — mean only;
    /// percentile keys are emitted only where a retained distribution
    /// backs them.
    bool has_percentiles = true;
  };
  std::vector<Phase> phases;
  /// Pass/fail of the run's internal invariants (e.g. e11 replay identity).
  /// Not serialized; run_seeded() turns it into the process exit code.
  bool ok = true;
};

inline void write_json_report(std::FILE* f, const JsonReport& r) {
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"bench\": %s,\n  \"config\": {",
               json_str(r.bench).c_str());
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    std::fprintf(f, "%s%s: %s", i ? ", " : "", json_str(r.config[i].first).c_str(),
                 r.config[i].second.c_str());
  }
  std::fprintf(f, "},\n  \"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::fprintf(f, "%s%s: %s", i ? ", " : "", json_str(r.metrics[i].first).c_str(),
                 json_num(r.metrics[i].second).c_str());
  }
  std::fprintf(f, "},\n  \"phases\": [");
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const JsonReport::Phase& p = r.phases[i];
    std::fprintf(f, "%s\n    {\"name\": %s, \"mean_ms\": %s", i ? "," : "",
                 json_str(p.name).c_str(), json_num(p.mean_ms).c_str());
    if (p.has_percentiles) {
      std::fprintf(f, ", \"p50_ms\": %s, \"p95_ms\": %s, \"p99_ms\": %s",
                   json_num(p.p50_ms).c_str(), json_num(p.p95_ms).c_str(),
                   json_num(p.p99_ms).c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
}

/// Cross-seed summary of one metric. `values` keeps the per-run numbers so
/// a snapshot diff shows *which* seed moved, not just that the mean did.
struct MetricSummary {
  double mean = 0, cov_pct = 0, min = 0, max = 0, band_pct = 0;
  std::vector<double> values;
};

inline MetricSummary summarize(const std::vector<double>& values) {
  MetricSummary s;
  s.values = values;
  s.mean = vec_mean(values);
  s.cov_pct = vec_cov_pct(values);
  s.min = values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
  s.max = values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
  s.band_pct = noise_band_pct(values);
  return s;
}

/// A bench configuration measured across >=2 seeds: schema version 2 of the
/// --json output, and the element type of a BENCH_<pr>.json snapshot.
struct MultiRunReport {
  std::string bench;
  std::vector<std::uint64_t> seeds;
  /// Shared config (seed removed — it varies by design).
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, MetricSummary>> metrics;
  struct Phase {
    std::string name;
    MetricSummary mean_ms;
    MetricSummary p95_ms;
    bool has_percentiles = true;
  };
  std::vector<Phase> phases;

  const MetricSummary* find_metric(const std::string& name) const {
    for (const auto& [k, v] : metrics) {
      if (k == name) return &v;
    }
    return nullptr;
  }
};

/// Folds per-seed reports into the cross-seed summary form. Metric and
/// phase order follows the first run; a metric absent from some run simply
/// has fewer values (its summary says so via values.size()).
inline MultiRunReport aggregate_runs(const std::vector<JsonReport>& runs,
                                     const std::vector<std::uint64_t>& seeds) {
  MultiRunReport out;
  if (runs.empty()) return out;
  out.bench = runs.front().bench;
  out.seeds = seeds;
  for (const auto& [k, v] : runs.front().config) {
    if (k != "seed") out.config.emplace_back(k, v);
  }
  std::vector<std::string> metric_order;
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& run : runs) {
    for (const auto& [k, v] : run.metrics) {
      if (by_name.find(k) == by_name.end()) metric_order.push_back(k);
      by_name[k].push_back(v);
    }
  }
  for (const auto& name : metric_order) {
    out.metrics.emplace_back(name, summarize(by_name[name]));
  }
  for (std::size_t pi = 0; pi < runs.front().phases.size(); ++pi) {
    MultiRunReport::Phase ph;
    ph.name = runs.front().phases[pi].name;
    ph.has_percentiles = runs.front().phases[pi].has_percentiles;
    std::vector<double> means, p95s;
    for (const auto& run : runs) {
      for (const auto& p : run.phases) {
        if (p.name != ph.name) continue;
        means.push_back(p.mean_ms);
        if (p.has_percentiles) p95s.push_back(p.p95_ms);
        break;
      }
    }
    ph.mean_ms = summarize(means);
    ph.p95_ms = summarize(p95s);
    out.phases.push_back(std::move(ph));
  }
  return out;
}

inline void write_summary_json(std::FILE* f, const MetricSummary& s) {
  std::fprintf(f, "{\"mean\": %s, \"cov_pct\": %s, \"min\": %s, \"max\": %s, "
               "\"band_pct\": %s, \"values\": [",
               json_num(s.mean).c_str(), json_num(s.cov_pct).c_str(),
               json_num(s.min).c_str(), json_num(s.max).c_str(),
               json_num(s.band_pct).c_str());
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", json_num(s.values[i]).c_str());
  }
  std::fprintf(f, "]}");
}

inline void write_multi_run_json(std::FILE* f, const MultiRunReport& r) {
  std::fprintf(f, "{\n  \"schema\": 2,\n  \"bench\": %s,\n  \"runs\": %zu,\n"
               "  \"seeds\": [",
               json_str(r.bench).c_str(), r.seeds.size());
  for (std::size_t i = 0; i < r.seeds.size(); ++i) {
    std::fprintf(f, "%s%llu", i ? ", " : "",
                 static_cast<unsigned long long>(r.seeds[i]));
  }
  std::fprintf(f, "],\n  \"config\": {");
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    std::fprintf(f, "%s%s: %s", i ? ", " : "", json_str(r.config[i].first).c_str(),
                 r.config[i].second.c_str());
  }
  std::fprintf(f, "},\n  \"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::fprintf(f, "%s\n    %s: ", i ? "," : "",
                 json_str(r.metrics[i].first).c_str());
    write_summary_json(f, r.metrics[i].second);
  }
  std::fprintf(f, "\n  },\n  \"phases\": [");
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const auto& p = r.phases[i];
    std::fprintf(f, "%s\n    {\"name\": %s, \"mean_ms\": ", i ? "," : "",
                 json_str(p.name).c_str());
    write_summary_json(f, p.mean_ms);
    if (p.has_percentiles) {
      std::fprintf(f, ", \"p95_ms\": ");
      write_summary_json(f, p.p95_ms);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
}

// ------------------------------------------------------ minimal JSON parse
//
// Strict recursive-descent parser for the report/snapshot schema (objects,
// arrays, strings, finite numbers, true/false/null). Rejects NaN/Inf
// tokens and trailing garbage — exactly the properties the smoke tests and
// the gate need to trust a committed baseline.

struct JsonValue {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  /// Insertion-ordered object members (duplicate keys rejected at parse).
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace detail {

struct JsonParser {
  const char* p;
  const char* end;
  std::string err;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool fail(const std::string& m) {
    if (err.empty()) err = m;
    return false;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out.kind = JsonValue::Kind::Str; return parse_string(out.str);
      case 't':
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
          out.kind = JsonValue::Kind::Bool;
          out.b = true;
          p += 4;
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
          out.kind = JsonValue::Kind::Bool;
          out.b = false;
          p += 5;
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
          out.kind = JsonValue::Kind::Null;
          p += 4;
          return true;
        }
        return fail("bad literal (nan is not JSON)");
      default: return parse_number(out);
    }
  }

  bool parse_number(JsonValue& out) {
    // JSON number grammar only: an explicit check so strtod's acceptance of
    // "nan"/"inf"/hex can never leak a non-finite value into a report.
    const char* s = p;
    if (p < end && *p == '-') ++p;
    const char* digits0 = p;
    while (p < end && *p >= '0' && *p <= '9') ++p;
    if (p == digits0) return fail("bad number");
    if (p < end && *p == '.') {
      ++p;
      const char* frac0 = p;
      while (p < end && *p >= '0' && *p <= '9') ++p;
      if (p == frac0) return fail("bad number (empty fraction)");
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      const char* exp0 = p;
      while (p < end && *p >= '0' && *p <= '9') ++p;
      if (p == exp0) return fail("bad number (empty exponent)");
    }
    const std::string tok(s, p);
    const double v = std::strtod(tok.c_str(), nullptr);
    if (!std::isfinite(v)) return fail("non-finite number: " + tok);
    out.kind = JsonValue::Kind::Num;
    out.num = v;
    return true;
  }

  bool parse_string(std::string& out) {
    ++p;  // opening quote
    out.clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p >= end) return fail("unterminated escape");
        const char e = *p++;
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (end - p < 4) return fail("bad \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p++;
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            c = v < 128 ? static_cast<char>(v) : '?';  // reports are ASCII
            break;
          }
          default: return fail("unknown escape");
        }
      }
      out += c;
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Arr;
    ++p;  // [
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Obj;
    ++p;  // {
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    while (true) {
      skip_ws();
      if (p >= end || *p != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) return fail("duplicate key: " + key);
      skip_ws();
      if (p >= end || *p != ':') return fail("expected ':'");
      ++p;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace detail

/// Parses a complete JSON document; trailing non-whitespace is an error.
inline std::optional<JsonValue> json_parse(const std::string& text, std::string* error) {
  detail::JsonParser ps{text.data(), text.data() + text.size(), {}};
  JsonValue v;
  if (!ps.parse_value(v)) {
    if (error) *error = ps.err;
    return std::nullopt;
  }
  ps.skip_ws();
  if (ps.p != ps.end) {
    if (error) *error = "trailing garbage after document";
    return std::nullopt;
  }
  return v;
}

/// Rehydrates a schema-2 object (one element of BENCH_<pr>.json). Returns
/// nullopt with *error set on any missing/mistyped field.
inline std::optional<MultiRunReport> multi_run_from_json(const JsonValue& v,
                                                         std::string* error) {
  const auto bad = [&](const std::string& m) {
    if (error) *error = m;
    return std::nullopt;
  };
  if (v.kind != JsonValue::Kind::Obj) return bad("report is not an object");
  const JsonValue* schema = v.find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::Num || schema->num != 2) {
    return bad("missing or unsupported \"schema\" (want 2)");
  }
  const JsonValue* bench = v.find("bench");
  const JsonValue* seeds = v.find("seeds");
  const JsonValue* config = v.find("config");
  const JsonValue* metrics = v.find("metrics");
  if (bench == nullptr || bench->kind != JsonValue::Kind::Str) return bad("missing bench");
  if (seeds == nullptr || seeds->kind != JsonValue::Kind::Arr) return bad("missing seeds");
  if (config == nullptr || config->kind != JsonValue::Kind::Obj) return bad("missing config");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::Obj) {
    return bad("missing metrics");
  }
  MultiRunReport out;
  out.bench = bench->str;
  for (const auto& s : seeds->arr) {
    if (s.kind != JsonValue::Kind::Num) return bad("non-numeric seed");
    out.seeds.push_back(static_cast<std::uint64_t>(s.num));
  }
  for (const auto& [k, val] : config->obj) {
    out.config.emplace_back(
        k, val.kind == JsonValue::Kind::Str ? json_str(val.str) : json_num(val.num));
  }
  for (const auto& [name, m] : metrics->obj) {
    if (m.kind != JsonValue::Kind::Obj) return bad("metric " + name + " not an object");
    MetricSummary s;
    const JsonValue* mean = m.find("mean");
    const JsonValue* band = m.find("band_pct");
    const JsonValue* cov = m.find("cov_pct");
    if (mean == nullptr || mean->kind != JsonValue::Kind::Num ||
        band == nullptr || band->kind != JsonValue::Kind::Num ||
        cov == nullptr || cov->kind != JsonValue::Kind::Num) {
      return bad("metric " + name + " missing mean/cov_pct/band_pct");
    }
    s.mean = mean->num;
    s.cov_pct = cov->num;
    s.band_pct = band->num;
    if (const JsonValue* mn = m.find("min"); mn && mn->kind == JsonValue::Kind::Num) {
      s.min = mn->num;
    }
    if (const JsonValue* mx = m.find("max"); mx && mx->kind == JsonValue::Kind::Num) {
      s.max = mx->num;
    }
    if (const JsonValue* vals = m.find("values");
        vals && vals->kind == JsonValue::Kind::Arr) {
      for (const auto& x : vals->arr) {
        if (x.kind != JsonValue::Kind::Num) return bad("non-numeric value in " + name);
        s.values.push_back(x.num);
      }
    }
    out.metrics.emplace_back(name, std::move(s));
  }
  return out;
}

// -------------------------------------------------------- regression gate

/// How the gate reads a metric's direction of "worse".
enum class MetricClass {
  LowerBetter,   ///< timings, misses, violations: growth is a regression
  HigherBetter,  ///< throughput, capacity, pass-flags: shrinkage is one
  TwoSided,      ///< deterministic sim outputs: any drift beyond the band
                 ///< is an unexplained behavior change
  Informational  ///< reported, never gated (e.g. real-socket RTT)
};

inline const char* metric_class_name(MetricClass c) {
  switch (c) {
    case MetricClass::LowerBetter: return "lower-better";
    case MetricClass::HigherBetter: return "higher-better";
    case MetricClass::TwoSided: return "two-sided";
    case MetricClass::Informational: return "informational";
  }
  return "?";
}

/// Name-pattern classification, first match wins. Kept as one table so the
/// gate, its tests, and the docs agree on what is gated and which way.
inline MetricClass classify_metric(const std::string& bench, const std::string& name) {
  const auto contains = [&](const char* pat) {
    return name.find(pat) != std::string::npos;
  };
  // Real-socket measurements depend on kernel scheduling and host load;
  // they are recorded for trend-reading, never gated.
  if (bench == "e15_transport" && name.rfind("udp_", 0) == 0) {
    return MetricClass::Informational;
  }
  if (contains("wire_match") || contains("replay_ok")) return MetricClass::HigherBetter;
  if (contains("capacity") || contains("speedup") || contains("mb_per_s") ||
      contains("pool_hits")) {
    return MetricClass::HigherBetter;
  }
  if (contains("cap_violations") || contains("violations") || contains("misses") ||
      contains("dropped") || contains("_ms")) {
    return MetricClass::LowerBetter;
  }
  // Deterministic simulation outputs: byte/frame rates, counters, sheds.
  if (contains("bytes_per_sec") || contains("frames_per_sec") || contains("kbps") ||
      contains("frames_per_s") || contains("pool_high_water") || contains("shed") ||
      contains("deferred") || contains("coalesced") || contains("gaps") ||
      contains("resyncs") || contains("pos_err") || contains("staleness") ||
      contains("queue_kb") || contains("rung") || contains("transitions")) {
    return MetricClass::TwoSided;
  }
  return MetricClass::Informational;
}

struct GateOptions {
  /// Minimum relative threshold: a metric must move more than
  /// max(band_pct, floor_pct) in the bad direction to trip the gate.
  double floor_pct = 5.0;
  /// Absolute tolerance when the baseline mean is 0 (relative change is
  /// undefined): the candidate mean may differ by at most this much.
  double zero_abs_tol = 0.01;
  /// Baseline metrics missing from the candidate are failures (lost
  /// coverage) unless set.
  bool allow_missing = false;
};

struct GateFinding {
  std::string bench;
  std::string metric;
  MetricClass cls = MetricClass::Informational;
  double baseline_mean = 0;
  double candidate_mean = 0;
  double change_pct = 0;     ///< signed relative change vs baseline
  double threshold_pct = 0;  ///< max(bands, floor) actually applied
  bool gated = false;        ///< false: informational, never fails
  bool failed = false;
  std::string note;
};

/// The core comparison rule, unit-tested in tests/bench_stats_test.cpp:
/// relative change in the metric's bad direction must stay within
/// max(baseline band, candidate band, floor).
inline GateFinding gate_metric(const std::string& bench, const std::string& name,
                               const MetricSummary& base, const MetricSummary& cand,
                               const GateOptions& opts) {
  GateFinding f;
  f.bench = bench;
  f.metric = name;
  f.cls = classify_metric(bench, name);
  f.baseline_mean = base.mean;
  f.candidate_mean = cand.mean;
  f.threshold_pct = std::max({base.band_pct, cand.band_pct, opts.floor_pct});
  if (f.cls == MetricClass::Informational) {
    f.note = "informational";
    return f;
  }
  f.gated = true;
  if (base.mean == 0.0) {
    const double drift = std::fabs(cand.mean - base.mean);
    if (drift > opts.zero_abs_tol &&
        (f.cls == MetricClass::TwoSided ||
         (f.cls == MetricClass::LowerBetter && cand.mean > base.mean) ||
         (f.cls == MetricClass::HigherBetter && cand.mean < base.mean))) {
      f.failed = true;
      f.note = "baseline 0, candidate " + json_num(cand.mean) + " (abs tol " +
               json_num(opts.zero_abs_tol) + ")";
    }
    return f;
  }
  f.change_pct = 100.0 * (cand.mean - base.mean) / std::fabs(base.mean);
  double bad_pct = 0.0;
  switch (f.cls) {
    case MetricClass::LowerBetter: bad_pct = std::max(0.0, f.change_pct); break;
    case MetricClass::HigherBetter: bad_pct = std::max(0.0, -f.change_pct); break;
    case MetricClass::TwoSided: bad_pct = std::fabs(f.change_pct); break;
    case MetricClass::Informational: break;
  }
  f.failed = bad_pct > f.threshold_pct;
  return f;
}

/// A baseline metric the candidate did not report: lost coverage, which
/// fails when gated unless opts.allow_missing.
inline GateFinding missing_metric(const std::string& bench, const std::string& name,
                                  const MetricSummary& base, const GateOptions& opts) {
  GateFinding f;
  f.bench = bench;
  f.metric = name;
  f.cls = classify_metric(bench, name);
  f.baseline_mean = base.mean;
  f.gated = f.cls != MetricClass::Informational;
  f.failed = f.gated && !opts.allow_missing;
  f.note = "metric missing from candidate run";
  return f;
}

/// Gates every metric of `candidate` against the matching `baseline` bench
/// entry. Baseline metrics absent from the candidate — including every
/// metric of a baseline bench the candidate did not run — fail (unless
/// opts.allow_missing); candidate metrics with no baseline are noted as
/// new, never failed. Returns true when nothing failed.
inline bool gate_reports(const std::vector<MultiRunReport>& baseline,
                         const std::vector<MultiRunReport>& candidate,
                         const GateOptions& opts, std::vector<GateFinding>& findings) {
  bool ok = true;
  for (const auto& base : baseline) {
    const bool ran = std::any_of(candidate.begin(), candidate.end(),
                                 [&](const MultiRunReport& c) { return c.bench == base.bench; });
    if (ran) continue;
    for (const auto& [name, bsum] : base.metrics) {
      GateFinding f = missing_metric(base.bench, name, bsum, opts);
      ok = ok && !f.failed;
      findings.push_back(std::move(f));
    }
  }
  for (const auto& cand : candidate) {
    const MultiRunReport* base = nullptr;
    for (const auto& b : baseline) {
      if (b.bench == cand.bench) base = &b;
    }
    if (base == nullptr) {
      GateFinding f;
      f.bench = cand.bench;
      f.metric = "*";
      f.note = "no baseline entry for this bench (new bench?)";
      findings.push_back(std::move(f));
      continue;
    }
    for (const auto& [name, bsum] : base->metrics) {
      const MetricSummary* csum = cand.find_metric(name);
      if (csum == nullptr) {
        GateFinding f = missing_metric(cand.bench, name, bsum, opts);
        ok = ok && !f.failed;
        findings.push_back(std::move(f));
        continue;
      }
      GateFinding f = gate_metric(cand.bench, name, bsum, *csum, opts);
      ok = ok && !f.failed;
      findings.push_back(std::move(f));
    }
    for (const auto& [name, csum] : cand.metrics) {
      if (base->find_metric(name) == nullptr) {
        GateFinding f;
        f.bench = cand.bench;
        f.metric = name;
        f.candidate_mean = csum.mean;
        f.note = "new metric (not in baseline)";
        findings.push_back(std::move(f));
      }
    }
  }
  return ok;
}

/// Applies a synthetic regression of `pct` percent in the bad direction to
/// every gated metric of a snapshot — the --self-test fixture.
inline std::vector<MultiRunReport> inject_regression(std::vector<MultiRunReport> reports,
                                                     double pct) {
  for (auto& r : reports) {
    for (auto& [name, s] : r.metrics) {
      const MetricClass cls = classify_metric(r.bench, name);
      if (cls == MetricClass::Informational) continue;
      const double factor =
          cls == MetricClass::HigherBetter ? 1.0 - pct / 100.0 : 1.0 + pct / 100.0;
      s.mean *= factor;
      if (s.mean == 0.0) s.mean = pct;  // zero-baseline metrics drift absolutely
      s.min *= factor;
      s.max *= factor;
      for (double& v : s.values) v *= factor;
    }
  }
  return reports;
}

/// Self-test of the gate machinery against a snapshot (real or synthetic):
/// an identical candidate must pass, a 20% injected regression must trip.
/// Appends a human-readable transcript to *log.
inline bool gate_self_test(const std::vector<MultiRunReport>& baseline,
                           const GateOptions& opts, std::string* log) {
  const auto append = [&](const std::string& s) {
    if (log) *log += s + "\n";
  };
  std::size_t gated = 0;
  for (const auto& r : baseline) {
    for (const auto& [name, s] : r.metrics) {
      (void)s;
      if (classify_metric(r.bench, name) != MetricClass::Informational) ++gated;
    }
  }
  if (gated == 0) {
    append("self-test: FAIL — baseline has no gated metrics");
    return false;
  }
  std::vector<GateFinding> clean_findings;
  const bool clean_ok = gate_reports(baseline, baseline, opts, clean_findings);
  append("self-test: identical candidate -> " +
         std::string(clean_ok ? "pass (expected)" : "FAIL (gate trips on itself)"));
  std::vector<GateFinding> bad_findings;
  const auto injected = inject_regression(baseline, 20.0);
  const bool bad_ok = gate_reports(baseline, injected, opts, bad_findings);
  std::size_t tripped = 0;
  for (const auto& f : bad_findings) {
    if (f.failed) ++tripped;
  }
  append("self-test: injected 20% regression -> " +
         std::string(!bad_ok ? "tripped" : "MISSED") + " (" + std::to_string(tripped) +
         " of " + std::to_string(gated) + " gated metrics)");
  return clean_ok && !bad_ok;
}

/// Built-in fixture so --self-test works with no snapshot on disk.
inline std::vector<MultiRunReport> synthetic_baseline() {
  const auto mk = [](std::vector<double> values) { return summarize(values); };
  MultiRunReport r;
  r.bench = "e14_egress";
  r.seeds = {42, 43, 44, 45, 46};
  r.config = {{"players", json_num(100)}, {"policy", json_str("director")}};
  r.metrics = {
      {"tick_mean_ms", mk({10.0, 10.4, 9.8, 10.1, 10.2})},
      {"egress_bytes_per_sec", mk({1.20e6, 1.22e6, 1.19e6, 1.21e6, 1.20e6})},
      {"egress_frames_per_sec", mk({15000, 15200, 14900, 15100, 15050})},
      {"pool_misses_per_tick", mk({0, 0, 0, 0, 0})},
  };
  return {r};
}

}  // namespace dyconits::bench
