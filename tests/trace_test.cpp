// Unit tests for src/trace: ring-buffer recording, tick-phase profiling,
// and the Chrome trace_event exporter. The exporter tests parse the emitted
// JSON with a minimal recursive-descent parser so a malformed file fails
// here instead of silently refusing to load in chrome://tracing.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bots/simulation.h"
#include "trace/export.h"
#include "trace/tick_profiler.h"
#include "trace/trace.h"

namespace dyconits::trace {
namespace {

// --------------------------------------------------------- tiny JSON parser

struct Json {
  enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      ADD_FAILURE() << "missing key: " << key;
      static const Json null;
      return null;
    }
    return it->second;
  }
  bool has(const std::string& key) const { return fields.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  Json parse() {
    const Json v = value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing garbage after JSON document";
    return v;
  }

  bool ok() const { return ok_; }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      ok_ = false;
      ADD_FAILURE() << "expected '" << c << "' at offset " << pos_;
      return;
    }
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': case 'f': return boolean();
      case 'n': literal("null"); return {};
      default: return number();
    }
  }

  Json object() {
    Json v;
    v.kind = Json::Object;
    expect('{');
    if (peek() == '}') { ++pos_; return v; }
    while (ok_) {
      Json key = string_value();
      expect(':');
      v.fields[key.str] = value();
      if (peek() == ',') { ++pos_; continue; }
      break;
    }
    expect('}');
    return v;
  }

  Json array() {
    Json v;
    v.kind = Json::Array;
    expect('[');
    if (peek() == ']') { ++pos_; return v; }
    while (ok_) {
      v.items.push_back(value());
      if (peek() == ',') { ++pos_; continue; }
      break;
    }
    expect(']');
    return v;
  }

  Json string_value() {
    Json v;
    v.kind = Json::String;
    expect('"');
    while (ok_ && pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) { ok_ = false; break; }
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) { ok_ = false; break; }
            c = static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: ok_ = false; ADD_FAILURE() << "bad escape \\" << esc; return v;
        }
      }
      v.str += c;
    }
    expect('"');
    return v;
  }

  Json number() {
    Json v;
    v.kind = Json::Number;
    skip_ws();
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) {
      ok_ = false;
      ADD_FAILURE() << "expected number at offset " << pos_;
      return v;
    }
    v.num = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  Json boolean() {
    Json v;
    v.kind = Json::Bool;
    if (peek() == 't') { literal("true"); v.b = true; }
    else { literal("false"); v.b = false; }
    return v;
  }

  void literal(const std::string& lit) {
    skip_ws();
    if (s_.compare(pos_, lit.size(), lit) != 0) {
      ok_ = false;
      ADD_FAILURE() << "expected '" << lit << "' at offset " << pos_;
      return;
    }
    pos_ += lit.size();
  }

  std::string s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// The tracer is a process-wide singleton; every test starts from a clean
// slate and leaves one behind.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_tracer(); }
  void TearDown() override { reset_tracer(); }

  static void reset_tracer() {
    auto& t = Tracer::instance();
    t.stop_recording();
    t.clear();
    t.set_profiler(nullptr);
    t.set_sim_clock(nullptr);
    t.set_tick(0);
  }

  static void busy_spin_ns(std::int64_t ns) {
    const auto start = std::chrono::steady_clock::now();
    while ((std::chrono::steady_clock::now() - start).count() < ns) {
    }
  }
};

// ------------------------------------------------------------------ Tracer

TEST_F(TraceTest, InactiveScopesRecordNothing) {
  EXPECT_FALSE(Tracer::instance().active());
  {
    TRACE_SCOPE("test.span");
  }
  TRACE_INSTANT("test.marker");
  EXPECT_EQ(Tracer::instance().recorded(), 0u);
}

TEST_F(TraceTest, RecordsSpansAndInstants) {
  Tracer::instance().start_recording(16);
  {
    TRACE_SCOPE("test.outer");
    busy_spin_ns(1000);
    TRACE_INSTANT("test.marker");
  }
  const auto records = Tracer::instance().snapshot();
  ASSERT_EQ(records.size(), 2u);
  // Scopes complete after their contents: the instant lands first.
  EXPECT_STREQ(records[0].name, "test.marker");
  EXPECT_TRUE(records[0].instant);
  EXPECT_EQ(records[0].wall_dur_ns, 0);
  EXPECT_STREQ(records[1].name, "test.outer");
  EXPECT_FALSE(records[1].instant);
  EXPECT_GT(records[1].wall_dur_ns, 0);
  // No simulated clock installed.
  EXPECT_EQ(records[1].sim_us, -1);
}

TEST_F(TraceTest, RingOverwritesOldestAndCountsDrops) {
  Tracer::instance().start_recording(4);
  for (int i = 0; i < 10; ++i) {
    TRACE_INSTANT("test.tick");
  }
  auto& t = Tracer::instance();
  EXPECT_EQ(t.recorded(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto records = t.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-to-newest: wall timestamps must be non-decreasing after unwrap.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].wall_start_ns, records[i - 1].wall_start_ns);
  }
}

TEST_F(TraceTest, StampsSimTimeAndTick) {
  SimClock clock;
  clock.advance(SimDuration::millis(250));
  auto& t = Tracer::instance();
  t.set_sim_clock(&clock);
  t.set_tick(7);
  t.start_recording(4);
  TRACE_INSTANT("test.stamped");
  const auto records = t.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sim_us, 250'000);
  EXPECT_EQ(records[0].tick, 7u);
}

TEST_F(TraceTest, WorkerThreadSpansMergeWithoutCorruption) {
  auto& t = Tracer::instance();
  t.start_recording(1 << 12);
  constexpr std::size_t kShards = 4;
  constexpr int kSpansPerShard = 50;
  const auto emit = [] {
    for (int i = 0; i < kSpansPerShard; ++i) {
      TRACE_SCOPE("test.worker");
    }
  };
  {
    TRACE_SCOPE("test.main");
    // The calling thread is shard 0; the other shards run concurrently.
    std::vector<std::thread> workers;
    for (std::size_t shard = 1; shard < kShards; ++shard) workers.emplace_back(emit);
    emit();
    for (std::thread& w : workers) w.join();
  }
  const auto records = t.snapshot();
  // Every span from every executor survives: nothing lost, nothing torn.
  ASSERT_EQ(records.size(), kShards * kSpansPerShard + 1);
  std::map<std::uint32_t, int> by_tid;
  int workers = 0;
  for (const auto& r : records) {
    ASSERT_NE(r.name, nullptr);
    if (std::string(r.name) == "test.worker") {
      ++workers;
      by_tid[r.tid] += 1;
    } else {
      EXPECT_STREQ(r.name, "test.main");
    }
    EXPECT_GE(r.wall_dur_ns, 0);
  }
  EXPECT_EQ(workers, kShards * kSpansPerShard);
  // One ring per executor (the caller ran shard 0), each fully populated.
  ASSERT_EQ(by_tid.size(), kShards);
  for (const auto& [tid, n] : by_tid) EXPECT_EQ(n, kSpansPerShard) << "tid " << tid;

  // The merged stream still exports as valid Chrome JSON.
  std::ostringstream os;
  write_chrome_trace(os, records);
  JsonParser parser(os.str());
  const Json root = parser.parse();
  EXPECT_EQ(root.at("traceEvents").items.size(), records.size() + 1);  // + metadata
}

TEST_F(TraceTest, ProfilerOnlyObservesInstallingThreadSpans) {
  TickProfiler p;
  p.add_phase("test.phase");
  p.begin_tick(1);
  {
    ProfilerScope scope(p);  // installed on this (the "tick") thread
    {
      TRACE_SCOPE("test.phase");
      busy_spin_ns(1000);
    }
    // A worker emitting the same phase name for much longer must not feed
    // the profiler: per-phase tick accounting is the tick thread's story.
    std::thread worker([] {
      TRACE_SCOPE("test.phase");
      busy_spin_ns(3'000'000);
    });
    worker.join();
  }
  p.end_tick(0.001);
  const auto r = p.report();
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_GT(r.phases[0].ms.max(), 0.0);
  EXPECT_LT(r.phases[0].ms.max(), 3.0) << "worker span leaked into the tick profiler";
}

// ------------------------------------------------------------ TickProfiler

TEST_F(TraceTest, ProfilerAggregatesRegisteredPhases) {
  TickProfiler p;
  p.add_phase("phase.a");
  p.add_phase("phase.b");
  p.add_phase("phase.sub", TickProfiler::PhaseKind::Nested);

  for (std::uint64_t tick = 1; tick <= 3; ++tick) {
    p.begin_tick(tick);
    p.observe("phase.a", 1'000'000);   // 1 ms
    p.observe("phase.a", 500'000);     // same phase twice: accumulates
    p.observe("phase.b", 2'000'000);   // 2 ms
    p.observe("phase.sub", 250'000);   // nested: excluded from coverage
    p.observe("phase.unknown", 9'000'000);  // unregistered: ignored
    p.end_tick(3.5);
  }

  const auto r = p.report();
  EXPECT_EQ(r.ticks, 3u);
  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[0].name, "phase.a");
  EXPECT_DOUBLE_EQ(r.phases[0].ms.mean(), 1.5);
  EXPECT_DOUBLE_EQ(r.phases[1].ms.mean(), 2.0);
  EXPECT_DOUBLE_EQ(r.phases[2].ms.mean(), 0.25);
  // Coverage counts top-level phases only: (1.5 + 2.0) / 3.5 = 1.0.
  EXPECT_DOUBLE_EQ(r.phase_mean_sum(), 3.5);
  EXPECT_NEAR(r.coverage(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.tick_ms.mean(), 3.5);
}

TEST_F(TraceTest, ProfilerIgnoresSpansOutsideTick) {
  TickProfiler p;
  p.add_phase("phase.a");
  p.observe("phase.a", 1'000'000);  // before any begin_tick
  p.begin_tick(1);
  p.end_tick(1.0);
  p.observe("phase.a", 1'000'000);  // after end_tick
  const auto r = p.report();
  EXPECT_DOUBLE_EQ(r.phases[0].ms.mean(), 0.0);
}

TEST_F(TraceTest, ProfilerModeledCostAndReset) {
  TickProfiler p;
  p.add_phase("net.modeled");
  p.begin_tick(1);
  p.add_modeled_ms("net.modeled", 2.5);
  p.end_tick(2.5);
  EXPECT_DOUBLE_EQ(p.report().phases[0].ms.mean(), 2.5);

  p.reset();  // clears stats, keeps registrations
  EXPECT_TRUE(p.report().empty());
  p.begin_tick(2);
  p.add_modeled_ms("net.modeled", 1.0);
  p.end_tick(1.0);
  EXPECT_DOUBLE_EQ(p.report().phases[0].ms.mean(), 1.0);
}

TEST_F(TraceTest, ProfilerScopeReceivesSpans) {
  TickProfiler p;
  p.add_phase("test.phase");
  p.begin_tick(1);
  {
    ProfilerScope scope(p);
    TRACE_SCOPE("test.phase");
    busy_spin_ns(1000);
  }
  p.end_tick(0.001);
  EXPECT_EQ(Tracer::instance().profiler(), nullptr);  // restored
  EXPECT_GT(p.report().phases[0].ms.mean(), 0.0);
}

// --------------------------------------------------------------- exporters

TEST_F(TraceTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

TEST_F(TraceTest, ChromeTraceIsValidAndComplete) {
  SimClock clock;
  clock.advance(SimDuration::seconds(1));
  auto& t = Tracer::instance();
  t.set_sim_clock(&clock);
  t.set_tick(42);
  t.start_recording(64);
  {
    TRACE_SCOPE("server.tick");
    {
      TRACE_SCOPE("server.dispatch");
      busy_spin_ns(2000);
    }
    TRACE_INSTANT("test.marker");
  }

  std::ostringstream os;
  write_chrome_trace(os, t.snapshot());

  JsonParser parser(os.str());
  const Json doc = parser.parse();
  ASSERT_TRUE(parser.ok()) << os.str();
  ASSERT_EQ(doc.kind, Json::Object);
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Array);
  // Metadata event + dispatch span + marker + tick span.
  ASSERT_EQ(events.items.size(), 4u);

  std::size_t spans = 0, instants = 0, meta = 0;
  for (const Json& e : events.items) {
    ASSERT_EQ(e.kind, Json::Object);
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ph"));
    const std::string ph = e.at("ph").str;
    if (ph == "M") {
      ++meta;
      continue;
    }
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    // Dual timestamps: simulated time and tick ride along in args.
    EXPECT_DOUBLE_EQ(e.at("args").at("sim_us").num, 1'000'000.0);
    EXPECT_DOUBLE_EQ(e.at("args").at("tick").num, 42.0);
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("dur").num, 0.0);
    } else if (ph == "i") {
      ++instants;
    } else {
      ADD_FAILURE() << "unexpected ph: " << ph;
    }
  }
  EXPECT_EQ(meta, 1u);
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);

  // Nesting must survive the export: dispatch starts at or after tick
  // starts and ends at or before tick ends (chrome://tracing draws the
  // flame graph from these intervals).
  const Json* tick = nullptr;
  const Json* dispatch = nullptr;
  for (const Json& e : events.items) {
    if (e.at("name").str == "server.tick") tick = &e;
    if (e.at("name").str == "server.dispatch") dispatch = &e;
  }
  ASSERT_NE(tick, nullptr);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_GE(dispatch->at("ts").num, tick->at("ts").num);
  EXPECT_LE(dispatch->at("ts").num + dispatch->at("dur").num,
            tick->at("ts").num + tick->at("dur").num);
}

TEST_F(TraceTest, ChromeTraceOfEmptySnapshotIsValid) {
  std::ostringstream os;
  write_chrome_trace(os, {});
  JsonParser parser(os.str());
  const Json doc = parser.parse();
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(doc.at("traceEvents").items.size(), 1u);  // metadata only
}

TEST_F(TraceTest, PhaseTableListsPhasesAndCoverage) {
  TickProfiler p;
  p.add_phase("phase.a");
  p.add_phase("phase.sub", TickProfiler::PhaseKind::Nested);
  p.begin_tick(1);
  p.observe("phase.a", 2'000'000);
  p.observe("phase.sub", 500'000);
  p.end_tick(2.0);

  std::ostringstream os;
  print_phase_table(os, p.report());
  const std::string table = os.str();
  EXPECT_NE(table.find("phase.a"), std::string::npos);
  EXPECT_NE(table.find("phase.sub"), std::string::npos);
  EXPECT_NE(table.find("coverage"), std::string::npos);
  EXPECT_NE(table.find("nested"), std::string::npos);
}

// ------------------------------------------------- end-to-end (simulation)

// The acceptance invariant for the instrumentation: the registered
// top-level phases tile the tick, so their mean sum stays within 10% of
// the measured mean tick time.
TEST_F(TraceTest, SimulationPhaseSumMatchesTickTime) {
  bots::SimulationConfig cfg;
  cfg.players = 8;
  cfg.duration = SimDuration::seconds(10);
  cfg.warmup = SimDuration::seconds(4);
  cfg.policy = "director";
  cfg.seed = 7;
  cfg.profile_phases = true;

  Tracer::instance().start_recording(1 << 14);
  bots::Simulation sim(cfg);
  const auto result = sim.run();

  const auto& phases = result.phases;
  ASSERT_FALSE(phases.empty());
  EXPECT_GT(phases.ticks, 50u);
  EXPECT_GT(phases.tick_ms.mean(), 0.0);
  EXPECT_NEAR(phases.coverage(), 1.0, 0.10)
      << "phase sum " << phases.phase_mean_sum() << " ms vs tick mean "
      << phases.tick_ms.mean() << " ms";

  // The run's ring buffer exports to valid Chrome JSON too.
  std::ostringstream os;
  write_chrome_trace(os, Tracer::instance().snapshot());
  JsonParser parser(os.str());
  const Json doc = parser.parse();
  ASSERT_TRUE(parser.ok());
  EXPECT_GT(doc.at("traceEvents").items.size(), 100u);
}

}  // namespace
}  // namespace dyconits::trace
