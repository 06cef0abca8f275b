// E6 — Middleware overhead microbenchmarks (google-benchmark), plus a
// measured end-to-end check. The microbenchmarks support the paper's
// "thin middleware" claim with numbers: cost of enqueue, coalesce, flush,
// subscription churn, and policy bound computation — compared against the
// vanilla serialize-and-send unit of work it replaces. The `--measured`
// section then runs short vanilla and director simulations and prints the
// tick-phase profiler's breakdown, so the per-operation costs above can be
// reconciled with where a real tick actually spends its time.
//
//   e6_overhead [--benchmark_filter=...] [--measured] [--players=60]
//               [--duration=20] [--trace=FILE]
//               [--runs=N | --seeds=a,b,c] [--json=FILE]
// The JSON report covers the --measured simulations (the microbenchmark
// numbers already have google-benchmark's own --benchmark_format=json).
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "dyconit/policies/director.h"
#include "dyconit/policies/factory.h"
#include "dyconit/system.h"
#include "protocol/codec.h"
#include "world/chunk.h"
#include "world/terrain.h"

namespace {

using namespace dyconits;
using dyconit::Bounds;
using dyconit::DyconitId;
using dyconit::DyconitSystem;
using dyconit::Update;

struct NullSink : dyconit::FlushSink {
  void deliver(dyconit::SubscriberId, std::uint64_t,
               const std::vector<FlushedUpdate>& updates) override {
    benchmark::DoNotOptimize(updates.data());
  }
};

Update make_update(std::uint32_t entity, SimTime now) {
  Update u;
  u.msg = protocol::EntityMove{entity, {1.0, 2.0, 3.0}, 90.0f, 0.0f};
  u.weight = 0.2;
  u.created = now;
  u.coalesce_key = dyconit::coalesce_key_entity(entity);
  return u;
}

/// Cost of one update() fan-out to N subscribers with fresh coalesce keys.
void BM_EnqueueFanout(benchmark::State& state) {
  const auto subs = static_cast<std::size_t>(state.range(0));
  SimClock clock;
  DyconitSystem sys(clock);
  NullSink sink;
  const auto unit = DyconitId::chunk_entities({0, 0});
  for (std::size_t s = 1; s <= subs; ++s) {
    sys.subscribe(unit, static_cast<dyconit::SubscriberId>(s), Bounds::infinite());
  }
  std::uint32_t entity = 1;
  std::size_t since_flush = 0;
  for (auto _ : state) {
    sys.update(unit, make_update(entity++ % 512 + 1, clock.now()));
    if (++since_flush >= 4096) {  // keep queues bounded without timing flush
      state.PauseTiming();
      sys.flush_all(sink);
      since_flush = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(subs));
}
BENCHMARK(BM_EnqueueFanout)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

/// BM_EnqueueFanout's worst case for shared queues: every subscriber holds
/// a different view. Staggered bounds make subscriber k come due alone, at
/// step k of an untimed set-up stream (its bound is zero for that one
/// tick), so it goes idle and opens a queue of its own at the next update;
/// after N steps no two views are equal and each update appends to N
/// queues. Should cost no more than one private queue per subscriber did.
void BM_EnqueueFanoutDiverged(benchmark::State& state) {
  const auto subs = static_cast<std::size_t>(state.range(0));
  SimClock clock;
  DyconitSystem sys(clock);
  NullSink sink;
  const auto unit = DyconitId::chunk_entities({0, 0});
  std::vector<dyconit::Subscription> held;
  for (std::size_t s = 1; s <= subs; ++s) {
    held.push_back(
        sys.subscribe(unit, static_cast<dyconit::SubscriberId>(s), Bounds::infinite()));
  }
  std::uint32_t entity = 1;
  auto diverge = [&] {
    for (const dyconit::Subscription& h : held) {
      sys.update(unit, make_update(entity++ % 512 + 1, clock.now()));
      sys.set_bounds(h, Bounds::zero());
      sys.tick(sink);
      sys.set_bounds(h, Bounds::infinite());
    }
  };
  diverge();
  std::size_t since_flush = 0;
  const std::uint64_t appends0 = sys.stats().queue_appends;
  std::uint64_t setup_appends = 0;
  for (auto _ : state) {
    sys.update(unit, make_update(entity++ % 512 + 1, clock.now()));
    if (++since_flush >= 4096) {  // keep queues bounded without timing flush
      state.PauseTiming();
      sys.flush_all(sink);
      const std::uint64_t before = sys.stats().queue_appends;
      diverge();
      setup_appends += sys.stats().queue_appends - before;
      since_flush = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(subs));
  state.counters["queues_per_update"] = benchmark::Counter(
      static_cast<double>(sys.stats().queue_appends - appends0 - setup_appends) /
      static_cast<double>(std::max<benchmark::IterationCount>(1, state.iterations())));
}
BENCHMARK(BM_EnqueueFanoutDiverged)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

/// Cost of an enqueue that coalesces into an existing entry (steady state
/// of a high-rate mover).
void BM_EnqueueCoalesce(benchmark::State& state) {
  SimClock clock;
  DyconitSystem sys(clock);
  const auto unit = DyconitId::chunk_entities({0, 0});
  sys.subscribe(unit, 1, Bounds::infinite());
  sys.update(unit, make_update(7, clock.now()));  // seed the entry
  for (auto _ : state) {
    sys.update(unit, make_update(7, clock.now()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnqueueCoalesce);

/// Full middleware cycle: enqueue a batch, tick-flush it through the sink.
void BM_FlushCycle(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  SimClock clock;
  DyconitSystem sys(clock);
  NullSink sink;
  const auto unit = DyconitId::chunk_entities({0, 0});
  sys.subscribe(unit, 1, Bounds::zero());
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < batch; ++i) {
      sys.update(unit, make_update(i + 1, clock.now()));
    }
    sys.tick(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FlushCycle)->Arg(1)->Arg(16)->Arg(128);

/// One tick of a mostly idle system: N idle subscriptions (50 per dyconit,
/// infinite bounds, nothing queued) plus 64 updates to one hot zero-bound
/// subscription. The flush round visits only pending queues, so ns/tick
/// should stay flat as N grows from 1k to 100k.
void BM_TickMostlyIdle(benchmark::State& state) {
  const auto idle = static_cast<std::int32_t>(state.range(0));
  constexpr std::int32_t kSubsPerDyconit = 50;
  SimClock clock;
  DyconitSystem sys(clock);
  NullSink sink;
  for (std::int32_t i = 0; i < idle; ++i) {
    sys.subscribe(DyconitId::chunk_entities({i / kSubsPerDyconit, 0}),
                  static_cast<dyconit::SubscriberId>(i % kSubsPerDyconit + 1),
                  Bounds::infinite());
  }
  const auto hot = DyconitId::chunk_entities({-1, -1});
  sys.subscribe(hot, 1, Bounds::zero());
  sys.tick(sink);  // settle the set-up's GC checks
  for (auto _ : state) {
    for (std::uint32_t e = 1; e <= 64; ++e) sys.update(hot, make_update(e, clock.now()));
    sys.tick(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TickMostlyIdle)->Arg(1000)->Arg(10000)->Arg(100000);

/// One tick of a system holding N pending queues (16 subscribers per
/// dyconit, a staleness bound of ~1 s) of which 64 come due each tick: the
/// dyconits are fed in groups of four, one group per tick interval, and
/// each tick flushes the group whose updates turned one bound old and feeds
/// it again, so N stays pending. The flush round visits only due queues,
/// so ns/tick should stay flat as N grows from 1k to 100k.
void BM_TickManyPendingFewDue(benchmark::State& state) {
  const auto pending = static_cast<std::int32_t>(state.range(0));
  constexpr std::int32_t kSubsPerDyconit = 16;
  constexpr std::int32_t kDyconitsPerGroup = 4;  // 64 due queues per tick
  const std::int32_t groups = pending / (kSubsPerDyconit * kDyconitsPerGroup);
  const SimDuration interval = SimDuration::micros(1'000'000 / groups);
  const Bounds bounds{interval * groups, 1e18};  // ~1 s; a whole number of intervals
  SimClock clock;
  DyconitSystem sys(clock);
  NullSink sink;
  auto unit = [](std::int32_t group, std::int32_t k) {
    return DyconitId::chunk_entities({group, k});
  };
  auto feed = [&](std::int32_t group) {
    for (std::int32_t k = 0; k < kDyconitsPerGroup; ++k) {
      sys.update(unit(group, k), make_update(static_cast<std::uint32_t>(k + 1), clock.now()));
    }
  };
  for (std::int32_t g = 0; g < groups; ++g) {
    for (std::int32_t k = 0; k < kDyconitsPerGroup; ++k) {
      for (std::int32_t s = 1; s <= kSubsPerDyconit; ++s) {
        sys.subscribe(unit(g, k), static_cast<dyconit::SubscriberId>(s), bounds);
      }
    }
  }
  for (std::int32_t g = 0; g < groups; ++g) {
    if (g > 0) clock.advance(interval);
    feed(g);
  }
  sys.tick(sink);  // settles the set-up's GC checks; nothing is due yet
  std::int32_t due = 0;
  const std::uint64_t visited0 = sys.stats().queues_visited;
  for (auto _ : state) {
    clock.advance(interval);
    sys.tick(sink);
    feed(due);
    due = (due + 1) % groups;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["visited_per_tick"] = benchmark::Counter(
      static_cast<double>(sys.stats().queues_visited - visited0) /
      static_cast<double>(std::max<benchmark::IterationCount>(1, state.iterations())));
}
BENCHMARK(BM_TickManyPendingFewDue)->Arg(1000)->Arg(10000)->Arg(100000);

/// The vanilla unit of work one enqueue replaces: serialize the message
/// into a frame. (Compare items/s with BM_EnqueueFanout/1.)
void BM_VanillaSerialize(benchmark::State& state) {
  const protocol::AnyMessage msg = protocol::EntityMove{7, {1.0, 2.0, 3.0}, 90.0f, 0.0f};
  for (auto _ : state) {
    net::Frame f = protocol::encode(msg);
    benchmark::DoNotOptimize(f.payload.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaSerialize);

/// Subscription churn: a player crossing a chunk border re-subscribes a
/// ring of units.
void BM_SubscribeUnsubscribe(benchmark::State& state) {
  SimClock clock;
  DyconitSystem sys(clock);
  const auto unit = DyconitId::chunk_entities({0, 0});
  for (auto _ : state) {
    sys.subscribe(unit, 1, Bounds::zero());
    sys.unsubscribe(unit, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscribeUnsubscribe);

/// Policy bound computation (called per subscription on chunk-cross).
void BM_BoundsFor(benchmark::State& state) {
  const auto policy = dyconit::make_policy("director");
  const auto unit = DyconitId::chunk_entities({6, 3});
  const world::Vec3 pos{8, 20, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->bounds_for(unit, pos));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundsFor);

/// The Director's full retune pass over S subscriptions (its worst-case
/// adaptation step; runs at most once per adjust interval).
void BM_RetuneAllBounds(benchmark::State& state) {
  const auto subs = static_cast<std::size_t>(state.range(0));
  SimClock clock;
  DyconitSystem sys(clock);
  dyconit::DirectorPolicy policy;
  std::vector<dyconit::PlayerView> players;
  for (std::size_t s = 1; s <= 16; ++s) {
    players.push_back({static_cast<dyconit::SubscriberId>(s), 1,
                       {static_cast<double>(s) * 10, 0, 0}});
  }
  std::size_t n = 0;
  while (n < subs) {
    for (const auto& p : players) {
      const auto unit = DyconitId::chunk_entities(
          {static_cast<std::int32_t>(n % 32), static_cast<std::int32_t>(n / 32)});
      sys.subscribe(unit, p.sub, Bounds::zero());
      if (++n >= subs) break;
    }
  }
  dyconit::LoadSample load;
  load.now = clock.now();
  for (auto _ : state) {
    dyconit::PolicyContext ctx(sys, players, load);
    dyconit::retune_all_bounds(policy, ctx);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(subs));
}
BENCHMARK(BM_RetuneAllBounds)->Arg(1000)->Arg(10000)->Arg(100000);

/// Approximate memory cost of an idle dyconit plus one subscription.
void BM_MemoryFootprint(benchmark::State& state) {
  for (auto _ : state) {
    SimClock clock;
    DyconitSystem sys(clock);
    for (int i = 0; i < 1000; ++i) {
      sys.subscribe(DyconitId::chunk_entities({i, 0}), 1, Bounds::zero());
    }
    benchmark::DoNotOptimize(sys.dyconit_count());
  }
  state.counters["sizeof_dyconit_B"] =
      static_cast<double>(sizeof(dyconit::Dyconit));
  state.counters["sizeof_update_B"] = static_cast<double>(sizeof(Update));
}
BENCHMARK(BM_MemoryFootprint);

/// Decoding one ChunkData snapshot into a reused chunk, a client's cost per
/// chunk it receives. Shapes: 0 = a generated terrain chunk, 1 = one
/// 16,384-block run, 2 = 16,384 one-block runs (the 64 KB worst case).
void BM_ChunkDecodeRle(benchmark::State& state) {
  world::Chunk src({3, -2});
  if (state.range(0) == 0) {
    world::TerrainGenerator(1).generate(src);
  } else {
    for (int x = 0; x < world::kChunkSize; ++x) {
      for (int z = 0; z < world::kChunkSize; ++z) {
        for (int y = 0; y < world::kWorldHeight; ++y) {
          const bool stone = state.range(0) == 1 || y % 2 == 0;
          src.set_local(x, y, z, stone ? world::Block::Stone : world::Block::Air);
        }
      }
    }
  }
  const std::vector<std::uint8_t> rle = src.encode_rle();
  world::Chunk chunk({3, -2});
  for (auto _ : state) {
    if (!chunk.decode_rle(rle.data(), rle.size())) state.SkipWithError("decode rejected");
    benchmark::DoNotOptimize(chunk.non_air_count());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(rle.size()));
  state.counters["runs"] = static_cast<double>(rle.size() / 4);
}
BENCHMARK(BM_ChunkDecodeRle)->ArgName("shape")->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace dyconits::bench;
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  dyconits::Flags flags(argc, argv);
  check_flags(flags, {"benchmark_*", "measured"});
  benchmark::RunSpecifiedBenchmarks();

  // End-to-end: measured per-phase cost of a real tick, for the vanilla
  // baseline and the director. This is the denominator the microbenchmark
  // numbers should be read against.
  const int rc = run_seeded(flags, [&](std::uint64_t seed) {
    JsonReport report;
    report.bench = "e6_overhead";
    report.config = {
        {"players", json_num(static_cast<double>(flags.get_int("players", 60)))},
        {"seed", json_num(static_cast<double>(seed))},
        {"measured", json_num(flags.get_bool("measured", false) ? 1.0 : 0.0)},
    };
    if (flags.get_bool("measured", false)) {
      print_title("E6b: measured tick-phase breakdown (ms per tick)");
      for (const std::string policy : {"vanilla", "director"}) {
        auto cfg = base_config(flags, /*default_duration_s=*/20, /*default_warmup_s=*/8);
        cfg.seed = seed;
        cfg.players = static_cast<std::size_t>(flags.get_int("players", 60));
        cfg.policy = policy;
        cfg.profile_phases = true;
        const auto r = run(cfg);
        report.metrics.push_back({"tick_mean_ms." + policy, r.tick_ms.mean()});
        report.metrics.push_back(
            {"total_kbps." + policy, r.egress_bytes_per_sec / 1000.0});
        print_phase_breakdown(r);
      }
    }
    return report;
  });
  finish_trace(flags);
  benchmark::Shutdown();
  return rc;
}
