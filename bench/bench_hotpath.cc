// E17 — the matcher hot path on a fork-heavy SKIP_TILL_ANY_MATCH workload
// (every Kleene extension forks a run, so run-clone and predicate cost
// dominate the matcher). Reports throughput and heap allocations per event
// for the engine's one configuration, replayed two ways:
//
//   push      one Engine::Push per event
//   push_all  one Engine::PushAll over the stream (batched ProbeBatch
//             screening)
//
// Before timing, both replays' ranked output — serial and sharded(2) — is
// checked bit-identical against a serial run under RankerPolicy::kNaiveSort
// (the paper's sort-everything baseline ranker), so the numbers can only
// come from a configuration whose output an independent ranker confirms.
// The layered ablation rows (legacy deep copy, arena, predicate cache, AST
// evaluation) were measured at commit 25ac09d and are kept in
// docs/BENCHMARKS.md (E14, E17) as history.

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "runtime/sharded_engine.h"

// -- Global allocation counter ----------------------------------------------
// Counts every heap allocation in the process; the benchmark reads the
// delta around the replay loop. Relaxed atomics keep the probe cheap.

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cepr {
namespace bench {
namespace {

struct Mode {
  const char* label;
  bool push_all;  // replay via PushAll (batched screening) vs Push
};

constexpr Mode kPush = {"push", false};
constexpr Mode kPushAll = {"push_all", true};

// Fork-heavy dip query: SKIP_TILL_ANY_MATCH + a mixed event-only /
// correlated WHERE. The run cap keeps the fork population bounded the same
// deterministic way in every replay.
std::string HotQuery() {
  return "SELECT a.symbol, a.price, MIN(b.price), c.price "
         "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
         "USING SKIP_TILL_ANY_MATCH "
         "PARTITION BY symbol "
         "WHERE b[i].price < b[i-1].price AND b[i].price < 900 "
         "  AND b[1].price < a.price AND c.price > a.price "
         "WITHIN 100 MILLISECONDS "
         "RANK BY (a.price - MIN(b.price)) / a.price DESC "
         "LIMIT 10 EMIT ON WINDOW CLOSE";
}

QueryOptions HotOptions(RankerPolicy ranker = RankerPolicy::kPruned) {
  QueryOptions options;
  options.ranker = ranker;
  options.matcher.max_active_runs = 256;
  return options;
}

const std::vector<Event>& HotStream(size_t n) {
  return StockStream(n, /*v_probability=*/0.05, /*num_symbols=*/4);
}

std::vector<RankedResult> RunSerialMode(const Mode& mode, size_t n,
                                       RankerPolicy ranker = RankerPolicy::kPruned) {
  auto engine = StockEngine();
  CollectSink sink;
  const Status s =
      engine->RegisterQuery("q", HotQuery(), HotOptions(ranker), &sink);
  CEPR_CHECK(s.ok()) << s.ToString();
  if (mode.push_all) {
    ReplayBatch(engine.get(), HotStream(n));
  } else {
    Replay(engine.get(), HotStream(n));
  }
  return sink.results();
}

std::vector<RankedResult> RunShardedMode(const Mode& mode, size_t n) {
  ShardedEngineOptions engine_options;
  engine_options.num_shards = 2;
  ShardedEngine engine(engine_options);
  CEPR_CHECK(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  CollectSink sink;
  const Status s = engine.RegisterQuery("q", HotQuery(), HotOptions(), &sink);
  CEPR_CHECK(s.ok()) << s.ToString();
  if (mode.push_all) {
    const Status push = engine.PushAll(std::vector<Event>(HotStream(n)));
    CEPR_CHECK(push.ok()) << push.ToString();
  } else {
    for (const Event& e : HotStream(n)) {
      const Status push = engine.Push(Event(e));
      CEPR_CHECK(push.ok()) << push.ToString();
    }
  }
  engine.Finish();
  return sink.results();
}

// Bit-exact output identity (match.id excluded: matcher-local by design).
void CheckIdentical(const std::vector<RankedResult>& expected,
                    const std::vector<RankedResult>& actual,
                    const std::string& label) {
  CEPR_CHECK(expected.size() == actual.size()) << label << ": result count";
  for (size_t i = 0; i < expected.size(); ++i) {
    const RankedResult& e = expected[i];
    const RankedResult& a = actual[i];
    CEPR_CHECK(e.window_id == a.window_id && e.rank == a.rank &&
               e.provisional == a.provisional &&
               e.match.first_ts == a.match.first_ts &&
               e.match.last_ts == a.match.last_ts &&
               e.match.last_sequence == a.match.last_sequence &&
               e.match.score == a.match.score && e.match.row == a.match.row)
        << label << ": result " << i << " diverged";
  }
}

// One-time verification on a smaller stream against the kNaiveSort ranker,
// so a benchmark run can never silently time output that is wrong.
void VerifyModesOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    constexpr size_t kVerifyEvents = 4000;
    const auto baseline =
        RunSerialMode(kPush, kVerifyEvents, RankerPolicy::kNaiveSort);
    CEPR_CHECK(!baseline.empty()) << "verification workload had no results";
    for (const Mode& mode : {kPush, kPushAll}) {
      CheckIdentical(baseline, RunSerialMode(mode, kVerifyEvents),
                     std::string("serial ") + mode.label);
      CheckIdentical(baseline, RunShardedMode(mode, kVerifyEvents),
                     std::string("sharded ") + mode.label);
    }
  });
}

void BM_HotPath(benchmark::State& state, const Mode& mode) {
  constexpr size_t kEvents = 20000;
  // Verify first: it replays shorter streams through the shared StockStream
  // cache, so the timed stream must be (re)fetched after it.
  VerifyModesOnce();
  const std::vector<Event>& events = HotStream(kEvents);  // pre-generated
  uint64_t allocs = 0;
  uint64_t matches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = StockEngine();
    CollectSink sink;
    const Status s =
        engine->RegisterQuery("q", HotQuery(), HotOptions(), &sink);
    CEPR_CHECK(s.ok()) << s.ToString();
    state.ResumeTiming();

    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    if (mode.push_all) {
      ReplayBatch(engine.get(), events);
    } else {
      Replay(engine.get(), events);
    }
    allocs += g_allocs.load(std::memory_order_relaxed) - before;
    matches += sink.results().size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kEvents));
  const double per_event =
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = per_event;
  state.counters["results"] =
      static_cast<double>(matches) / static_cast<double>(state.iterations());
}

BENCHMARK_CAPTURE(BM_HotPath, push, kPush)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HotPath, push_all, kPushAll)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace cepr

CEPR_BENCH_MAIN();
