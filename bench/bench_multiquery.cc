// E7 — Multi-query scale-out, and E16 — shared multi-query evaluation.
//
// E7: the demo ran several live query panels over one feed. Every ingested
// event visits every registered query, so aggregate ingest throughput is
// expected to fall ~1/q while per-query processed-events/s stays flat.
//
// E16: a fleet of queries that differ only in one selection constant
// (`a.volume = V`). With shared evaluation the engine interns one NFA
// template for the whole fleet and the predicate index dispatches each
// event to the handful of queries whose entry predicate can match, so
// per-event cost stays near-flat as the fleet grows. The unshared rows
// (every event visits every query) were measured at commit 25ac09d and are
// kept as history in docs/BENCHMARKS.md and EXPERIMENTS.md (E16).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace cepr {
namespace bench {
namespace {

constexpr size_t kEvents = 50000;

void BM_MultiQuery(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  const auto& events = StockStream(kEvents, 0.01);
  for (auto _ : state) {
    auto engine = StockEngine();
    std::vector<std::unique_ptr<NullSink>> sinks;
    for (int i = 0; i < num_queries; ++i) {
      sinks.push_back(std::make_unique<NullSink>());
      // Vary the anchor threshold per query so plans differ slightly, as
      // the demo's independently-authored panels would.
      std::string query =
          "SELECT a.symbol, MIN(b.price) FROM Stock "
          "MATCH PATTERN SEQ(a, b+, c) PARTITION BY symbol "
          "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
          "  AND c.price > a.price AND a.price > " +
          std::to_string(5 + i) +
          " WITHIN 100 MILLISECONDS "
          "RANK BY (a.price - MIN(b.price)) / a.price DESC "
          "LIMIT 5 EMIT ON WINDOW CLOSE";
      const Status s = engine->RegisterQuery("q" + std::to_string(i), query,
                                             QueryOptions{}, sinks.back().get());
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    Replay(engine.get(), events);
  }
  // items = ingested events (not event*query visits): the counter shows the
  // ingest rate an external producer would observe.
  state.SetItemsProcessed(static_cast<int64_t>(kEvents) * state.iterations());
  state.counters["query_visits_per_s"] = benchmark::Counter(
      static_cast<double>(kEvents) * num_queries * state.iterations(),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_MultiQuery)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->ArgName("queries")
    ->Unit(benchmark::kMillisecond);

// One fleet member: anchor on an exact volume so the predicate index can
// dispatch (volume is INT RANGE [1, 10000] in the Stock schema — each
// query is entered by ~1/10000 of the feed), then a short ranked
// rebound pattern so candidate visits do real matcher work.
std::string FleetQuery(int volume) {
  return "SELECT a.symbol, a.price, b.price FROM Stock "
         "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
         "WHERE a.volume = " + std::to_string(volume) +
         "  AND b.price > a.price "
         "WITHIN 10 MILLISECONDS "
         "RANK BY b.price - a.price DESC "
         "LIMIT 5 EMIT ON WINDOW CLOSE";
}

void BM_QueryFleet(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  // Trim the 10k-query replay so the slowest cell stays benchmarkable.
  // Throughput counters normalize by the actual event count.
  const size_t events_n = num_queries >= 10000 ? 5000 : kEvents;
  const auto& events = StockStream(events_n, 0.01);
  for (auto _ : state) {
    state.PauseTiming();  // fleet registration (compile) is setup, not ingest
    auto engine = std::make_unique<Engine>();
    Status s = engine->RegisterSchema(StockGenerator::MakeSchema());
    CEPR_CHECK(s.ok()) << s.ToString();
    std::vector<std::unique_ptr<NullSink>> sinks;
    sinks.reserve(num_queries);
    for (int i = 0; i < num_queries; ++i) {
      sinks.push_back(std::make_unique<NullSink>());
      s = engine->RegisterQuery("q" + std::to_string(i),
                                FleetQuery(i % 10000 + 1), QueryOptions{},
                                sinks.back().get());
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    state.ResumeTiming();
    Replay(engine.get(), events);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events_n) * state.iterations());
  state.counters["ns_per_event"] = benchmark::Counter(
      static_cast<double>(events_n) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_QueryFleet)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->ArgName("queries")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace cepr

CEPR_BENCH_MAIN();
