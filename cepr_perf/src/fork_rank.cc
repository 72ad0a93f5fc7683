// fork_rank: an in-process serial Engine takes a seeded fork-heavy stream
// one Push at a time. Two ranked SKIP_TILL_ANY_MATCH queries read it: one
// the shared match DAG takes (event-only iteration predicates, RANK BY SUM),
// and one it refuses (a correlated iteration predicate), whose runs fork on
// every extension. The matcher, bindings and arena, the DAG and the lazy
// top-k enumerator do nearly all the work.

#include <memory>

#include "oracle.h"
#include "runtime/engine.h"
#include "workload/forkheavy.h"
#include "workloads.h"

namespace cepr_perf {
namespace {

constexpr size_t kEvents = 20000;  // per round, one event per millisecond
constexpr int kPartitions = 2;
constexpr double kAnchorProbability = 0.1;
constexpr size_t kLimit = 10;
constexpr int kDag = 0;  // query ids
constexpr int kPerRun = 1;
const char* const kNames[] = {"dag", "per_run"};
// WITHIN spans. The per-run query forks on every extension, so its span is
// shorter: 16 ms keeps about 500 runs live, inside the default run budget,
// and p99 latency then repeats within ~10% from run to run (32 ms held
// ~6500 runs, and its p99 spread ~25% on the same machine).
constexpr int64_t kWithinMs[] = {32, 16};

Timestamp WithinMicros(int query) { return kWithinMs[query] * 1000; }

std::string ForkQuery(int query) {
  return std::string(
             "SELECT a.price, SUM(b.price), COUNT(b) "
             "FROM ForkTick MATCH PATTERN SEQ(a, b+) "
             "USING SKIP_TILL_ANY_MATCH PARTITION BY sym "
             "WHERE a.anchor = 1 AND b[i].anchor = 0 ") +
         (query == kPerRun ? "AND b[i].price > b[i-1].price " : "") +
         "WITHIN " + std::to_string(kWithinMs[query]) +
         " MILLISECONDS RANK BY SUM(b.price) DESC LIMIT " +
         std::to_string(kLimit) + " EMIT ON WINDOW CLOSE";
}

/// Everything before the first timed event: the engine, the schema and the
/// given queries, each reporting to its sink. With a tracer on, adds each
/// registration's microseconds to `cost`.
std::unique_ptr<cepr::Engine> SetUp(const std::vector<int>& queries,
                                    cepr::Sink* const* sinks, Tracer* tracer,
                                    LayerCost* cost, Tally* tally) {
  auto engine = std::make_unique<cepr::Engine>();
  tally->Call(engine->RegisterSchema(cepr::ForkHeavyGenerator::MakeSchema()),
              "register schema");
  for (int q : queries) {
    const int64_t start = NowNs();
    ScopedSpan span(tracer, "runtime.register");
    tally->Call(engine->RegisterQuery(kNames[q], ForkQuery(q),
                                      cepr::QueryOptions{}, sinks[q]),
                "register query");
    if (tracer->enabled()) {
      cost->register_us[q] += static_cast<double>(NowNs() - start) / 1e3;
    }
  }
  if (tracer->enabled()) ++cost->set_ups;
  return engine;
}

/// Heap allocations per event of one query on its own.
double AllocsPerEventAlone(int query, const std::vector<cepr::Event>& events,
                           Tally* tally) {
  cepr::NullSink sink;
  cepr::Sink* sinks[] = {&sink, &sink};
  Tracer off(false);
  auto engine = SetUp({query}, sinks, &off, nullptr, tally);
  const uint64_t before = AllocCount();
  for (const cepr::Event& e : events) {
    if (!engine->Push(e).ok()) break;
  }
  const uint64_t allocs = AllocCount() - before;
  engine->Finish();
  return static_cast<double>(allocs) / static_cast<double>(events.size());
}

}  // namespace

RunOutput RunForkRank(const RunConfig& config, Tracer* tracer) {
  cepr::ForkHeavyOptions options;
  options.base.seed = config.seed;
  options.num_streams = kPartitions;
  options.anchor_probability = kAnchorProbability;
  cepr::ForkHeavyGenerator generator(options);
  const std::vector<cepr::Event> events = generator.Take(kEvents);
  std::vector<Timestamp> arrival_ts;
  for (const cepr::Event& e : events) arrival_ts.push_back(e.timestamp());

  ScoreGroups expected =
      SubsetSumOracle(events, kDag, WithinMicros(kDag), kLimit);
  expected.merge(
      IncreasingRunOracle(events, kPerRun, WithinMicros(kPerRun), kLimit));
  const std::vector<std::string> texts = {ForkQuery(kDag), ForkQuery(kPerRun)};

  RunOutput out;
  std::vector<double> close_us;
  LayerCost cost(texts.size());
  cepr::NullSink spare;
  cepr::Sink* const spares[] = {&spare, &spare};

  RepeatRounds(config, &out, [&] {
    ScopedSpan round(tracer, "round");
    std::vector<ResultRec> results;
    results.reserve(kEvents);
    RecordingSink dag_sink(kDag, false, &results);
    RecordingSink run_sink(kPerRun, false, &results);
    cepr::Sink* sinks[] = {&dag_sink, &run_sink};
    CallLog calls(arrival_ts, 0);

    std::unique_ptr<cepr::Engine> engine = [&] {
      ScopedSpan span(tracer, "setup");
      return SetUp({kDag, kPerRun}, sinks, tracer, &cost, &out.tally);
    }();
    const int64_t start = NowNs();

    {
      ScopedSpan span(tracer, "ingest");
      for (size_t i = 0; i < events.size(); ++i) {
        const size_t delivered = results.size();
        const int64_t t = NowNs();
        calls.Start(i, t);
        cepr::Status s;
        {
          ScopedSpan push(tracer, "runtime.push");
          s = engine->Push(events[i]);  // the copy costs ~0.1% of a Push
        }
        out.tally.Call(s, "push");
        if (tracer->enabled() && results.size() != delivered) {
          close_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
        }
      }
      calls.Start(events.size(), NowNs());
      ScopedSpan finish(tracer, "runtime.finish");
      engine->Finish();
    }
    const int64_t end = NowNs();
    out.timed_ns += end - start;
    out.events += events.size();

    ScopedSpan check(tracer, "check");
    std::vector<double> latency_us;
    for (const ResultRec& r : results) {
      const double us =
          calls.LatencyUs((r.window + 1) * WithinMicros(r.query), r.t_ns);
      out.tally.Check(us >= 0, "result before its window could close");
      latency_us.push_back(us);
    }
    AddRoundLatencies(latency_us, &out);
    CompareTopK(expected, GroupScores(results), {kDag, kPerRun}, &out.tally);
    const cepr::MetricsSnapshot snap = engine->Snapshot();
    uint64_t shed = 0;
    for (const auto& q : snap.queries) {
      shed += q.metrics.matcher.runs_dropped_capacity;
    }
    out.tally.Check(shed == 0, "runs shed by the run budget");
    if (!tracer->enabled()) return;

    AddCounterMetrics(snap, static_cast<double>(events.size()), &out.layer);
    MeasureCompile(texts, cepr::ForkHeavyGenerator::MakeSchema(), tracer,
                   &cost);
  }, [&] {
    return SetUp({kDag, kPerRun}, spares, tracer, &cost, &out.tally);
  });
  if (!tracer->enabled()) return out;

  auto& m = out.layer;
  AddLayerMetrics(cost, out, *tracer, "runtime.push", "runtime.finish", &m);
  m["engine.allocs_per_event_dag_query"] =
      AllocsPerEventAlone(kDag, events, &out.tally);
  m["engine.allocs_per_event_per_run_query"] =
      AllocsPerEventAlone(kPerRun, events, &out.tally);
  m["rank.window_close_us_p50"] = Quantile(close_us, 0.5);
  m["rank.window_close_us_p99"] = Quantile(close_us, 0.99);
  return out;
}

}  // namespace cepr_perf
