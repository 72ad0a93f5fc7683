// fleet_sharded: an in-process ShardedEngine with two worker shards runs
// about a thousand template-sharing ranked queries plus the dip query over a
// many-symbol Stock stream. The stream is shuffled within a lateness bound
// the engine absorbs and ingested in PushAll batches, so events pass through
// the reorder buffer, batched predicate-index screening, the shard router,
// the SPSC rings and the k-way ranked merge; query compilation dominates
// set-up.

#include <algorithm>
#include <memory>

#include "common/random.h"
#include "oracle.h"
#include "runtime/sharded_engine.h"
#include "workload/stock.h"
#include "workloads.h"

namespace cepr_perf {
namespace {

constexpr size_t kEvents = 16384;        // per round
constexpr size_t kFleet = 1000;          // plus the dip query
constexpr size_t kShards = 2;
constexpr size_t kBatch = 256;           // events per PushAll
// Shard ring slots. With the default 4096 the ingest thread keeps hitting
// full rings and backing off to 100 us sleeps, and throughput then swings
// twofold from run to run (see README.md); 64Ki slots hold about 65
// events' worth of per-query messages, and runs repeat within a few
// percent.
constexpr size_t kRingSlots = 65536;
constexpr size_t kShuffleBlock = 32;     // 1.6 ms of event time...
constexpr Timestamp kLatenessMicros = 2000;  // ...inside a 2 ms bound

static_assert(kShuffleBlock * kTickMicros < kLatenessMicros);

/// Shuffles each block of kShuffleBlock consecutive events: every event
/// stays within one block span of its place, inside the lateness bound.
std::vector<cepr::Event> BlockShuffle(std::vector<cepr::Event> events,
                                      uint64_t seed) {
  cepr::Random rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t begin = 0; begin < events.size(); begin += kShuffleBlock) {
    const size_t end = std::min(events.size(), begin + kShuffleBlock);
    for (size_t i = end - 1; i > begin; --i) {
      std::swap(events[i], events[begin + rng.Uniform(i - begin + 1)]);
    }
  }
  return events;
}

/// Everything before the first timed event: the sharded engine, the schema
/// and the fleet, each query reporting to its sink. With a tracer on,
/// adds each registration's microseconds to `cost`.
std::unique_ptr<cepr::ShardedEngine> SetUp(
    const std::vector<std::string>& names,
    const std::vector<std::string>& texts,
    const std::vector<std::unique_ptr<RecordingSink>>& sinks, Tracer* tracer,
    LayerCost* cost, Tally* tally) {
  cepr::ShardedEngineOptions options;
  options.num_shards = kShards;
  options.max_lateness_micros = kLatenessMicros;
  options.queue_capacity = kRingSlots;
  auto engine = std::make_unique<cepr::ShardedEngine>(options);
  tally->Call(engine->RegisterSchema(cepr::StockGenerator::MakeSchema()),
              "register schema");
  for (size_t q = 0; q < texts.size(); ++q) {
    const int64_t start = NowNs();
    ScopedSpan span(tracer, "runtime.register");
    tally->Call(engine->RegisterQuery(names[q], texts[q], cepr::QueryOptions{},
                                      sinks[q].get()),
                "register query");
    if (tracer->enabled()) {
      cost->register_us[q] += static_cast<double>(NowNs() - start) / 1e3;
    }
  }
  if (tracer->enabled()) ++cost->set_ups;
  return engine;
}

/// The fleet's sinks and the engine that calls them; members are destroyed
/// bottom-up, so the engine goes before its sinks.
struct Deployment {
  std::vector<ResultRec> results;
  std::vector<std::unique_ptr<RecordingSink>> sinks;
  std::unique_ptr<cepr::ShardedEngine> engine;
};

/// A deployment with one recording sink per query (the dip query keeps
/// rows) and no engine yet: SetUp, the timed part, adds it.
std::unique_ptr<Deployment> NewDeployment(size_t queries) {
  auto d = std::make_unique<Deployment>();
  d->results.reserve(64 * 1024);
  for (size_t q = 0; q < queries; ++q) {
    d->sinks.push_back(
        std::make_unique<RecordingSink>(static_cast<int>(q), q == 0,
                                        &d->results));
  }
  return d;
}

}  // namespace

RunOutput RunFleetSharded(const RunConfig& config, Tracer* tracer) {
  const std::vector<cepr::Event> in_order = StockTicks(config.seed, kEvents);
  const std::vector<cepr::Event> arrivals = BlockShuffle(in_order, config.seed);
  std::vector<Timestamp> arrival_ts;
  for (const cepr::Event& e : arrivals) arrival_ts.push_back(e.timestamp());

  const std::vector<std::string> texts = FleetTexts(kFleet);
  const std::vector<std::string> names = FleetNames(kFleet);
  RunOutput out;
  const ScoreGroups expected = FleetOracle(
      in_order, FleetSpecs(kFleet), kFleetWithinMs * 1000, kFleetLimit);
  const std::vector<ResultRec> dip_reference =
      SerialDipReference(in_order, 0, &out.tally);
  std::vector<int> fleet_ids;
  for (size_t q = 1; q <= kFleet; ++q) fleet_ids.push_back(static_cast<int>(q));

  LayerCost cost(texts.size());
  const std::unique_ptr<Deployment> spare = NewDeployment(texts.size());

  RepeatRounds(config, &out, [&] {
    ScopedSpan round(tracer, "round");
    const std::unique_ptr<Deployment> d = NewDeployment(texts.size());
    const std::vector<ResultRec>& results = d->results;
    std::vector<std::vector<cepr::Event>> batches;
    for (size_t i = 0; i < arrivals.size(); i += kBatch) {
      const size_t end = std::min(arrivals.size(), i + kBatch);
      batches.emplace_back(arrivals.begin() + i, arrivals.begin() + end);
    }
    CallLog calls(arrival_ts, kLatenessMicros);

    {
      ScopedSpan span(tracer, "setup");
      d->engine = SetUp(names, texts, d->sinks, tracer, &cost, &out.tally);
    }
    cepr::ShardedEngine* engine = d->engine.get();
    const int64_t start = NowNs();

    {
      ScopedSpan span(tracer, "ingest");
      for (size_t b = 0; b < batches.size(); ++b) {
        calls.Start(b * kBatch, NowNs());
        ScopedSpan push(tracer, "runtime.push_all");
        out.tally.Call(engine->PushAll(std::move(batches[b])), "push_all");
      }
      calls.Start(arrivals.size(), NowNs());
      ScopedSpan finish(tracer, "runtime.finish");
      engine->Finish();
    }
    const int64_t end = NowNs();
    out.timed_ns += end - start;
    out.events += arrivals.size();

    ScopedSpan check(tracer, "check");
    std::vector<double> latency_us;
    for (const ResultRec& r : results) {
      const double us =
          calls.LatencyUs(FleetWindowEnd(r.query, r.window), r.t_ns);
      out.tally.Check(us >= 0, "result before its window could close");
      latency_us.push_back(us);
    }
    AddRoundLatencies(latency_us, &out);
    CompareTopK(expected, GroupScores(results), fleet_ids, &out.tally);
    CheckDip(OfQuery(results, 0), dip_reference, kDipLimit, &out.tally);
    if (!tracer->enabled()) return;

    AddCounterMetrics(engine->Snapshot(), static_cast<double>(arrivals.size()),
                      &out.layer);
    MeasureCompile(texts, cepr::StockGenerator::MakeSchema(), tracer, &cost);
  }, [&] {
    return SetUp(names, texts, spare->sinks, tracer, &cost, &out.tally);
  });
  if (tracer->enabled()) {
    AddLayerMetrics(cost, out, *tracer, "runtime.push_all", "runtime.finish",
                    &out.layer);
  }
  return out;
}

}  // namespace cepr_perf
