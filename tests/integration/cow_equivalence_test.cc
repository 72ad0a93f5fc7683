// Golden-output suite for the matcher's hot path: copy-on-write bindings,
// the run/binding arena, the per-event predicate cache, the bytecode VM,
// columnar expiry, the shared match DAG and batched ingest screening are
// pure optimizations, so the default engine — serial and sharded at every
// shard count — must reproduce, line for line, the ranked output recorded
// from the legacy configuration (deep-copied bindings, no arena, no cache,
// AST evaluation, per-run expiry, per-run Kleene fan-out) before those
// paths were deleted. Workloads and fixture encoding: ranked_fixture.h;
// fixtures: golden/*.txt.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.h"
#include "integration/ranked_fixture.h"
#include "runtime/engine.h"
#include "runtime/sharded_engine.h"

namespace cepr {
namespace {

using testing::DagEligibleWorkload;
using testing::FormatResults;
using testing::KleeneWorkload;
using testing::NegationWorkload;
using testing::RankedWorkload;
using testing::ReadGolden;
using testing::SkipTillAnyWorkload;

using Workload = RankedWorkload;

// The fault-injection wiring of one run: a fresh injector per engine so
// fire counts never leak across runs.
struct Faults {
  explicit Faults(const std::vector<uint64_t>* keys) : injector(1) {
    if (keys != nullptr) injector.ArmKeys(fault_points::kEvalPoison, *keys);
    armed = keys != nullptr;
  }
  template <typename Options>
  void Apply(Options* options) {
    if (!armed) return;
    options->fault_policy = FaultPolicy::kSkipAndCount;
    options->fault_injector = &injector;
  }
  FaultInjector injector;
  bool armed = false;
};

template <typename EngineT>
std::vector<RankedResult> Drive(EngineT& engine, const Workload& w,
                                bool push_all) {
  EXPECT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  const Status s = engine.RegisterQuery("q", w.query, w.options, &sink);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (push_all) {
    std::vector<Event> events = w.events;
    const Status push = engine.PushAll(std::move(events));
    EXPECT_TRUE(push.ok()) << push.ToString();
  } else {
    for (const Event& e : w.events) {
      const Status push = engine.Push(Event(e));
      EXPECT_TRUE(push.ok()) << push.ToString();
    }
  }
  engine.Finish();
  return sink.results();
}

std::vector<RankedResult> RunSerial(const Workload& w,
                                    const std::vector<uint64_t>* poison = nullptr,
                                    bool push_all = false) {
  Faults faults(poison);
  EngineOptions options;
  faults.Apply(&options);
  Engine engine(options);
  return Drive(engine, w, push_all);
}

std::vector<RankedResult> RunSharded(const Workload& w, size_t num_shards,
                                     const std::vector<uint64_t>* poison = nullptr,
                                     bool push_all = false) {
  Faults faults(poison);
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  faults.Apply(&options);
  ShardedEngine engine(options);
  return Drive(engine, w, push_all);
}

void ExpectGolden(const std::vector<std::string>& golden,
                  const std::vector<RankedResult>& actual,
                  const std::string& label) {
  ASSERT_FALSE(golden.empty()) << label << ": fixture missing or empty";
  const std::vector<std::string> lines = FormatResults(actual);
  ASSERT_EQ(golden.size(), lines.size()) << label;
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i], lines[i]) << label << " @" << i;
  }
}

// Serial and sharded{1,2,4} must each equal the recorded fixture.
void CheckAgainstGolden(const Workload& w, const std::string& fixture) {
  const std::vector<std::string> golden = ReadGolden(fixture);
  ExpectGolden(golden, RunSerial(w), fixture + " serial");
  for (size_t shards : {1u, 2u, 4u}) {
    ExpectGolden(golden, RunSharded(w, shards),
                 fixture + " shards=" + std::to_string(shards));
  }
}

TEST(CowEquivalenceTest, SkipTillAnyForkHeavyWithShedding) {
  CheckAgainstGolden(SkipTillAnyWorkload(42), "skip_any_seed42");
  CheckAgainstGolden(SkipTillAnyWorkload(7), "skip_any_seed7");
}

TEST(CowEquivalenceTest, NegationPatterns) {
  CheckAgainstGolden(NegationWorkload(42), "negation_seed42");
}

TEST(CowEquivalenceTest, LongKleeneChains) {
  CheckAgainstGolden(KleeneWorkload(42), "kleene_seed42");
}

// The shared match DAG with lazy enumeration is a pure representation
// change: with it on (the default) and off, serial and sharded at every
// shard count, the dag-eligible workload reproduces the per-run fixture.
TEST(CowEquivalenceTest, SharedMatchDagMatchesPerRunPath) {
  for (uint64_t seed : {42u, 7u}) {
    const std::string fixture = "dag_seed" + std::to_string(seed);
    for (bool dag : {false, true}) {
      Workload w = DagEligibleWorkload(seed);
      w.options.matcher.shared_match_dag = dag;
      const std::vector<std::string> golden = ReadGolden(fixture);
      const std::string tag = fixture + (dag ? " dag=on" : " dag=off");
      ExpectGolden(golden, RunSerial(w), tag + " serial");
      for (size_t shards : {1u, 2u, 4u}) {
        ExpectGolden(golden, RunSharded(w, shards),
                     tag + " shards=" + std::to_string(shards));
      }
    }
  }
}

// Same invariant under the injected-fault schedule: quarantines must land
// on the same events and the surviving ranked output must stay identical
// whether the trailing fan-out lives in runs or in DAG groups.
TEST(CowEquivalenceTest, SharedMatchDagIdenticalUnderInjectedFaults) {
  const std::vector<uint64_t> poison = testing::DagPoisonKeys();
  const std::vector<std::string> golden = ReadGolden("dag_seed42_faults");
  for (bool dag : {false, true}) {
    Workload w = DagEligibleWorkload(42);
    w.options.matcher.shared_match_dag = dag;
    const std::string tag = std::string("dag=") + (dag ? "on" : "off");
    ExpectGolden(golden, RunSerial(w, &poison), "faulted serial " + tag);
    ExpectGolden(golden, RunSharded(w, 2, &poison), "faulted shards=2 " + tag);
  }
}

// Column-scan expiry (the only expiry left) reproduces the fixtures the
// per-run expiry check recorded, on the per-run and the dag path.
TEST(CowEquivalenceTest, ColumnarExpiryMatchesPerRunExpiry) {
  for (bool dag_workload : {false, true}) {
    const Workload w =
        dag_workload ? DagEligibleWorkload(42) : SkipTillAnyWorkload(42);
    const std::vector<std::string> golden =
        ReadGolden(dag_workload ? "dag_seed42" : "skip_any_seed42");
    ExpectGolden(golden, RunSerial(w), std::string(w.label) + " serial");
    for (size_t shards : {1u, 2u}) {
      ExpectGolden(golden, RunSharded(w, shards),
                   std::string(w.label) + " shards=" + std::to_string(shards));
    }
  }
}

TEST(CowEquivalenceTest, IdenticalUnderInjectedFaults) {
  // The same poisoned events must be quarantined and the surviving output
  // must equal the fixture, serial and sharded.
  const Workload w = SkipTillAnyWorkload(42);
  const std::vector<uint64_t> poison = testing::SkipTillAnyPoisonKeys();
  const std::vector<std::string> golden = ReadGolden("skip_any_seed42_faults");
  ExpectGolden(golden, RunSerial(w, &poison), "faulted serial");
  ExpectGolden(golden, RunSharded(w, 2, &poison), "faulted shards=2");
}

// Batched columnar ingest (PushAll run accumulation + ProbeBatch screening)
// is a pure screening optimization: PushAll must equal per-event Push
// exactly — serial and sharded at every shard count — and both must equal
// the fixture.
TEST(CowEquivalenceTest, BatchedIngestMatchesPerEvent) {
  const Workload w = SkipTillAnyWorkload(42);
  const std::vector<RankedResult> serial = RunSerial(w);
  ExpectGolden(ReadGolden("skip_any_seed42"), serial, "serial Push");
  const std::vector<std::string> per_event = FormatResults(serial);

  {
    Engine engine;
    const std::vector<RankedResult> batched =
        Drive(engine, w, /*push_all=*/true);
    ExpectGolden(per_event, batched, "serial PushAll");
    EXPECT_GT(engine.Snapshot().sharing.batch_scan_events, 0u)
        << "batch path did not engage; weak test";
  }
  for (size_t shards : {1u, 2u, 4u}) {
    const std::string tag = "shards=" + std::to_string(shards);
    ExpectGolden(per_event, RunSharded(w, shards), tag + " Push");
    ExpectGolden(per_event, RunSharded(w, shards, nullptr, /*push_all=*/true),
                 tag + " PushAll");
  }
}

TEST(CowEquivalenceTest, HotPathCountersMatchSerialTotals) {
  const Workload w = SkipTillAnyWorkload(42);

  const auto run = [&w](auto& engine) -> MatcherStats {
    EXPECT_TRUE(engine.RegisterSchema(w.schema).ok());
    CollectSink sink;
    EXPECT_TRUE(engine.RegisterQuery("q", w.query, w.options, &sink).ok());
    for (const Event& e : w.events) {
      EXPECT_TRUE(engine.Push(Event(e)).ok());
    }
    engine.Finish();
    return engine.GetQueryMetrics("q")->matcher;
  };

  Engine serial;
  const MatcherStats serial_stats = run(serial);
  EXPECT_GT(serial_stats.runs_cloned, 0u);
  EXPECT_GT(serial_stats.binding_nodes_allocated, 0u);
  EXPECT_GT(serial_stats.predcache_hits, 0u);
  EXPECT_GT(serial_stats.predcache_misses, 0u);

  for (size_t shards : {1u, 2u, 4u}) {
    ShardedEngineOptions options;
    options.num_shards = shards;
    ShardedEngine sharded(options);
    const MatcherStats sharded_stats = run(sharded);
    EXPECT_EQ(serial_stats.runs_cloned, sharded_stats.runs_cloned)
        << "shards=" << shards;
    EXPECT_EQ(serial_stats.binding_nodes_allocated,
              sharded_stats.binding_nodes_allocated)
        << "shards=" << shards;
    EXPECT_EQ(serial_stats.predcache_hits, sharded_stats.predcache_hits)
        << "shards=" << shards;
    EXPECT_EQ(serial_stats.predcache_misses, sharded_stats.predcache_misses)
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace cepr
