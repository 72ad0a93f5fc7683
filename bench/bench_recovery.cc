// E18 — Durability cost: WAL append, checkpointing, and restore latency.
//
// Three measurements over the dip-and-recovery workload:
//  * BM_DurabilityIngest — ingest throughput as durability is layered on:
//    no durability (baseline), WAL journaling every arrival, and WAL plus
//    a full snapshot every N events. The acceptance bar is checkpointing
//    at the default interval (10k events) costing <= 10% events/s against
//    the WAL-off baseline.
//  * BM_CheckpointWrite — the cost of one snapshot as the amount of live
//    state grows (more events in flight = more runs, windows and heap
//    entries to serialize). Counters report the snapshot size.
//  * BM_Restore — cold-start recovery latency: load a mid-stream snapshot
//    and replay the WAL tail past the cut. Swept over the tail length to
//    separate the fixed snapshot-load cost from the per-record replay
//    cost.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench_util.h"

namespace cepr {
namespace bench {
namespace {

constexpr size_t kEvents = 100000;

// The journal and snapshot live in a directory private to this process
// ($TMPDIR or /tmp, named after the pid), so concurrent runs never share
// files; it is removed at exit.
class BenchDir {
 public:
  BenchDir() {
    const char* tmp = std::getenv("TMPDIR");
    path_ = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
            "/cepr_bench_recovery_" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(path_, ec);
    wal_ = path_ + "/bench.wal";
    snap_ = path_ + "/bench.ckpt";
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  BenchDir(const BenchDir&) = delete;
  BenchDir& operator=(const BenchDir&) = delete;
  const char* wal() const { return wal_.c_str(); }
  const char* snap() const { return snap_.c_str(); }

 private:
  std::string path_, wal_, snap_;
};

const BenchDir& Dir() {
  static const BenchDir dir;
  return dir;
}

std::unique_ptr<Engine> FreshEngine(CollectSink* sink) {
  auto engine = StockEngine();
  const Status s = engine->RegisterQuery("q", DipQuery(10), QueryOptions{}, sink);
  CEPR_CHECK(s.ok()) << s.ToString();
  return engine;
}

// args: {mode, ckpt_interval}; mode 0 = no durability, 1 = WAL only,
// 2 = WAL + checkpoint every ckpt_interval events.
void BM_DurabilityIngest(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const size_t interval = static_cast<size_t>(state.range(1));
  const std::vector<Event>& events = StockStream(kEvents, 0.02);

  DurabilityStats stats;
  for (auto _ : state) {
    std::remove(Dir().wal());
    CollectSink sink;
    auto engine = FreshEngine(&sink);
    if (mode >= 1) {
      const Status s = engine->OpenWal(Dir().wal());
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    size_t since_ckpt = 0;
    for (const Event& e : events) {
      const Status s = engine->Push(Event(e));
      CEPR_CHECK(s.ok()) << s.ToString();
      if (mode == 2 && ++since_ckpt >= interval) {
        since_ckpt = 0;
        const Status c = engine->Checkpoint(Dir().snap());
        CEPR_CHECK(c.ok()) << c.ToString();
      }
    }
    engine->Finish();
    stats = engine->Snapshot().durability;
  }
  state.SetItemsProcessed(static_cast<int64_t>(kEvents) * state.iterations());
  state.counters["ckpts"] = static_cast<double>(stats.checkpoints_written);
  state.counters["ckpt_bytes"] = static_cast<double>(stats.checkpoint_bytes);
  state.counters["wal_records"] =
      static_cast<double>(stats.wal_records_appended);
}

// args: {events_before_ckpt}; measures one Checkpoint() call against the
// state accumulated by that many events.
void BM_CheckpointWrite(benchmark::State& state) {
  const size_t prefix = static_cast<size_t>(state.range(0));
  const std::vector<Event>& events = StockStream(kEvents, 0.02);
  CollectSink sink;
  auto engine = FreshEngine(&sink);
  for (size_t i = 0; i < prefix && i < events.size(); ++i) {
    const Status s = engine->Push(Event(events[i]));
    CEPR_CHECK(s.ok()) << s.ToString();
  }

  for (auto _ : state) {
    const Status s = engine->Checkpoint(Dir().snap());
    CEPR_CHECK(s.ok()) << s.ToString();
  }
  state.counters["snap_bytes"] =
      static_cast<double>(engine->Snapshot().durability.checkpoint_bytes);
}

// args: {wal_tail}; checkpoint is cut at kEvents/2 and the WAL carries
// `wal_tail` records past it — the replay work Restore must redo.
void BM_Restore(benchmark::State& state) {
  const size_t tail = static_cast<size_t>(state.range(0));
  const size_t cut = kEvents / 2;
  const std::vector<Event>& events = StockStream(kEvents, 0.02);
  CEPR_CHECK(cut + tail <= events.size());

  // Build the durable state once: WAL from the start, snapshot at the cut,
  // then `tail` more journaled events.
  std::remove(Dir().wal());
  std::remove(Dir().snap());
  {
    CollectSink sink;
    auto engine = FreshEngine(&sink);
    Status s = engine->OpenWal(Dir().wal());
    CEPR_CHECK(s.ok()) << s.ToString();
    for (size_t i = 0; i < cut; ++i) {
      s = engine->Push(Event(events[i]));
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    const Status c = engine->Checkpoint(Dir().snap());
    CEPR_CHECK(c.ok()) << c.ToString();
    for (size_t i = cut; i < cut + tail; ++i) {
      s = engine->Push(Event(events[i]));
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    // Engine dropped without Finish — the crash this bench recovers from.
  }

  DurabilityStats stats;
  for (auto _ : state) {
    CollectSink sink;
    Engine engine;
    const Status s = engine.Restore(
        Dir().snap(), Dir().wal(), [&sink](const std::string&) { return &sink; });
    CEPR_CHECK(s.ok()) << s.ToString();
    stats = engine.Snapshot().durability;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tail) * state.iterations());
  state.counters["replayed"] =
      static_cast<double>(stats.recovery_events_replayed);
}

void DurabilityArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"mode", "ckpt_every"});
  b->Args({0, 0});        // baseline: no durability
  b->Args({1, 0});        // WAL journaling only
  b->Args({2, 10000});    // WAL + checkpoint at the default interval
  b->Args({2, 2000});     // aggressive checkpointing
}

BENCHMARK(BM_DurabilityIngest)
    ->Apply(DurabilityArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckpointWrite)
    ->ArgName("events")
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Restore)
    ->ArgName("wal_tail")
    ->Arg(0)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace cepr

CEPR_BENCH_MAIN();
