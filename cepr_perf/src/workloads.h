// The benchmark's three workloads. Each runs whole rounds — set-up, timed
// ingest of one seeded input, the closing Finish, then the output checks —
// until the timed phases add up to the requested seconds.
#ifndef CEPR_PERF_WORKLOADS_H_
#define CEPR_PERF_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "runtime/metrics.h"

namespace cepr_perf {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
};

struct RunOutput {
  size_t rounds = 0;
  /// Events ingested in the timed phases, and those phases' total length
  /// (first ingest call to the end of Finish, per round).
  uint64_t events = 0;
  int64_t timed_ns = 0;
  /// Events per second of each round's timed phase.
  std::vector<double> round_rates;
  /// Ranked results received, and each round's result-latency p50 and p99
  /// (per round, so memory stays flat however many rounds run).
  uint64_t results = 0;
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;
  /// Set-ups timed for setup_s and their total length (see RepeatRounds).
  size_t set_ups = 0;
  int64_t setup_ns = 0;
  Tally tally;
  /// Per-layer metrics; filled by traced runs only.
  std::map<std::string, double> layer;
};

RunOutput RunWireIngest(const RunConfig& config, Tracer* tracer);
RunOutput RunForkRank(const RunConfig& config, Tracer* tracer);
RunOutput RunFleetSharded(const RunConfig& config, Tracer* tracer);

// -- Shared by the workloads -------------------------------------------------

/// Rounds continue until the timed phases reach the requested seconds and
/// at least this many rounds ran...
inline constexpr size_t kMinRounds = 3;
/// ...unless one pass over the rounds has used this much wall time.
inline constexpr int64_t kWallCapNs = 70'000'000'000;

/// After every round, set-ups are timed back to back for setup_s until at
/// least this many ran and they took at least this long. Sampling after
/// each round spreads them over the whole run, so they see the machine as
/// the timed phases do: on a shared host a microsecond set-up shifts by
/// half for a second or more at a time, and set-ups timed in one burst
/// would catch one such phase. setup_s is their mean, not a median: with such
/// phases the samples are bimodal, and a median jumps between the modes
/// where a mean moves with the time spent in each.
inline constexpr size_t kSetUpsPerRound = 8;
inline constexpr int64_t kSetUpNsPerRound = 5'000'000;

/// Runs `round()` until `out` has enough timed seconds and rounds; after
/// each, times `set_up()` into out->set_ups and out->setup_ns. What
/// `set_up()` returns is torn down after its timing.
template <class Round, class SetUp>
void RepeatRounds(const RunConfig& config, RunOutput* out, Round round,
                  SetUp set_up) {
  const int64_t wall_start = NowNs();
  while (out->rounds < kMinRounds ||
         static_cast<double>(out->timed_ns) < config.seconds * 1e9) {
    const int64_t timed = out->timed_ns;
    const uint64_t events = out->events;
    round();
    ++out->rounds;
    const double seconds = static_cast<double>(out->timed_ns - timed) / 1e9;
    out->round_rates.push_back(static_cast<double>(out->events - events) /
                               seconds);

    size_t set_ups = 0;
    int64_t setup_ns = 0;
    for (; set_ups < kSetUpsPerRound || setup_ns < kSetUpNsPerRound;
         ++set_ups) {
      const int64_t start = NowNs();
      auto deployment = set_up();
      setup_ns += NowNs() - start;
    }
    out->set_ups += set_ups;
    out->setup_ns += setup_ns;
    if (NowNs() - wall_start > kWallCapNs) break;
  }
}

/// Adds one round's result latencies (µs) to `out`.
inline void AddRoundLatencies(const std::vector<double>& latency_us,
                              RunOutput* out) {
  out->results += latency_us.size();
  out->round_p50_us.push_back(Quantile(latency_us, 0.5));
  out->round_p99_us.push_back(Quantile(latency_us, 0.99));
}

inline constexpr char kStockDdl[] =
    "CREATE STREAM Stock (symbol STRING, price FLOAT RANGE [1, 1000], "
    "volume INT RANGE [1, 10000])";

/// The canonical dip-and-recovery query of the CEPR demo (E1/E20).
inline constexpr int64_t kDipWithinMs = 100;
inline constexpr size_t kDipLimit = 10;
std::string DipQuery();

/// One member of a volume-anchored fleet (E16): every such query shares
/// one NFA template and differs only in the volume constant.
inline constexpr int64_t kFleetWithinMs = 10;
inline constexpr size_t kFleetLimit = 5;
std::string FleetQuery(int64_t volume);

/// Seeded Stock ticks (symbol, price, volume) in time order: kSymbols
/// symbols with Zipf skew kSymbolSkew, one tick every kTickMicros, planted
/// dip-and-recovery episodes with probability kDipProbability per tick.
inline constexpr int kSymbols = 32;
inline constexpr double kSymbolSkew = 0.5;
inline constexpr Timestamp kTickMicros = 50;
inline constexpr double kDipProbability = 0.01;
std::vector<cepr::Event> StockTicks(uint64_t seed, size_t n);

/// A ranked fleet over Stock: query 0 is the dip query, queries 1..n are
/// fleet members anchored on volumes 1..n.
std::vector<std::string> FleetTexts(size_t fleet_size);
/// Their names: "dip", then "f1".."fn".
std::vector<std::string> FleetNames(size_t fleet_size);
std::vector<struct FleetQuerySpec> FleetSpecs(size_t fleet_size);

/// The dip query's results on a serial in-process Engine fed `events` in
/// time order, recorded as query `query`.
std::vector<ResultRec> SerialDipReference(
    const std::vector<cepr::Event>& events, int query, Tally* tally);

/// Window end in event time of a result of query `query` in a FleetTexts
/// fleet.
inline Timestamp FleetWindowEnd(int query, int64_t window) {
  return (window + 1) * (query == 0 ? kDipWithinMs : kFleetWithinMs) * 1000;
}

/// Per-query parse + analyze and compile time, in microseconds (lang and
/// plan layers, timed apart from the engine).
struct CompileCost {
  double parse_analyze_us = 0;
  double compile_us = 0;
};

/// What a traced run gathers over its rounds for the per-layer metrics
/// every workload derives alike (AddLayerMetrics).
struct LayerCost {
  explicit LayerCost(size_t queries) : register_us(queries, 0.0) {}
  /// Per query: register (or deploy) microseconds, summed over set-ups.
  std::vector<double> register_us;
  /// Set-ups that added to register_us.
  size_t set_ups = 0;
  /// Per-query compile cost, summed over rounds (MeasureCompile).
  CompileCost compile;

  /// Mean register (or deploy) microseconds per query.
  double MeanRegisterUs() const;
};

/// Times ParseQuery + Analyze and Compile on `texts` and adds the per-query
/// cost to cost->compile.
void MeasureCompile(const std::vector<std::string>& texts,
                    const cepr::SchemaPtr& schema, Tracer* tracer,
                    LayerCost* cost);

/// Adds the per-layer metrics every workload derives alike: compile cost
/// per query, registration beyond compiling (and, for fleets of ten or more
/// queries, its tail over its head), ingest time and allocations per event
/// from the spans named `ingest_span`, and the closing Finish from the
/// spans named `finish_span` (one per round).
void AddLayerMetrics(const LayerCost& cost, const RunOutput& out,
                     const Tracer& tracer, const char* ingest_span,
                     const char* finish_span,
                     std::map<std::string, double>* m);

/// Per-layer metrics read from one round's engine counters (every round
/// ingests the same input, so one round's counts stand for all of them).
/// `events` is the round's event count.
void AddCounterMetrics(const cepr::MetricsSnapshot& snap, double events,
                       std::map<std::string, double>* m);

}  // namespace cepr_perf

#endif  // CEPR_PERF_WORKLOADS_H_
