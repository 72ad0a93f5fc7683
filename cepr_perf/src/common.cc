#include <algorithm>
#include <numeric>

#include "lang/analyzer.h"
#include "lang/parser.h"
#include "oracle.h"
#include "plan/compiler.h"
#include "runtime/engine.h"
#include "workload/stock.h"
#include "workloads.h"

namespace cepr_perf {

std::string DipQuery() {
  return "SELECT a.symbol, a.price, MIN(b.price), c.price "
         "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
         "PARTITION BY symbol "
         "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
         "  AND c.price > a.price "
         "WITHIN " + std::to_string(kDipWithinMs) + " MILLISECONDS "
         "RANK BY (a.price - MIN(b.price)) / a.price DESC "
         "LIMIT " + std::to_string(kDipLimit) + " EMIT ON WINDOW CLOSE";
}

std::string FleetQuery(int64_t volume) {
  return "SELECT a.symbol, a.price, b.price FROM Stock "
         "MATCH PATTERN SEQ(a, b) USING SKIP_TILL_ANY_MATCH "
         "PARTITION BY symbol "
         "WHERE a.volume = " + std::to_string(volume) +
         "  AND b.price > a.price "
         "WITHIN " + std::to_string(kFleetWithinMs) + " MILLISECONDS "
         "RANK BY b.price - a.price DESC "
         "LIMIT " + std::to_string(kFleetLimit) + " EMIT ON WINDOW CLOSE";
}

std::vector<cepr::Event> StockTicks(uint64_t seed, size_t n) {
  cepr::StockOptions options;
  options.base.seed = seed;
  options.base.interval_micros = kTickMicros;
  options.num_symbols = kSymbols;
  options.symbol_skew = kSymbolSkew;
  options.v_probability = kDipProbability;
  cepr::StockGenerator generator(options);
  return generator.Take(n);
}

std::vector<std::string> FleetTexts(size_t fleet_size) {
  std::vector<std::string> texts{DipQuery()};
  for (size_t i = 1; i <= fleet_size; ++i) {
    texts.push_back(FleetQuery(static_cast<int64_t>(i)));
  }
  return texts;
}

std::vector<std::string> FleetNames(size_t fleet_size) {
  std::vector<std::string> names{"dip"};
  for (size_t i = 1; i <= fleet_size; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

std::vector<FleetQuerySpec> FleetSpecs(size_t fleet_size) {
  std::vector<FleetQuerySpec> specs;
  for (size_t i = 1; i <= fleet_size; ++i) {
    specs.push_back({static_cast<int>(i), static_cast<int64_t>(i)});
  }
  return specs;
}

std::vector<ResultRec> SerialDipReference(
    const std::vector<cepr::Event>& events, int query, Tally* tally) {
  std::vector<ResultRec> results;
  RecordingSink sink(query, /*keep_row=*/true, &results);
  cepr::Engine engine;
  tally->Call(engine.RegisterSchema(cepr::StockGenerator::MakeSchema()),
              "reference schema");
  tally->Call(
      engine.RegisterQuery("dip", DipQuery(), cepr::QueryOptions{}, &sink),
      "reference dip query");
  for (const cepr::Event& e : events) {
    const cepr::Status s = engine.Push(e);
    if (!s.ok()) tally->Fail("reference push: " + s.ToString());
  }
  engine.Finish();
  return results;
}

void MeasureCompile(const std::vector<std::string>& texts,
                    const cepr::SchemaPtr& schema, Tracer* tracer,
                    LayerCost* cost) {
  int64_t parse_ns = 0;
  int64_t compile_ns = 0;
  // At least kMinCompiles compilations, so a short list is timed warm and
  // not by one cold pass; plans outlive the timing, as inside an engine.
  constexpr size_t kMinCompiles = 200;
  const size_t passes = (kMinCompiles + texts.size() - 1) / texts.size();
  std::vector<cepr::CompiledQueryPtr> plans;
  plans.reserve(passes * texts.size());
  for (size_t i = 0; i < passes * texts.size(); ++i) {
    const std::string& text = texts[i % texts.size()];
    const int64_t t0 = NowNs();
    cepr::Result<cepr::AnalyzedQuery> analyzed = [&] {
      ScopedSpan span(tracer, "lang.parse_analyze");
      auto ast = cepr::ParseQuery(text);
      if (!ast.ok()) return cepr::Result<cepr::AnalyzedQuery>(ast.status());
      return cepr::Analyze(std::move(ast).value(), schema);
    }();
    const int64_t t1 = NowNs();
    parse_ns += t1 - t0;
    if (!analyzed.ok()) continue;
    {
      ScopedSpan span(tracer, "plan.compile");
      auto plan = cepr::Compile(std::move(analyzed).value());
      if (plan.ok()) plans.push_back(std::move(plan).value());
    }
    compile_ns += NowNs() - t1;
  }
  const double n = static_cast<double>(passes * texts.size());
  cost->compile.parse_analyze_us += static_cast<double>(parse_ns) / 1e3 / n;
  cost->compile.compile_us += static_cast<double>(compile_ns) / 1e3 / n;
}

void AddCounterMetrics(const cepr::MetricsSnapshot& snap, double events,
                       std::map<std::string, double>* m) {
  cepr::MatcherStats stats;
  uint64_t dag_results = 0;
  uint64_t enumerated = 0;
  for (const auto& q : snap.queries) {
    stats.Accumulate(q.metrics.matcher);
    if (q.metrics.matcher.dag_nodes_allocated > 0) {
      dag_results += q.metrics.results;
      enumerated += q.metrics.matches_enumerated;
    }
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto& sharing = snap.sharing;
  (*m)["plan.queries_per_template"] =
      ratio(static_cast<double>(snap.queries.size()),
            static_cast<double>(sharing.live_templates));
  (*m)["engine.candidates_per_event"] =
      ratio(static_cast<double>(sharing.predindex_candidates),
            static_cast<double>(sharing.predindex_probes));
  (*m)["engine.runs_created_per_event"] =
      ratio(static_cast<double>(stats.runs_created), events);
  (*m)["engine.runs_cloned_per_event"] =
      ratio(static_cast<double>(stats.runs_cloned), events);
  (*m)["engine.dag_nodes_shared_ratio"] =
      ratio(static_cast<double>(stats.dag_nodes_shared),
            static_cast<double>(stats.dag_nodes_allocated));
  // Per-query peaks, summed over queries (and shards).
  (*m)["engine.peak_active_runs"] = static_cast<double>(stats.peak_active_runs);
  (*m)["engine.peak_dag_nodes"] = static_cast<double>(stats.peak_dag_nodes);
  (*m)["rank.enumerated_per_result"] =
      ratio(static_cast<double>(enumerated), static_cast<double>(dag_results));
  (*m)["rank.pruned_per_run_created"] =
      ratio(static_cast<double>(stats.runs_pruned_score),
            static_cast<double>(stats.runs_created));
  uint64_t stalls = 0;
  uint64_t stall_us = 0;
  for (const cepr::ShardStats& s : snap.shards) {
    stalls += s.enqueue_stalls;
    stall_us += s.stall_us;
  }
  (*m)["runtime.enqueue_stalls"] = static_cast<double>(stalls);
  (*m)["runtime.enqueue_stall_us"] = static_cast<double>(stall_us);
  (*m)["runtime.events_reordered"] =
      static_cast<double>(snap.reorder.events_reordered);
  (*m)["runtime.reorder_buffer_peak"] =
      static_cast<double>(snap.reorder.reorder_buffer_peak);
  (*m)["rank.windows_merged"] = static_cast<double>(snap.merge.windows_merged);
  (*m)["rank.results_merged"] = static_cast<double>(snap.merge.results_emitted);
}

double LayerCost::MeanRegisterUs() const {
  const double total =
      std::accumulate(register_us.begin(), register_us.end(), 0.0);
  return total / static_cast<double>(set_ups) /
         static_cast<double>(register_us.size());
}

namespace {

/// The last tenth of `per_query_us` over its first tenth: 1 when
/// registration cost is flat in the fleet size.
double TailOverHead(const std::vector<double>& per_query_us) {
  const size_t tenth = per_query_us.size() / 10;
  const double head = std::accumulate(per_query_us.begin(),
                                      per_query_us.begin() + tenth, 0.0);
  const double tail = std::accumulate(per_query_us.end() - tenth,
                                      per_query_us.end(), 0.0);
  return head > 0 ? tail / head : 1.0;
}

}  // namespace

void AddLayerMetrics(const LayerCost& cost, const RunOutput& out,
                     const Tracer& tracer, const char* ingest_span,
                     const char* finish_span,
                     std::map<std::string, double>* m) {
  const double rounds = static_cast<double>(out.rounds);
  const double events = static_cast<double>(out.events);
  const double parse_us = cost.compile.parse_analyze_us / rounds;
  const double compile_us = cost.compile.compile_us / rounds;
  (*m)["lang.parse_analyze_us_per_query"] = parse_us;
  (*m)["plan.compile_us_per_query"] = compile_us;
  (*m)["runtime.register_us_per_query"] =
      cost.MeanRegisterUs() - parse_us - compile_us;
  if (cost.register_us.size() >= 10) {
    (*m)["runtime.register_tail_over_head"] = TailOverHead(cost.register_us);
  }
  const Tracer::Totals ingest = tracer.Of(ingest_span);
  (*m)["runtime.ingest_ns_per_event"] =
      static_cast<double>(ingest.total_ns) / events;
  (*m)["engine.allocs_per_event"] = static_cast<double>(ingest.allocs) / events;
  (*m)["runtime.finish_ms"] =
      static_cast<double>(tracer.Of(finish_span).total_ns) / 1e6 / rounds;
}

}  // namespace cepr_perf
