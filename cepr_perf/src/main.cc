// cepr_perf: runs one benchmark workload and prints its metrics as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
//   cepr_perf --workload wire_ingest|fork_rank|fleet_sharded --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced, reports the per-layer
// metrics of the traced run plus the tracing overhead between the two, and
// writes the traced run's spans to --trace-out. Exits 1 when an output
// check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace cepr_perf {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"events_per_s", "events/s"},
    {"result_latency_p50_us", "us"},
    {"result_latency_p99_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Every per-layer metric; a workload that does not pass through a layer
// reports 0 for it (see README.md for which metric applies where).
constexpr Metric kPerLayer[] = {
    {"net.frame_rtt_p50_us", "us"},
    {"net.frame_rtt_p99_us", "us"},
    {"net.encode_ns_per_event", "ns"},
    {"net.decode_ns_per_event", "ns"},
    {"net.bytes_per_event", "bytes"},
    {"net.wait_us_per_frame", "us"},
    {"net.deploy_rtt_us", "us"},
    {"lang.parse_analyze_us_per_query", "us"},
    {"plan.compile_us_per_query", "us"},
    {"plan.queries_per_template", "count"},
    {"runtime.register_us_per_query", "us"},
    {"runtime.register_tail_over_head", "ratio"},
    {"runtime.ingest_ns_per_event", "ns"},
    {"runtime.finish_ms", "ms"},
    {"runtime.enqueue_stalls", "count"},
    {"runtime.enqueue_stall_us", "us"},
    {"runtime.events_reordered", "count"},
    {"runtime.reorder_buffer_peak", "count"},
    {"engine.candidates_per_event", "count"},
    {"engine.allocs_per_event", "count"},
    {"engine.allocs_per_event_dag_query", "count"},
    {"engine.allocs_per_event_per_run_query", "count"},
    {"engine.runs_created_per_event", "count"},
    {"engine.runs_cloned_per_event", "count"},
    {"engine.dag_nodes_shared_ratio", "ratio"},
    {"engine.peak_active_runs", "count"},
    {"engine.peak_dag_nodes", "count"},
    {"rank.window_close_us_p50", "us"},
    {"rank.window_close_us_p99", "us"},
    {"rank.enumerated_per_result", "count"},
    {"rank.pruned_per_run_created", "ratio"},
    {"rank.windows_merged", "count"},
    {"rank.results_merged", "count"},
    {"trace.overhead_pct", "%"},
};

using WorkloadFn = RunOutput (*)(const RunConfig&, Tracer*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kAll = {
      {"wire_ingest", RunWireIngest},
      {"fork_rank", RunForkRank},
      {"fleet_sharded", RunFleetSharded},
  };
  return kAll;
}

double EventsPerSecond(const RunOutput& r) {
  return static_cast<double>(r.events) /
         (static_cast<double>(r.timed_ns) / 1e9);
}

void Describe(const char* label, const RunOutput& r) {
  std::fprintf(stderr,
               "%s: %zu rounds, %llu events in %.3f s timed, %zu results, "
               "%zu set-ups, %llu/%llu operations failed\n",
               label, r.rounds, static_cast<unsigned long long>(r.events),
               static_cast<double>(r.timed_ns) / 1e9,
               static_cast<size_t>(r.results),
               r.set_ups,
               static_cast<unsigned long long>(r.tally.failed),
               static_cast<unsigned long long>(r.tally.attempted));
  std::fprintf(stderr, "  per-round events/s, p50 us, p99 us:");
  for (size_t i = 0; i < r.round_rates.size(); ++i) {
    std::fprintf(stderr, " [%.0f %.0f %.0f]", r.round_rates[i],
                 r.round_p50_us[i], r.round_p99_us[i]);
  }
  std::fprintf(stderr, "\n");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload wire_ingest|fork_rank|fleet_sharded "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  RunConfig config;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const auto it = Workloads().find(workload);
  if (argc % 2 == 0 || it == Workloads().end() || !(config.seconds > 0)) {
    return Usage(argv[0]);
  }

  std::fprintf(stderr,
               "machine: nproc=%u compiler=\"%s\" build_type=%s\n"
               "workload=%s seed=%llu seconds=%g trace=%d\n",
               std::thread::hardware_concurrency(), __VERSION__,
               CEPR_PERF_BUILD_TYPE, workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               trace ? 1 : 0);

  Tracer untraced(false);
  const RunOutput base = it->second(config, &untraced);
  Describe("untraced", base);
  uint64_t attempted = base.tally.attempted;
  uint64_t failed = base.tally.failed;

  std::vector<std::pair<Metric, double>> metrics;
  if (!trace) {
    const double values[] = {
        Median(base.round_rates),
        Median(base.round_p50_us),
        Median(base.round_p99_us),
        static_cast<double>(base.setup_ns) / 1e9 /
            static_cast<double>(base.set_ups),
        PeakRssMb(),
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i], values[i]});
    }
  } else {
    Tracer tracer(true);
    RunOutput traced = it->second(config, &tracer);
    Describe("traced", traced);
    attempted += traced.tally.attempted;
    failed += traced.tally.failed;
    traced.layer["trace.overhead_pct"] =
        (EventsPerSecond(base) / EventsPerSecond(traced) - 1.0) * 100.0;
    for (const Metric& m : kPerLayer) {
      const auto v = traced.layer.find(m.name);
      metrics.push_back({m, v == traced.layer.end() ? 0.0 : v->second});
    }
    if (!trace_out.empty() && !tracer.WriteJson(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a metric without samples reads 0.
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].first.name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cepr_perf

int main(int argc, char** argv) { return cepr_perf::Main(argc, argv); }
