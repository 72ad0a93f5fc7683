#ifndef CEPR_TESTS_INTEGRATION_RANKED_FIXTURE_H_
#define CEPR_TESTS_INTEGRATION_RANKED_FIXTURE_H_

// Golden ranked-output fixtures for the hot-path equivalence suite
// (cow_equivalence_test.cc). The workloads below are fork-heavy, negation,
// Kleene and dag-eligible queries over seeded generators; their ranked
// output was recorded once, at commit 25ac09d, from the legacy
// configuration that commit still carried (deep-copied bindings, no arena,
// no predicate cache, AST evaluation, per-run expiry, no match DAG) after
// checking that every other configuration agreed with it. Each result is
// one text line with every field exact: score and float cells as IEEE-754
// bit patterns.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rank/ranker.h"
#include "runtime/query.h"
#include "workload/forkheavy.h"
#include "workload/health.h"
#include "workload/stock.h"

namespace cepr {
namespace testing {

struct RankedWorkload {
  const char* label;
  SchemaPtr schema;
  std::vector<Event> events;
  std::string query;
  QueryOptions options;
};

// Fork-heavy: SKIP_TILL_ANY_MATCH forks a run at every Kleene extension,
// and the mixed event-only ("< 900") / correlated conjuncts exercise both
// predicate-cache paths. The tight run cap with bound-based shedding makes
// DeriveBounds run against shared bindings constantly.
inline RankedWorkload SkipTillAnyWorkload(uint64_t seed, size_t n = 2500) {
  StockOptions options;
  options.base.seed = seed;
  options.num_symbols = 4;
  options.v_probability = 0.05;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  RankedWorkload w{"skip-any", gen.schema(), gen.Take(n),
                   "SELECT a.symbol, a.price, MIN(b.price), c.price "
                   "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
                   "USING SKIP_TILL_ANY_MATCH "
                   "PARTITION BY symbol "
                   "WHERE b[i].price < b[i-1].price AND b[i].price < 900 "
                   "  AND b[1].price < a.price AND c.price > a.price "
                   "WITHIN 100 MILLISECONDS "
                   "RANK BY (a.price - MIN(b.price)) / a.price DESC "
                   "LIMIT 10 EMIT ON WINDOW CLOSE",
                   QueryOptions{}};
  w.options.matcher.max_active_runs = 64;
  w.options.matcher.shed_policy = ShedPolicy::kShedLowestScoreBound;
  return w;
}

// Negation + event-only begin predicate; default caps.
inline RankedWorkload NegationWorkload(uint64_t seed, size_t n = 4000) {
  StockOptions options;
  options.base.seed = seed;
  options.num_symbols = 4;
  options.v_probability = 0.04;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return RankedWorkload{"negation", gen.schema(), gen.Take(n),
                        "SELECT a.symbol, a.price, c.price "
                        "FROM Stock MATCH PATTERN SEQ(a, !n, c) "
                        "PARTITION BY symbol "
                        "WHERE a.price > 20 AND n.price > a.price "
                        "  AND c.price < a.price "
                        "WITHIN 20 MILLISECONDS "
                        "RANK BY a.price - c.price DESC "
                        "LIMIT 5 EMIT ON WINDOW CLOSE",
                        QueryOptions{}};
}

// Long Kleene chains (health vitals episodes) — deep shared prefixes.
inline RankedWorkload KleeneWorkload(uint64_t seed, size_t n = 4000) {
  HealthOptions options;
  options.base.seed = seed;
  options.num_patients = 6;
  options.episode_probability = 0.015;
  HealthGenerator gen(options);
  return RankedWorkload{"kleene", gen.schema(), gen.Take(n),
                        "SELECT a.patient, a.heart_rate, MAX(r.heart_rate) "
                        "FROM Vitals MATCH PATTERN SEQ(a, r+) "
                        "PARTITION BY patient "
                        "WHERE r[i].heart_rate > r[i-1].heart_rate "
                        "  AND r[1].heart_rate > a.heart_rate "
                        "WITHIN 30 SECONDS "
                        "RANK BY MAX(r.heart_rate) - a.heart_rate DESC "
                        "LIMIT 5 EMIT ON WINDOW CLOSE",
                        QueryOptions{}};
}

// Dag-eligible: trailing unbounded Kleene-plus under skip-till-any with
// event-only iteration predicates, ranked buffered emission — the shape the
// shared match DAG covers. SUM(b.price) discriminates between suffix
// subsets so lazy enumeration stays near O(k); the 12ms window bounds the
// per-run path's 2^t fork fan-out to test scale.
inline RankedWorkload DagEligibleWorkload(uint64_t seed, size_t n = 3000) {
  ForkHeavyOptions options;
  options.base.seed = seed;
  options.num_streams = 2;
  options.anchor_probability = 0.15;
  options.base.interval_micros = 1000;
  ForkHeavyGenerator gen(options);
  return RankedWorkload{"fork-heavy-dag", gen.schema(), gen.Take(n),
                        "SELECT a.price, SUM(b.price), COUNT(b) "
                        "FROM ForkTick MATCH PATTERN SEQ(a, b+) "
                        "USING SKIP_TILL_ANY_MATCH "
                        "PARTITION BY sym "
                        "WHERE a.anchor = 1 AND b[i].anchor = 0 "
                        "WITHIN 12 MILLISECONDS "
                        "RANK BY SUM(b.price) DESC "
                        "LIMIT 5 EMIT ON WINDOW CLOSE",
                        QueryOptions{}};
}

// The poison-event schedules of the injected-fault fixtures (stream
// sequence numbers armed on fault_points::kEvalPoison, injector seed 1).
inline std::vector<uint64_t> SkipTillAnyPoisonKeys() {
  return {7, 100, 101, 555, 1500, 3999};
}
inline std::vector<uint64_t> DagPoisonKeys() {
  return {3, 250, 251, 777, 1800, 2999};
}

inline std::string Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

inline std::string FormatValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kBool:
      return v.AsBool() ? "b:1" : "b:0";
    case ValueType::kInt:
      return "i:" + std::to_string(v.AsInt());
    case ValueType::kFloat:
      return "f:" + Bits(v.AsFloat());
    case ValueType::kString:
      return "s:" + std::to_string(v.AsString().size()) + ":" + v.AsString();
  }
  return "?";
}

/// One fixture line: window, rank, provisional flag, span, detecting-event
/// sequence, score bits and the SELECT row.
inline std::string FormatResult(const RankedResult& r) {
  std::string out = "w=" + std::to_string(r.window_id) +
                    " r=" + std::to_string(r.rank) +
                    " p=" + (r.provisional ? "1" : "0") +
                    " first=" + std::to_string(r.match.first_ts) +
                    " last=" + std::to_string(r.match.last_ts) +
                    " seq=" + std::to_string(r.match.last_sequence) +
                    " score=" + Bits(r.match.score) + " row=";
  for (size_t i = 0; i < r.match.row.size(); ++i) {
    if (i > 0) out += "|";
    out += FormatValue(r.match.row[i]);
  }
  return out;
}

inline std::vector<std::string> FormatResults(
    const std::vector<RankedResult>& results) {
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (const RankedResult& r : results) lines.push_back(FormatResult(r));
  return lines;
}

/// Directory holding the recorded fixtures, next to this header.
inline std::string GoldenDir() {
  std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/') + 1) + "golden/";
}

/// Reads `<GoldenDir()>/<name>.txt`, skipping '#' comment lines; an absent
/// file reads as no lines (the caller's size check then fails loudly).
inline std::vector<std::string> ReadGolden(const std::string& name) {
  std::ifstream in(GoldenDir() + name + ".txt");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

}  // namespace testing
}  // namespace cepr

#endif  // CEPR_TESTS_INTEGRATION_RANKED_FIXTURE_H_
