// Evaluators of the benchmark's ranked queries, written from the queries'
// declarative meaning and sharing no code with the engine. Each returns the
// top-k scores per (query, report window); report windows are event-time
// tumbling windows of the WITHIN span, and a match belongs to the window of
// its last event.
#ifndef CEPR_PERF_ORACLE_H_
#define CEPR_PERF_ORACLE_H_

#include <cstdint>
#include <vector>

#include "event/event.h"
#include "harness.h"

namespace cepr_perf {

/// One fleet query: SEQ(a, b) USING SKIP_TILL_ANY_MATCH PARTITION BY symbol
/// WHERE a.volume = `volume` AND b.price > a.price WITHIN `within`
/// RANK BY b.price - a.price DESC LIMIT `limit`.
struct FleetQuerySpec {
  int query = 0;
  int64_t volume = 0;
};

/// Every qualifying (a, b) pair per symbol within the span, for every fleet
/// query. `events` are Stock events (symbol, price, volume) in time order.
ScoreGroups FleetOracle(const std::vector<cepr::Event>& events,
                        const std::vector<FleetQuerySpec>& fleet,
                        Timestamp within, size_t limit);

/// SEQ(a, b+) USING SKIP_TILL_ANY_MATCH PARTITION BY sym WHERE a.anchor = 1
/// AND b[i].anchor = 0 WITHIN `within` RANK BY SUM(b.price) DESC: the
/// matches of an anchor a ending at event l are l with any subset of the
/// non-anchor events between a and l, so the k best are the k largest
/// subset sums. `events` are ForkTick events (sym, anchor, price).
ScoreGroups SubsetSumOracle(const std::vector<cepr::Event>& events, int query,
                            Timestamp within, size_t limit);

/// As SubsetSumOracle plus `b[i].price > b[i-1].price`: the matches are the
/// strictly increasing subsequences of non-anchor events after an anchor,
/// enumerated as the k best sums ending at each event.
ScoreGroups IncreasingRunOracle(const std::vector<cepr::Event>& events,
                                int query, Timestamp within, size_t limit);

}  // namespace cepr_perf

#endif  // CEPR_PERF_ORACLE_H_
