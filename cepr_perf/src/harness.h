// Shared pieces of the CEPR end-to-end benchmark: clocks, the heap
// allocation counter, in-memory tracing spans, result records with their
// latency attribution, and the output checks every workload runs.
#ifndef CEPR_PERF_HARNESS_H_
#define CEPR_PERF_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "event/event.h"
#include "runtime/sink.h"

namespace cepr_perf {

using cepr::Timestamp;

/// Monotonic wall clock, nanoseconds.
int64_t NowNs();

/// Heap allocations made so far by every thread of the process (counted by
/// the benchmark's replacement operator new).
uint64_t AllocCount();

/// Peak resident set of this process, MiB.
double PeakRssMb();

// -- Tracing -----------------------------------------------------------------

/// One call into a layer, as seen from the benchmark: its name, interval and
/// the span that caused it (-1 for a root).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  /// Heap allocations made during the span, by any thread.
  uint64_t allocs;
};

/// Keeps spans in memory (written out when the run ends). Disabled tracers
/// record nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int Begin(const char* name);
  void End(int id);

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    /// Total minus the time covered by child spans.
    int64_t self_ns = 0;
    uint64_t allocs = 0;
    uint64_t self_allocs = 0;
  };
  std::map<std::string, Totals> Summarize() const;
  Totals Of(const std::string& name) const;

  /// Every span as [name, start_ns, end_ns, parent, allocs], followed by
  /// per-name totals.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// -- Statistics --------------------------------------------------------------

/// Quantile by linear interpolation between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// -- Results and their latency ----------------------------------------------

/// One ranked result as the benchmark received it.
struct ResultRec {
  int query = 0;
  int64_t window = 0;
  uint64_t rank = 0;
  double score = 0.0;
  /// When the result reached the benchmark (sink call or client reply).
  int64_t t_ns = 0;
  /// SELECT row; kept only for queries whose rows are checked.
  std::vector<cepr::Value> row;
};

/// Sink that appends every result of one query to a shared record list.
class RecordingSink : public cepr::Sink {
 public:
  RecordingSink(int query, bool keep_row, std::vector<ResultRec>* out)
      : query_(query), keep_row_(keep_row), out_(out) {}
  void OnResult(const cepr::RankedResult& r) override;

 private:
  int query_;
  bool keep_row_;
  std::vector<ResultRec>* out_;
};

/// Ingest calls of one round, for attributing each result to the call that
/// carried the arrival making its report window final. A window ending at
/// event time E is final once the watermark (highest timestamp seen minus
/// the lateness bound) reaches E: no admissible later arrival can land in
/// it. Results of windows that only the end of the stream closes are
/// attributed to the closing Finish call.
class CallLog {
 public:
  CallLog(const std::vector<Timestamp>& arrival_ts, Timestamp lateness);

  /// Records the start of an ingest call whose first arrival is `first`
  /// (use arrivals.size() for the closing Finish).
  void Start(size_t first, int64_t t_ns);

  /// Latency in microseconds of a result of a window ending at
  /// `window_end`, received at `t_ns`; negative when the result arrived
  /// before its window could be final.
  double LatencyUs(Timestamp window_end, int64_t t_ns) const;

 private:
  std::vector<Timestamp> prefix_max_;
  Timestamp lateness_;
  std::vector<size_t> first_;
  std::vector<int64_t> start_ns_;
};

// -- Checks ------------------------------------------------------------------

/// Operations attempted and failed, with the first few failures described
/// on stderr.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Check(bool ok, const std::string& what);
  /// Counts one ingest call; `s` says whether it failed.
  void Call(const cepr::Status& s, const char* what) {
    ++attempted;
    if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
  }
  void Fail(const std::string& what);
};

/// Top-k scores per (query, report window).
using ScoreGroups = std::map<std::pair<int, int64_t>, std::vector<double>>;

ScoreGroups GroupScores(const std::vector<ResultRec>& results);

/// Compares the multisets of top-k scores of every (query, window) present
/// on either side, with a relative tolerance for summation order. One
/// operation per group. Only groups of queries in `queries` are compared.
void CompareTopK(const ScoreGroups& expected, const ScoreGroups& actual,
                 const std::vector<int>& queries, Tally* tally);

/// The dip query's properties, per report window (one operation each):
/// ranks run 0..n-1 with n <= limit, scores do not increase with rank, and
/// each score equals (a.price - MIN(b.price)) / a.price from its row
/// (a.symbol, a.price, MIN(b.price), c.price). `got` must equal `reference`
/// (a serial in-process engine fed the same events in time order) exactly:
/// window, rank, score bits and row.
void CheckDip(const std::vector<ResultRec>& got,
              const std::vector<ResultRec>& reference, size_t limit,
              Tally* tally);

/// The results of query `query`, in arrival order.
std::vector<ResultRec> OfQuery(const std::vector<ResultRec>& results,
                               int query);

}  // namespace cepr_perf

#endif  // CEPR_PERF_HARNESS_H_
