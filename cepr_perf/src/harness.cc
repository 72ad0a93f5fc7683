#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>

// -- Heap allocation counter -------------------------------------------------
// Every operator new in the process bumps one relaxed counter; a layer call's
// allocations are the counter's delta around it.

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cepr_perf {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  // Room up front, so the tracer's own growth rarely allocates inside a span.
  if (enabled_) spans_.reserve(1 << 20);
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, 0, 0, parent, AllocCount()});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  span.allocs = AllocCount() - span.allocs;
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  // Spans nest strictly (one thread, stack discipline), so children of one
  // parent never overlap and self time is the duration minus theirs.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  std::vector<uint64_t> child_allocs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    child_allocs[static_cast<size_t>(s.parent)] += s.allocs;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    t.allocs += s.allocs;
    t.self_allocs += s.allocs - child_allocs[i];
  }
  return out;
}

Tracer::Totals Tracer::Of(const std::string& name) const {
  const std::map<std::string, Totals> all = Summarize();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n[\"" << s.name << "\"," << s.start_ns
        << "," << s.end_ns << "," << s.parent << "," << s.allocs << "]";
  }
  out << "],\n\"totals\":{";
  bool first = true;
  for (const auto& [name, t] : Summarize()) {
    out << (first ? "" : ",") << "\n\"" << name << "\":{\"count\":" << t.count
        << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns
        << ",\"allocs\":" << t.allocs << ",\"self_allocs\":" << t.self_allocs
        << "}";
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

// -- Statistics --------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// -- Results -----------------------------------------------------------------

void RecordingSink::OnResult(const cepr::RankedResult& r) {
  ResultRec rec;
  rec.t_ns = NowNs();
  rec.query = query_;
  rec.window = r.window_id;
  rec.rank = r.rank;
  rec.score = r.match.score;
  if (keep_row_) rec.row = r.match.row;
  out_->push_back(std::move(rec));
}

CallLog::CallLog(const std::vector<Timestamp>& arrival_ts, Timestamp lateness)
    : lateness_(lateness) {
  prefix_max_.reserve(arrival_ts.size());
  Timestamp high = INT64_MIN;
  for (Timestamp ts : arrival_ts) {
    high = std::max(high, ts);
    prefix_max_.push_back(high);
  }
}

void CallLog::Start(size_t first, int64_t t_ns) {
  first_.push_back(first);
  start_ns_.push_back(t_ns);
}

double CallLog::LatencyUs(Timestamp window_end, int64_t t_ns) const {
  // First arrival whose watermark reaches the window end (prefix maxima
  // are sorted); none means only the end of the stream closes the window.
  const size_t closing = static_cast<size_t>(
      std::lower_bound(prefix_max_.begin(), prefix_max_.end(),
                       window_end + lateness_) -
      prefix_max_.begin());
  // The call that carried it: the last call starting at or before it.
  const size_t call = static_cast<size_t>(
      std::upper_bound(first_.begin(), first_.end(), closing) - first_.begin());
  if (call == 0) return -1.0;
  return static_cast<double>(t_ns - start_ns_[call - 1]) / 1e3;
}

// -- Checks ------------------------------------------------------------------

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) Fail(what);
}

void Tally::Fail(const std::string& what) {
  if (failed < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failed;
}

ScoreGroups GroupScores(const std::vector<ResultRec>& results) {
  ScoreGroups groups;
  for (const ResultRec& r : results) {
    groups[{r.query, r.window}].push_back(r.score);
  }
  return groups;
}

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

std::string GroupName(const std::pair<int, int64_t>& key) {
  return "query " + std::to_string(key.first) + " window " +
         std::to_string(key.second);
}

}  // namespace

void CompareTopK(const ScoreGroups& expected, const ScoreGroups& actual,
                 const std::vector<int>& queries, Tally* tally) {
  auto wanted = [&](int q) {
    return std::find(queries.begin(), queries.end(), q) != queries.end();
  };
  static const std::vector<double> kEmpty;
  auto compare = [&](const std::pair<int, int64_t>& key,
                     const std::vector<double>& exp_in,
                     const std::vector<double>& got_in) {
    std::vector<double> exp = exp_in;
    std::vector<double> got = got_in;
    std::sort(exp.begin(), exp.end());
    std::sort(got.begin(), got.end());
    bool ok = exp.size() == got.size();
    for (size_t i = 0; ok && i < exp.size(); ++i) ok = Close(exp[i], got[i]);
    tally->Check(ok, GroupName(key) + ": expected " +
                         std::to_string(exp.size()) + " scores, got " +
                         std::to_string(got.size()) + " (or values differ)");
  };
  for (const auto& [key, exp] : expected) {
    if (!wanted(key.first)) continue;
    const auto it = actual.find(key);
    compare(key, exp, it == actual.end() ? kEmpty : it->second);
  }
  for (const auto& [key, got] : actual) {
    if (wanted(key.first) && expected.count(key) == 0) {
      compare(key, kEmpty, got);
    }
  }
}

void CheckDip(const std::vector<ResultRec>& got,
              const std::vector<ResultRec>& reference, size_t limit,
              Tally* tally) {
  std::map<int64_t, std::vector<const ResultRec*>> windows;
  for (const ResultRec& r : got) windows[r.window].push_back(&r);
  for (const ResultRec& r : reference) windows[r.window];
  std::map<int64_t, std::vector<const ResultRec*>> ref_windows;
  for (const ResultRec& r : reference) ref_windows[r.window].push_back(&r);

  for (const auto& [window, rows] : windows) {
    bool ok = rows.size() <= limit;
    for (size_t i = 0; ok && i < rows.size(); ++i) {
      const ResultRec& r = *rows[i];
      ok = r.rank == i && (i == 0 || r.score <= rows[i - 1]->score) &&
           r.row.size() == 4;
      if (!ok) break;
      const cepr::Result<double> a = r.row[1].AsNumeric();
      const cepr::Result<double> min_b = r.row[2].AsNumeric();
      ok = a.ok() && min_b.ok() &&
           Close((a.value() - min_b.value()) / a.value(), r.score);
    }
    const auto& ref = ref_windows[window];
    ok = ok && ref.size() == rows.size();
    for (size_t i = 0; ok && i < rows.size(); ++i) {
      ok = ref[i]->rank == rows[i]->rank &&
           std::memcmp(&ref[i]->score, &rows[i]->score, sizeof(double)) == 0 &&
           ref[i]->row == rows[i]->row;
    }
    tally->Check(ok, "dip window " + std::to_string(window) + ": " +
                         std::to_string(rows.size()) + " results vs " +
                         std::to_string(ref.size()) +
                         " from the serial reference (or a property fails)");
  }
}

std::vector<ResultRec> OfQuery(const std::vector<ResultRec>& results,
                               int query) {
  std::vector<ResultRec> out;
  for (const ResultRec& r : results) {
    if (r.query == query) out.push_back(r);
  }
  return out;
}

}  // namespace cepr_perf
