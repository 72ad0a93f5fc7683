#include "runtime/query.h"

#include "common/binio.h"
#include "common/stopwatch.h"
#include "runtime/serde.h"

namespace cepr {

namespace {

/// Dag mode defers matches to window close, so it composes only with the
/// buffered heap-based policies; every other ranking policy falls back to
/// the per-run path regardless of shared_match_dag.
MatcherOptions GateDagMode(MatcherOptions options, RankerPolicy policy) {
  if (policy != RankerPolicy::kHeap && policy != RankerPolicy::kPruned) {
    options.shared_match_dag = false;
  }
  return options;
}

}  // namespace

RunningQuery::RunningQuery(std::string name, CompiledQueryPtr plan,
                           QueryOptions options, Sink* sink, ForwardFn forward,
                           size_t* live_runs)
    : name_(std::move(name)),
      plan_(std::move(plan)),
      options_(options),
      sink_(sink),
      forward_(std::move(forward)),
      emitter_(plan_, options.ranker),
      // Note: the emitter's ranker may itself have degraded the policy
      // (e.g. no RANK BY -> passthrough), so gate on its resolved policy.
      matcher_(plan_,
               GateDagMode(options.matcher, emitter_.ranker().policy()),
               emitter_.pruner(), live_runs) {
  emitter_.BindDagStore(matcher_.dag_store());
}

Status RunningQuery::OnEventAt(const EventPtr& event, uint64_t ordinal,
                               bool candidate, bool* evaluated) {
  Stopwatch timer;
  last_event_ts_ = event->timestamp();

  std::vector<Match> matches;
  std::vector<LazyMatchSet> lazy;
  const bool dag = matcher_.dag_store() != nullptr;
  const Status matched = matcher_.OnEvent(event, &matches, candidate,
                                          evaluated, dag ? &lazy : nullptr);
  metrics_.matches += matches.size() + lazy.size();

  // The emitter advances unconditionally — even when the matcher visit was
  // skipped or faulted — so window closes land at the same (ts, ordinal)
  // positions a visit on every event would produce.
  std::vector<RankedResult> results;
  emitter_.OnEvent(event->timestamp(), ordinal, std::move(matches),
                   std::move(lazy), &results);
  Deliver(std::move(results));

  if (*evaluated) metrics_.event_processing_ns.Record(timer.ElapsedNanos());
  return matched;
}

void RunningQuery::AdvanceWindows(Timestamp ts, uint64_t ordinal) {
  last_event_ts_ = ts;
  std::vector<RankedResult> results;
  emitter_.OnEvent(ts, ordinal, {}, &results);
  Deliver(std::move(results));
}

void RunningQuery::Finish() {
  std::vector<RankedResult> results;
  emitter_.Finish(&results);
  Deliver(std::move(results));
}

void RunningQuery::Deliver(std::vector<RankedResult> results) {
  for (RankedResult& r : results) {
    metrics_.emission_delay_us.Record(last_event_ts_ - r.match.last_ts);
    ++metrics_.results;
    if (sink_ != nullptr) sink_->OnResult(r);
    if (forward_ != nullptr) forward_(r);
  }
}

void RunningQuery::SaveState(EventInterner* in, BinWriter* w) const {
  w->U64(metrics_.matches);
  w->U64(metrics_.results);
  metrics_.event_processing_ns.Save(w);
  metrics_.emission_delay_us.Save(w);
  w->I64(last_event_ts_);
  w->U64(registration_offset_);
  emitter_.SaveState(in, w);
  matcher_.SaveState(in, w);
}

bool RunningQuery::LoadState(EventUninterner* in, BinReader* r) {
  return r->U64(&metrics_.matches) && r->U64(&metrics_.results) &&
         metrics_.event_processing_ns.Load(r) &&
         metrics_.emission_delay_us.Load(r) && r->I64(&last_event_ts_) &&
         r->U64(&registration_offset_) && emitter_.LoadState(in, r) &&
         matcher_.LoadState(in, r);
}

QueryMetrics RunningQuery::metrics() const {
  QueryMetrics snapshot = metrics_;
  if (stream_sequence_ != nullptr) {
    // The engine does not visit this query per event, so count events from
    // the stream position — every stream event since registration
    // logically reached the query.
    snapshot.events = *stream_sequence_ - registration_offset_;
  }
  snapshot.matcher = matcher_.stats();
  if (emitter_.score_pruner() != nullptr) {
    snapshot.prune_checks = emitter_.score_pruner()->checks();
    snapshot.prunes = emitter_.score_pruner()->prunes();
  }
  snapshot.matches_enumerated = emitter_.ranker().matches_enumerated();
  snapshot.enumeration_cutoffs = emitter_.ranker().enumeration_cutoffs();
  return snapshot;
}

}  // namespace cepr
