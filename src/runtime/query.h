#ifndef CEPR_RUNTIME_QUERY_H_
#define CEPR_RUNTIME_QUERY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/partition.h"
#include "plan/signature.h"
#include "rank/emitter.h"
#include "runtime/metrics.h"
#include "runtime/sink.h"

namespace cepr {

/// Per-query execution knobs.
struct QueryOptions {
  /// Ranking policy; kPruned is the full CEPR configuration, the others
  /// exist as evaluation baselines and for ablations.
  RankerPolicy ranker = RankerPolicy::kPruned;
  MatcherOptions matcher;
};

/// One registered query's executable pipeline:
///   event -> PartitionedMatcher -> matches -> Emitter(Ranker) -> Sink.
/// Owned by the Engine; single-threaded.
class RunningQuery {
 public:
  /// `forward` (nullable) re-ingests each emitted result as a derived-stream
  /// event (EMIT ... INTO); installed by the Engine.
  using ForwardFn = std::function<void(const RankedResult&)>;

  /// `live_runs` (nullable) is the engine-wide budget counter shared by
  /// all queries (see MatcherOptions::max_total_runs).
  RunningQuery(std::string name, CompiledQueryPtr plan, QueryOptions options,
               Sink* sink, ForwardFn forward = nullptr,
               size_t* live_runs = nullptr);

  /// Feeds one event (already validated against the query's stream) with
  /// the per-query ordinal supplied by the caller (stream sequence minus
  /// registration offset — the shared layer does not visit this query on
  /// every event, so it cannot count locally) and the predicate-index
  /// verdict. When `candidate` is false and the event's partition holds no
  /// runs the matcher visit is skipped (`*evaluated` = false); the emitter
  /// still advances so report windows close at the same positions as a
  /// visit would. Timing is recorded only for evaluated events. Fails only
  /// on a runtime fault under FaultPolicy::kFailFast; the window/ranking
  /// state stays coherent either way.
  Status OnEventAt(const EventPtr& event, uint64_t ordinal, bool candidate,
                   bool* evaluated);

  /// Pure window progress for an event this query was not visited on:
  /// closes any report window the position (ts, ordinal) moves past and
  /// delivers its results, exactly as the matcher-visiting path would.
  void AdvanceWindows(Timestamp ts, uint64_t ordinal);

  /// True iff a buffered report window is open — i.e. skipping window
  /// advancement on a boundary-crossing event would delay emission.
  bool has_pending_window() const { return emitter_.has_buffered_results(); }

  /// End of stream: flushes buffered windows to the sink.
  void Finish();

  const std::string& name() const { return name_; }
  const CompiledQueryPtr& plan() const { return plan_; }
  const Emitter& emitter() const { return emitter_; }
  /// Snapshot of the metrics (matcher counters copied on call). `events`
  /// is derived from the stream position (every stream event logically
  /// reaches every query, visited or skipped).
  QueryMetrics metrics() const;
  size_t active_runs() const { return matcher_.active_runs(); }
  size_t MemoryEstimate() const { return matcher_.MemoryEstimate(); }

  /// Shared-evaluation bookkeeping, installed at registration: the owning
  /// stream's sequence counter and this query's registration offset
  /// (`*stream_sequence - offset` = events logically seen).
  void BindSharedStream(const uint64_t* stream_sequence, uint64_t offset) {
    stream_sequence_ = stream_sequence;
    registration_offset_ = offset;
  }
  uint64_t registration_offset() const { return registration_offset_; }

  /// Checkpoint serialization of the query's full mutable pipeline state:
  /// metric counters/histograms, the emitter's ranking state and every
  /// partition's run set. Load expects a freshly
  /// registered query with the same plan and options; the shared-stream
  /// pointer installed by BindSharedStream is left untouched (the engine
  /// rebinds it at re-registration).
  void SaveState(EventInterner* in, BinWriter* w) const;
  bool LoadState(EventUninterner* in, BinReader* r);

  /// The interned NFA template this query shares. Held here so the
  /// template's refcount tracks query lifetime — hot-removing the last
  /// sharer frees it.
  void set_nfa_template(std::shared_ptr<const NfaTemplate> t) {
    nfa_template_ = std::move(t);
  }
  const std::shared_ptr<const NfaTemplate>& nfa_template() const {
    return nfa_template_;
  }

 private:
  void Deliver(std::vector<RankedResult> results);

  std::string name_;
  CompiledQueryPtr plan_;
  QueryOptions options_;
  Sink* sink_;  // not owned; must outlive the query
  ForwardFn forward_;
  Emitter emitter_;
  PartitionedMatcher matcher_;
  QueryMetrics metrics_;
  Timestamp last_event_ts_ = 0; // emission-delay bookkeeping
  const uint64_t* stream_sequence_ = nullptr;  // not owned
  uint64_t registration_offset_ = 0;
  std::shared_ptr<const NfaTemplate> nfa_template_;
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_QUERY_H_
