// wire_ingest: a loopback CeprServer on the serial engine. One CeprClient
// session deploys a fleet of ranked queries (the dip query plus
// volume-anchored queries sharing one template), then pushes seeded Stock
// events in fixed-size kEventBatch frames and receives results inline, as
// examples/cepr_client does. The only workload through src/net/: frame
// encode and decode, session dispatch, the engine mutex, and result encode
// and send.
//
// The traced run cannot wrap the server thread's work, so after each
// round it replays the same frames in process — client encode, server
// decode (LoadEventBody), Engine::PushAll with result encoding, client
// result decode — and reports what remains of each frame's round trip as
// waiting.

#include <sched.h>

#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/binio.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "oracle.h"
#include "runtime/engine.h"
#include "runtime/serde.h"
#include "workload/stock.h"
#include "workloads.h"

namespace cepr_perf {
namespace {

constexpr size_t kEvents = 16384;  // per round
constexpr size_t kFleet = 299;    // plus the dip query
constexpr size_t kFrame = 256;    // events per kEventBatch frame
constexpr uint32_t kBinding = 0;  // the session's first stream binding

/// Encodes results the way the server's result channel does.
class EncodingSink : public cepr::Sink {
 public:
  EncodingSink(std::string query, std::vector<std::string>* out)
      : query_(std::move(query)), out_(out) {}
  void OnResult(const cepr::RankedResult& r) override {
    out_->push_back(cepr::net::EncodeResult(query_, r));
  }

 private:
  std::string query_;
  std::vector<std::string>* out_;
};

/// The in-process replay of one round's frames (traced runs only).
struct ReplayCost {
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  uint64_t bytes = 0;
  /// Per frame: everything the replay did for it.
  std::vector<int64_t> frame_ns;
};

ReplayCost Replay(const std::vector<std::vector<cepr::Event>>& frames,
                  const std::vector<std::string>& texts,
                  const std::vector<std::string>& names, Tracer* tracer,
                  std::map<std::string, double>* layer, Tally* tally) {
  ReplayCost cost;
  std::vector<std::string> encoded_results;
  std::vector<std::unique_ptr<EncodingSink>> sinks;
  cepr::Engine engine;
  tally->Call(engine.ExecuteDdl(kStockDdl), "replay ddl");
  const cepr::SchemaPtr schema = engine.GetSchema("Stock").value();
  for (size_t q = 0; q < texts.size(); ++q) {
    sinks.push_back(std::make_unique<EncodingSink>(names[q], &encoded_results));
    tally->Call(engine.RegisterQuery(names[q], texts[q], cepr::QueryOptions{},
                                     sinks.back().get()),
                "replay deploy");
  }
  uint64_t events = 0;
  for (const std::vector<cepr::Event>& frame : frames) {
    const int64_t t0 = NowNs();
    // Encode and decode as the client and the session do, frame CRC included.
    std::string payload;
    uint32_t crc = 0;
    {
      ScopedSpan span(tracer, "net.encode");
      cepr::BinWriter w;
      w.U8(static_cast<uint8_t>(cepr::net::MsgType::kEventBatch));
      w.U32(kBinding);
      w.U32(static_cast<uint32_t>(frame.size()));
      for (const cepr::Event& e : frame) cepr::SaveEventBody(&w, e);
      payload = w.Take();
      crc = cepr::Crc32(payload.data(), payload.size());
    }
    const int64_t t1 = NowNs();
    std::vector<cepr::Event> decoded;
    {
      ScopedSpan span(tracer, "net.decode");
      cepr::BinReader r(payload);
      uint8_t type = 0;
      uint32_t binding = 0;
      uint32_t n = 0;
      bool ok = cepr::Crc32(payload.data(), payload.size()) == crc &&
                r.U8(&type) && r.U32(&binding) && r.U32(&n);
      decoded.reserve(n);
      for (uint32_t i = 0; ok && i < n; ++i) {
        cepr::Event e;
        ok = cepr::LoadEventBody(&r, schema, &e);
        decoded.push_back(std::move(e));
      }
      if (!ok || decoded.size() != frame.size()) tally->Fail("replay decode");
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span(tracer, "runtime.push_all");
      const cepr::Status s = engine.PushAll(std::move(decoded));
      if (!s.ok()) tally->Fail("replay push_all: " + s.ToString());
    }
    {
      ScopedSpan span(tracer, "net.result_decode");
      for (const std::string& frame_bytes : encoded_results) {
        cepr::BinReader r(frame_bytes);
        uint8_t type = 0;
        cepr::net::WireResult result;
        if (!r.U8(&type) || !cepr::net::DecodeResultBody(&r, &result)) {
          tally->Fail("replay result decode");
        }
      }
      encoded_results.clear();
    }
    const int64_t t4 = NowNs();
    cost.encode_ns += t1 - t0;
    cost.decode_ns += t2 - t1;
    cost.bytes += payload.size() + 8;  // plus the [len][crc] frame header
    cost.frame_ns.push_back(t4 - t0);
    events += frame.size();
  }
  engine.Finish();
  AddCounterMetrics(engine.Snapshot(), static_cast<double>(events), layer);
  return cost;
}

/// A loopback server and one client session with the fleet deployed.
struct Session {
  Session() : server(cepr::net::ServerOptions{}) {}
  ~Session() {
    client.Close();
    server.Stop();
  }
  cepr::net::CeprServer server;
  cepr::net::CeprClient client;
  uint32_t binding = kBinding;
};

/// Everything before the first timed frame: server start, connect, DDL,
/// stream binding and one deploy per query. With a tracer on, adds each
/// deploy's microseconds to `cost`.
std::unique_ptr<Session> SetUp(const std::vector<std::string>& names,
                               const std::vector<std::string>& texts,
                               Tracer* tracer, LayerCost* cost, Tally* tally) {
  auto session = std::make_unique<Session>();
  tally->Call(session->server.Start(), "server start");
  tally->Call(session->client.Connect("127.0.0.1", session->server.port()),
              "connect");
  tally->Call(session->client.Ddl(kStockDdl), "ddl");
  const auto binding = session->client.BindStream("Stock");
  tally->Call(binding.status(), "bind stream");
  if (binding.ok()) session->binding = binding.value();
  for (size_t q = 0; q < texts.size(); ++q) {
    const int64_t start = NowNs();
    ScopedSpan span(tracer, "net.deploy");
    tally->Call(
        session->client.Deploy(names[q], texts[q], cepr::QueryOptions{}),
        "deploy");
    if (tracer->enabled()) {
      cost->register_us[q] += static_cast<double>(NowNs() - start) / 1e3;
    }
  }
  if (tracer->enabled()) ++cost->set_ups;
  return session;
}

/// Pins the calling thread, and so the server threads it starts later, to
/// the CPU it runs on. The closed loop keeps one thread busy at a time, so
/// pinning takes no parallelism away; but each deploy and frame hands off
/// between client and server threads, and on a shared host a wake-up
/// on another CPU now and then waits milliseconds for that CPU: unpinned,
/// the 300-deploy set-up took 0.05 s in one run and 0.14 s in the next.
void PinToOneCpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu < 0 ? 0 : cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "wire_ingest: cannot pin to CPU %d\n", cpu);
  }
}

}  // namespace

RunOutput RunWireIngest(const RunConfig& config, Tracer* tracer) {
  PinToOneCpu();
  const std::vector<cepr::Event> in_order = StockTicks(config.seed, kEvents);
  // Schema-less copies: the server re-binds them from the stream binding.
  std::vector<cepr::Event> wire_events;
  std::vector<Timestamp> arrival_ts;
  for (const cepr::Event& e : in_order) {
    cepr::Event wire(cepr::SchemaPtr{}, e.timestamp(), e.values());
    wire.set_type_tag(e.type_tag());
    wire_events.push_back(std::move(wire));
    arrival_ts.push_back(e.timestamp());
  }
  std::vector<std::vector<cepr::Event>> frames;
  for (size_t i = 0; i < wire_events.size(); i += kFrame) {
    const size_t end = std::min(wire_events.size(), i + kFrame);
    frames.emplace_back(wire_events.begin() + i, wire_events.begin() + end);
  }

  const std::vector<std::string> texts = FleetTexts(kFleet);
  const std::vector<std::string> names = FleetNames(kFleet);
  std::unordered_map<std::string, int> query_ids;
  for (size_t q = 0; q < names.size(); ++q) {
    query_ids[names[q]] = static_cast<int>(q);
  }
  RunOutput out;
  const ScoreGroups expected = FleetOracle(
      in_order, FleetSpecs(kFleet), kFleetWithinMs * 1000, kFleetLimit);
  const std::vector<ResultRec> dip_reference =
      SerialDipReference(in_order, 0, &out.tally);
  std::vector<int> fleet_ids;
  for (size_t q = 1; q <= kFleet; ++q) fleet_ids.push_back(static_cast<int>(q));

  LayerCost cost(texts.size());
  std::vector<double> frame_rtt_us;
  std::vector<double> wait_us;
  ReplayCost replay_total;

  RepeatRounds(config, &out, [&] {
    ScopedSpan round(tracer, "round");
    std::vector<ResultRec> results;
    results.reserve(16 * 1024);
    // Results stashed by the client during the call that just returned.
    auto collect = [&](cepr::net::CeprClient* client, int64_t t_ns) {
      for (size_t q = 0; q < texts.size(); ++q) {
        for (cepr::net::WireResult& w : client->TakeResults(names[q])) {
          ResultRec rec;
          rec.query = query_ids[w.query];
          rec.window = w.window_id;
          rec.rank = w.rank;
          rec.score = w.score;
          rec.t_ns = t_ns;
          if (rec.query == 0) rec.row = std::move(w.row);
          results.push_back(std::move(rec));
        }
      }
    };
    CallLog calls(arrival_ts, 0);
    std::vector<int64_t> rtt_ns;

    std::unique_ptr<Session> session = [&] {
      ScopedSpan span(tracer, "setup");
      return SetUp(names, texts, tracer, &cost, &out.tally);
    }();
    const int64_t start = NowNs();

    cepr::net::CeprClient& client = session->client;
    {
      ScopedSpan span(tracer, "ingest");
      for (size_t f = 0; f < frames.size(); ++f) {
        const int64_t t = NowNs();
        calls.Start(f * kFrame, t);
        {
          ScopedSpan frame(tracer, "net.frame");
          out.tally.Call(client.PushBatch(session->binding, frames[f]),
                         "push batch");
        }
        const int64_t done = NowNs();
        rtt_ns.push_back(done - t);
        collect(&client, done);
      }
      calls.Start(wire_events.size(), NowNs());
      ScopedSpan finish(tracer, "net.finish");
      out.tally.Call(client.Finish(), "finish");
    }
    const int64_t end = NowNs();
    collect(&client, end);
    out.timed_ns += end - start;
    out.events += wire_events.size();
    session.reset();

    ScopedSpan check(tracer, "check");
    std::vector<double> latency_us;
    for (const ResultRec& r : results) {
      const double us =
          calls.LatencyUs(FleetWindowEnd(r.query, r.window), r.t_ns);
      out.tally.Check(us >= 0, "result before its window could close");
      latency_us.push_back(us);
    }
    AddRoundLatencies(latency_us, &out);
    CompareTopK(expected, GroupScores(results), fleet_ids, &out.tally);
    CheckDip(OfQuery(results, 0), dip_reference, kDipLimit, &out.tally);
    if (!tracer->enabled()) return;

    ScopedSpan replay(tracer, "replay");
    const ReplayCost replayed =
        Replay(frames, texts, names, tracer, &out.layer, &out.tally);
    for (size_t f = 0; f < rtt_ns.size(); ++f) {
      frame_rtt_us.push_back(static_cast<double>(rtt_ns[f]) / 1e3);
      const int64_t wait_ns = rtt_ns[f] - replayed.frame_ns[f];
      wait_us.push_back(static_cast<double>(wait_ns) / 1e3);
    }
    replay_total.encode_ns += replayed.encode_ns;
    replay_total.decode_ns += replayed.decode_ns;
    replay_total.bytes += replayed.bytes;
    MeasureCompile(texts, cepr::StockGenerator::MakeSchema(), tracer, &cost);
  }, [&] {
    return SetUp(names, texts, tracer, &cost, &out.tally);
  });
  if (!tracer->enabled()) return out;

  const double ingested = static_cast<double>(out.events);
  double wait_total = 0;
  for (double us : wait_us) wait_total += us;
  auto& m = out.layer;
  m["net.frame_rtt_p50_us"] = Quantile(frame_rtt_us, 0.5);
  m["net.frame_rtt_p99_us"] = Quantile(frame_rtt_us, 0.99);
  m["net.encode_ns_per_event"] =
      static_cast<double>(replay_total.encode_ns) / ingested;
  m["net.decode_ns_per_event"] =
      static_cast<double>(replay_total.decode_ns) / ingested;
  m["net.bytes_per_event"] = static_cast<double>(replay_total.bytes) / ingested;
  m["net.wait_us_per_frame"] = wait_total / static_cast<double>(wait_us.size());
  m["net.deploy_rtt_us"] = cost.MeanRegisterUs();
  // Deploys stand for registrations, and the replayed PushAll for ingest.
  AddLayerMetrics(cost, out, *tracer, "runtime.push_all", "net.finish", &m);
  return out;
}

}  // namespace cepr_perf
