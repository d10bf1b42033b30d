// aim_perfbench — the AIM benchmark program (see ../README.md).
//
//   aim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--data-dir <dir>]
//
// Sets the deployment up (three times; the median is setup_s), drives one
// workload for --seconds through the program's public API, checks every
// answer against the benchmark's own tallies, and prints a report followed
// by one JSON line: the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aim/common/logging.h"
#include "aim/net/tcp_client.h"
#include "aim/net/tcp_server.h"
#include "aim/server/aim_cluster.h"
#include "aim/server/local_node_channel.h"
#include "aim/server/rta_front_end.h"
#include "aim/server/storage_node.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/query_workload.h"
#include "measure.h"
#include "oracle.h"

namespace perfbench {
namespace {

using aim::EventCompletion;
using aim::QueryResult;

constexpr std::uint32_t kPartitions = 2;
constexpr int kSetupReps = 3;
constexpr int kRecoveryReps = 3;
constexpr int kQueryClients = 2;
constexpr std::int64_t kMs = 1'000'000;  // nanoseconds
constexpr std::int64_t kProbeEveryNanos = 50 * kMs;
// Batched ingest: 32-event batches under a 1024-event in-flight window.
constexpr std::size_t kBatch = 32;
constexpr std::size_t kInFlight = 1024;
// Workloads without concurrent queries measure queries afterwards, in a
// mixed phase of half the run length: an open-loop stream at this rate plus
// the query clients.
constexpr double kMixedPhaseRate = 500;
// Durable workload: events written after the last checkpoint, replayed by
// recovery.
constexpr std::uint64_t kReplayTail = 20000;

enum class Access { kTcp, kCluster, kLocal };

struct Workload {
  const char* name;
  std::uint64_t entities;
  Access access;
  bool durable;
  double event_rate;  // open-loop events/s; 0 = batched ingest, no queries
};

const Workload kWorkloads[] = {
    {"table4_tcp", 100000, Access::kTcp, false, 500},
    {"scan_100k", 100000, Access::kCluster, false, 1000},
    {"ingest_100k", 100000, Access::kLocal, false, 0},
    {"durable_recovery", 10000, Access::kLocal, true, 0},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/data";
};

// Operation counts shared by every load thread.
struct Ops {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  void Attempt(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

// An event that did not complete OK. Lost replies (DeadlineExceeded) are
// left to the TCP client's timeout counter, which also sees lost query
// replies, so no failure is counted twice.
bool CountedEventFailure(const aim::Status& st) {
  return !st.ok() && !st.IsDeadlineExceeded();
}

/// One deployment of the program plus the benchmark's answer key for it.
/// Members are destroyed in reverse order: front-end, client, server,
/// channel, node — every user before what it uses.
struct Deployment {
  Env env;
  std::unique_ptr<Oracle> oracle;
  std::uint64_t probes = 0;  // probe events acknowledged so far
  std::unique_ptr<aim::AimCluster> cluster;
  std::unique_ptr<aim::StorageNode> node;
  std::unique_ptr<aim::LocalNodeChannel> local;
  std::unique_ptr<aim::net::TcpServer> server;
  std::unique_ptr<aim::net::TcpClient> client;
  std::unique_ptr<aim::RtaFrontEnd> front;
  std::string peer;  // "host:port" of the TCP server
  double reload_s = 0;  // node construction -> Start() returning

  aim::StorageNode& storage() { return cluster ? cluster->node(0) : *node; }
  aim::MetricsRegistry& registry() {
    return cluster ? cluster->metrics() : node->metrics();
  }
  QueryResult Execute(const aim::Query& q) const {
    return cluster ? cluster->ExecuteQuery(q) : front->Execute(q);
  }
  bool Submit(const aim::Event& e, EventCompletion* c) {
    if (cluster) return cluster->IngestEvent(e, c);
    aim::BinaryWriter w(client ? std::vector<std::uint8_t>{}
                               : node->event_buffer_pool().Acquire());
    e.Serialize(&w);
    aim::NodeChannel* ch = client ? static_cast<aim::NodeChannel*>(client.get())
                                  : local.get();
    return ch->SubmitEvent(w.TakeBuffer(), c);
  }
};

aim::StorageNode::Options NodeOptions(const Workload& w, std::uint64_t loaded,
                                      const std::string& dir) {
  // StorageNode defaults except partitions, record capacity and data dir.
  aim::StorageNode::Options o;
  o.num_partitions = kPartitions;
  o.max_records_per_partition = loaded + 1024;
  if (w.durable) o.durability.dir = dir;
  return o;
}

// Front-end (and TCP leg) over an already started node.
void Connect(const Workload& w, Deployment* d) {
  d->local = std::make_unique<aim::LocalNodeChannel>(d->node.get());
  aim::NodeChannel* channel = d->local.get();
  if (w.access == Access::kTcp) {
    aim::net::TcpServer::Options so;
    so.metrics = &d->node->metrics();
    d->server = std::make_unique<aim::net::TcpServer>(d->local.get(), so);
    AIM_CHECK(d->server->Start().ok());
    aim::net::TcpClient::Options co;
    co.port = d->server->port();
    co.metrics = &d->node->metrics();
    d->client = std::make_unique<aim::net::TcpClient>(co);
    AIM_CHECK(d->client->Connect().ok());
    d->peer = co.host + ":" + std::to_string(co.port);
    channel = d->client.get();
  }
  d->front = std::make_unique<aim::RtaFrontEnd>(
      std::vector<aim::NodeChannel*>{channel}, d->env.schema.get(),
      &d->env.dims.catalog);
}

// Builds the inputs, loads every entity (plus the probe entity), writes the
// initial full checkpoint into the empty `dir` when durable, and starts
// serving.
std::unique_ptr<Deployment> Deploy(const Workload& w, const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  d->env = MakeEnv();
  d->oracle = std::make_unique<Oracle>(&d->env, w.entities);
  const std::uint64_t loaded = d->oracle->loaded_entities();
  const aim::StorageNode::Options opts = NodeOptions(w, loaded, dir);
  std::vector<std::uint8_t> row(d->env.schema->record_size());
  const std::int64_t t0 = NowNanos();
  if (w.access == Access::kCluster) {
    aim::AimCluster::Options co;
    co.node = opts;
    d->cluster = std::make_unique<aim::AimCluster>(
        d->env.schema.get(), &d->env.dims.catalog, &d->env.rules, co);
    for (aim::EntityId e = 1; e <= loaded; ++e) {
      d->oracle->MakeRow(e, row.data());
      AIM_CHECK(d->cluster->LoadEntity(e, row.data()).ok());
    }
    AIM_CHECK(d->cluster->Start().ok());
    d->reload_s = static_cast<double>(NowNanos() - t0) / 1e9;
    return d;
  }
  d->node = std::make_unique<aim::StorageNode>(
      d->env.schema.get(), &d->env.dims.catalog, &d->env.rules, opts);
  if (w.durable) AIM_CHECK(d->node->Recover().ok());
  for (aim::EntityId e = 1; e <= loaded; ++e) {
    d->oracle->MakeRow(e, row.data());
    AIM_CHECK(d->node->BulkLoad(e, row.data()).ok());
  }
  if (w.durable) AIM_CHECK(d->node->CheckpointNow().ok());
  AIM_CHECK(d->node->Start().ok());
  d->reload_s = static_cast<double>(NowNanos() - t0) / 1e9;
  Connect(w, d.get());
  return d;
}

// The CDR stream: the workload module's generator over the streamed
// entities (the probe entity after them is never a caller), event i
// stamped kTimeOrigin + i ms.
class EventStream {
 public:
  EventStream(std::uint64_t seed, std::uint64_t entities)
      : gen_({.num_entities = entities, .seed = seed}) {}
  aim::Event Next() {
    return gen_.Next(kTimeOrigin +
                     static_cast<aim::Timestamp>(gen_.events_generated() + 1));
  }

 private:
  aim::CdrGenerator gen_;
};

void SleepUntil(std::int64_t t) {
  const std::int64_t now = NowNanos();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

// Waits out three scan cycles: the third starts only after every
// partition finished the merge of a cycle that began after this call, so
// every event acknowledged before the call is in the main.
bool Quiesce(aim::StorageNode& node) {
  const std::uint64_t c0 = node.stats().scan_cycles;
  const std::int64_t deadline = NowNanos() + 10'000 * kMs;
  while (node.stats().scan_cycles < c0 + 3) {
    if (NowNanos() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

struct Window {
  std::int64_t start = 0, measure = 0, end = 0;
  bool Contains(std::int64_t t) const { return t >= measure && t < end; }
};

// What the event side of a run saw.
struct EventSide {
  std::vector<Span> acks;       // due (or submitted) -> acknowledged
  std::vector<double> late_ms;  // open loop: send time minus scheduled time
  std::uint64_t submitted = 0;
  std::int64_t submit_nanos = 0;  // inside the submit calls (traced run)
};

// Open-loop CDR stream at `rate` events/s. Every event carries a
// completion; acknowledgements are retired in order without ever waiting
// on one before the next send is due, and each is timed from the event's
// scheduled send time.
void OpenLoop(Deployment* d, EventStream* stream, double rate,
              const Window& w, bool trace, Ops* ops, EventSide* out) {
  struct Slot {
    EventCompletion c;
    std::int64_t due = 0;
  };
  constexpr std::uint64_t kRing = 1u << 15;
  std::unique_ptr<Slot[]> ring(new Slot[kRing]);
  std::uint64_t head = 0, tail = 0;
  auto retire = [&](bool wait) {
    while (tail < head) {
      Slot& s = ring[tail % kRing];
      if (!s.c.done.load(std::memory_order_acquire)) {
        if (!wait) return;
        s.c.Wait();  // in-process nodes drain; TCP replies have deadlines
      }
      // In-process nodes stamp the acknowledgement; over TCP the ack is
      // timed when this loop observes it.
      const std::int64_t ack =
          s.c.complete_nanos != 0 ? s.c.complete_nanos : NowNanos();
      ops->Attempt(!CountedEventFailure(s.c.status));
      if (s.c.status.ok()) out->acks.push_back({s.due, ack});
      ++tail;
    }
  };
  // Sleep in short, precise steps (1 us timer slack for this thread) and
  // look at the acknowledgements at every wake-up, instead of spinning on
  // a core the node needs.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const double period = 1e9 / rate;
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t due =
        w.start + static_cast<std::int64_t>(static_cast<double>(i) * period);
    if (due >= w.end) break;
    for (;;) {
      retire(false);
      const std::int64_t left = due - NowNanos();
      if (left <= 0) break;
      if (left > 15'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<std::int64_t>(left - 10'000, 50'000)));
      } else {
        std::this_thread::yield();
      }
    }
    while (head - tail == kRing) {
      retire(false);
      std::this_thread::yield();
    }
    Slot& s = ring[head % kRing];
    s.c.Reset();
    s.due = due;
    const aim::Event e = stream->Next();
    const std::int64_t t0 = NowNanos();
    const bool ok = d->Submit(e, &s.c);
    if (trace) out->submit_nanos += NowNanos() - t0;
    if (w.Contains(due)) out->late_ms.push_back(static_cast<double>(t0 - due) / kMs);
    ++out->submitted;
    if (!ok) {
      ops->Attempt(false);
      continue;
    }
    d->oracle->Record(e);
    ++head;
  }
  retire(true);
}

// Batched closed-loop ingest through the node's channel: 32-event batches,
// at most 1024 events unacknowledged. Runs until the window ends, or for
// `limit` events when limit > 0.
void Batched(Deployment* d, EventStream* stream, const Window& w,
             std::uint64_t limit, bool trace, Ops* ops, EventSide* out) {
  struct Slot {
    EventCompletion c;
    std::int64_t submitted = 0;
  };
  std::unique_ptr<Slot[]> ring(new Slot[kInFlight]);
  std::uint64_t head = 0, tail = 0;
  auto retire_one = [&]() {
    Slot& s = ring[tail % kInFlight];
    // Sleep rather than spin: the window holds ~100 ms of work, and a
    // spinning producer would take CPU from the node it measures. The
    // node stamps the acknowledgement time itself.
    while (!s.c.done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ops->Attempt(!CountedEventFailure(s.c.status));
    if (s.c.status.ok()) out->acks.push_back({s.submitted, s.c.complete_nanos});
    ++tail;
  };
  std::vector<aim::Event> events(kBatch);
  aim::BufferPool& pool = d->node->event_buffer_pool();
  for (;;) {
    if (limit > 0 ? out->submitted >= limit : NowNanos() >= w.end) break;
    while (head - tail + kBatch > kInFlight) retire_one();
    std::vector<aim::EventMessage> batch(kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) {
      events[k] = stream->Next();
      aim::BinaryWriter writer(pool.Acquire());
      events[k].Serialize(&writer);
      Slot& s = ring[(head + k) % kInFlight];
      s.c.Reset();
      batch[k].bytes = writer.TakeBuffer();
      batch[k].completion = &s.c;
    }
    const std::int64_t t0 = NowNanos();
    const std::size_t accepted = d->local->SubmitEventBatch(std::move(batch));
    if (trace) out->submit_nanos += NowNanos() - t0;
    for (std::size_t k = 0; k < accepted; ++k) {
      ring[(head + k) % kInFlight].submitted = t0;
      d->oracle->Record(events[k]);
    }
    for (std::size_t k = accepted; k < kBatch; ++k) ops->Attempt(false);
    out->submitted += kBatch;
    head += accepted;
    if (accepted < kBatch) break;
  }
  while (tail < head) retire_one();
}

// One freshness probe: an event to the probe entity, then back-to-back
// probe queries until one sees it. Returns milliseconds from the event's
// acknowledgement to the answer that saw it, or -1 on failure.
double Probe(Deployment* d, Ops* ops, std::int64_t* exec_nanos,
             std::uint64_t* execs) {
  const std::uint64_t k = d->probes + 1;
  const aim::Event e = ProbeEvent(*d->oracle, k);
  EventCompletion c;
  if (!d->Submit(e, &c)) {
    ops->Attempt(false);
    return -1;
  }
  c.Wait();
  const std::int64_t ack = c.complete_nanos != 0 ? c.complete_nanos : NowNanos();
  ops->Attempt(!CountedEventFailure(c.status));
  if (!c.status.ok()) return -1;
  d->oracle->Record(e);
  d->probes = k;
  const aim::Query q = BuildProbeQuery(d->env, d->oracle->probe_entity());
  for (;;) {
    const std::int64_t t0 = NowNanos();
    const QueryResult r = d->Execute(q);
    const std::int64_t t1 = NowNanos();
    *exec_nanos += t1 - t0;
    ++*execs;
    ops->Attempt(r.status.ok());
    if (!r.status.ok()) return -1;
    if (r.rows.size() == 1 && r.rows[0].values[0] >= static_cast<double>(k)) {
      return static_cast<double>(t1 - ack) / kMs;
    }
    if (t1 - ack > 5'000 * kMs) return -1;  // acknowledged, never visible
  }
}

// What the query side of a run saw.
struct QuerySide {
  std::vector<Span> queries;     // Q1-Q7 answered OK
  std::vector<double> fresh_ms;  // probe freshness
  std::int64_t exec_nanos = 0;   // every Execute inside the window
  std::uint64_t execs = 0;
  std::vector<std::string> failures;

  void Absorb(const QuerySide& o) {
    queries.insert(queries.end(), o.queries.begin(), o.queries.end());
    fresh_ms.insert(fresh_ms.end(), o.fresh_ms.begin(), o.fresh_ms.end());
    exec_nanos += o.exec_nanos;
    execs += o.execs;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  }
};

// Closed-loop client cycling Q1-Q7 with random parameters until the window
// ends; client 0 also probes freshness every 50 ms (probe queries are kept
// out of the Q1-Q7 figures).
void QueryClient(Deployment* d, int c, std::uint64_t seed, const Window& w,
                 Ops* ops, QuerySide* out) {
  aim::QueryWorkload workload(
      d->env.schema.get(), &d->env.dims,
      seed * 0x9e3779b97f4a7c15ULL + 1000 + static_cast<std::uint64_t>(c));
  std::int64_t next_probe = w.measure;
  for (std::uint64_t i = 0;;) {
    const std::int64_t now = NowNanos();
    if (now >= w.end) break;
    if (c == 0 && now >= next_probe) {
      std::int64_t nanos = 0;
      std::uint64_t execs = 0;
      const double fresh = Probe(d, ops, &nanos, &execs);
      if (fresh < 0) {
        out->failures.push_back("freshness probe failed");
      } else {
        out->fresh_ms.push_back(fresh);
      }
      out->exec_nanos += nanos;
      out->execs += execs;
      next_probe = NowNanos() + kProbeEveryNanos;
      continue;
    }
    const int q = 1 + static_cast<int>((i + static_cast<std::uint64_t>(c)) % 7);
    const aim::Query query = workload.Make(q);
    const std::int64_t t0 = NowNanos();
    const QueryResult r = d->Execute(query);
    const std::int64_t t1 = NowNanos();
    ops->Attempt(r.status.ok());
    ++i;
    if (!r.status.ok()) continue;
    out->queries.push_back({t0, t1});
    if (!w.Contains(t0) || t1 >= w.end) continue;
    out->exec_nanos += t1 - t0;
    ++out->execs;
  }
}

// The query clients over the window.
void RunQueryClients(Deployment* d, std::uint64_t seed, const Window& w,
                     Ops* ops, QuerySide* out) {
  std::vector<QuerySide> sides(kQueryClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([=, &w, side = &sides[c]] {
      QueryClient(d, c, seed, w, ops, side);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const QuerySide& side : sides) out->Absorb(side);
}

// The output check: after a quiesce barrier, the call count must equal the
// acknowledged events and Q1-Q7 must match the answer key.
void CheckAnswers(Deployment* d, const std::string& stage, Ops* ops,
                  std::vector<std::string>* failures) {
  if (d->client) {
    // An event whose reply was lost (counted as failed) may still be
    // queued at the node: wait until the node has processed every event
    // the client sent before comparing.
    const std::int64_t deadline = NowNanos() + 30'000 * kMs;
    while (d->storage().stats().events_processed < d->oracle->events() &&
           NowNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (!Quiesce(d->storage())) {
    failures->push_back(stage + ": scan cycles stalled");
    return;
  }
  const QueryResult count = d->Execute(BuildCallCountQuery(d->env));
  ops->Attempt(count.status.ok());
  const double want = static_cast<double>(d->oracle->events());
  if (!count.status.ok() || count.rows.size() != 1 ||
      count.rows[0].values.size() != 1 || count.rows[0].values[0] != want) {
    failures->push_back(
        stage + ": SUM(number_of_calls_this_week) != acknowledged events (" +
        (count.rows.empty() || count.rows[0].values.empty()
             ? std::string("no answer")
             : std::to_string(count.rows[0].values[0])) +
        " vs " + std::to_string(d->oracle->events()) + ")");
  }
  for (int q = 1; q <= 7; ++q) {
    const QueryParams p = FixedParams(q);
    const QueryResult r = d->Execute(BuildQuery(d->env, p));
    ops->Attempt(r.status.ok());
    std::string why;
    if (!d->oracle->Check(p, r, &why)) failures->push_back(stage + ": " + why);
  }
}

// Durable workload: stop without a final checkpoint, then time a fresh
// node from construction to Start() returning. Nothing is written between
// two calls, so each recovers the same chain and log.
double Recover(const Workload& w, const std::string& dir, Deployment* d,
               aim::StorageNode::RecoveryStats* stats) {
  d->front.reset();
  d->local.reset();
  d->node.reset();  // Stop(): acknowledged events are already durable
  const std::int64_t t0 = NowNanos();
  d->node = std::make_unique<aim::StorageNode>(
      d->env.schema.get(), &d->env.dims.catalog, &d->env.rules,
      NodeOptions(w, d->oracle->loaded_entities(), dir));
  auto recovered = d->node->Recover();
  AIM_CHECK(recovered.ok());
  AIM_CHECK(d->node->Start().ok());
  const double seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  *stats = *recovered;
  Connect(w, d);
  return seconds;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  // Listed in BENCHMARK.json and printed in the JSON line. The others are
  // printed in the report lines only: figures of the query and event side
  // that followed the host's wake-up latency from run to run, and the
  // durable layer's figures, which only the durable workload has (see
  // README.md).
  bool listed = true;
};

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string dir = args.data_dir + "/" + w->name;
  std::printf("workload %s: %llu entities, seed %llu, %.0f s, trace %d\n",
              w->name, static_cast<unsigned long long>(w->entities),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // Set-up, three times; the last deployment is the one measured.
  std::vector<double> setups, recoveries;
  std::unique_ptr<Deployment> d;
  std::error_code ignored;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    if (w->durable) {
      std::filesystem::remove_all(dir, ignored);
      std::filesystem::create_directories(dir, ignored);
    }
    const std::int64_t t0 = NowNanos();
    d = Deploy(*w, dir);
    setups.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    // An in-memory node has no durable state: its restart is the bulk
    // reload the set-up just timed.
    if (!w->durable) recoveries.push_back(d->reload_s);
  }
  Series series(&d->registry(), kPartitions, d->peer);

  Ops ops;
  EventSide ev;
  QuerySide qs;
  EventStream stream(args.seed, d->oracle->stream_entities());
  Window win;
  win.start = NowNanos() + 10 * kMs;
  const double warmup_s = w->event_rate > 0 ? 1.0 : 0.5;
  win.measure = win.start + static_cast<std::int64_t>(warmup_s * 1e9);
  win.end = win.measure + static_cast<std::int64_t>(args.seconds * 1e9);

  // Measured window: the load threads run; this thread takes the registry
  // readings at the window's edges.
  std::vector<std::thread> load;
  if (w->event_rate > 0) {
    load.emplace_back([&] {
      OpenLoop(d.get(), &stream, w->event_rate, win, args.trace, &ops, &ev);
    });
    load.emplace_back(
        [&] { RunQueryClients(d.get(), args.seed, win, &ops, &qs); });
  } else {
    load.emplace_back(
        [&] { Batched(d.get(), &stream, win, 0, args.trace, &ops, &ev); });
  }
  SleepUntil(win.measure);
  const Readings r0 = series.Read();
  SleepUntil(win.end);
  const Readings r1 = series.Read();
  for (std::thread& t : load) t.join();
  Readings q0 = r0, q1 = r1;  // registry window of the query figures
  // One-second slices of the measured window; tail figures are medians
  // over them.
  const int seconds = std::max(1, static_cast<int>(args.seconds));
  const Slices event_slices{win.measure, win.end, seconds};
  Slices query_slices = event_slices;

  std::vector<std::string> failures;
  aim::StorageNode::RecoveryStats rstats;
  double restore_s = 0, replay_eps = 0, restore_rps = 0;
  if (w->durable) {
    // One incremental checkpoint cut after the measured ingest, then a
    // fixed tail that only the log holds, then a crash-like stop.
    const std::uint64_t want = d->node->checkpoints_completed() + kPartitions;
    d->node->RequestCheckpoint();
    const std::int64_t deadline = NowNanos() + 30'000 * kMs;
    while (d->node->checkpoints_completed() < want) {
      if (NowNanos() > deadline) {
        // The node cannot be stopped cleanly in this state either.
        std::fprintf(stderr, "CHECK FAILED: requested checkpoint did not "
                             "complete within 30 s\n");
        std::fflush(nullptr);
        std::_Exit(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EventSide tail;
    Batched(d.get(), &stream, Window{}, kReplayTail, false, &ops, &tail);
    for (int rep = 0; rep < kRecoveryReps; ++rep) {
      aim::StorageNode::RecoveryStats stats;
      recoveries.push_back(Recover(*w, dir, d.get(), &stats));
      if (rep > 0 && (stats.records_restored != rstats.records_restored ||
                      stats.events_replayed != rstats.events_replayed)) {
        failures.push_back("recovering the same chain twice differed");
      }
      rstats = stats;
    }
    std::printf("recovery: %llu checkpoint files, %llu records, "
                "%llu events replayed\n",
                static_cast<unsigned long long>(rstats.checkpoints_applied),
                static_cast<unsigned long long>(rstats.records_restored),
                static_cast<unsigned long long>(rstats.events_replayed));
    series = Series(&d->registry(), kPartitions, d->peer);
  }
  if (w->event_rate == 0) {
    // The mixed phase (on the recovered node for durable_recovery); its
    // events feed the answer key, not the event figures.
    Window qwin;
    qwin.start = NowNanos() + 10 * kMs;
    qwin.measure = qwin.start + 500 * kMs;
    qwin.end = qwin.measure + static_cast<std::int64_t>(args.seconds * 5e8);
    query_slices = Slices{qwin.measure, qwin.end, std::max(1, seconds / 2)};
    EventSide mixed;
    std::thread stream_thread([&] {
      OpenLoop(d.get(), &stream, kMixedPhaseRate, qwin, false, &ops, &mixed);
    });
    std::thread clients(
        [&] { RunQueryClients(d.get(), args.seed, qwin, &ops, &qs); });
    SleepUntil(qwin.measure);
    q0 = series.Read();
    SleepUntil(qwin.end);
    q1 = series.Read();
    stream_thread.join();
    clients.join();
  }
  failures.insert(failures.end(), qs.failures.begin(), qs.failures.end());
  CheckAnswers(d.get(), w->durable ? "recovered node" : "final", &ops,
               &failures);

  if (w->durable && args.trace) {
    // Restore alone: bring the chain current, then recover with nothing
    // to replay.
    d->front.reset();
    d->local.reset();
    d->node->Stop();
    AIM_CHECK(d->node->CheckpointNow().ok());
    aim::StorageNode::RecoveryStats restored;
    restore_s = Recover(*w, dir, d.get(), &restored);
    series = Series(&d->registry(), kPartitions, d->peer);
    if (restored.events_replayed != 0) {
      failures.push_back("current chain still replayed events");
    }
    CheckAnswers(d.get(), "restored node", &ops, &failures);
    restore_rps = Ratio(static_cast<double>(restored.records_restored), restore_s);
    replay_eps = Ratio(static_cast<double>(rstats.events_replayed),
                       Median(recoveries) - restore_s);
  }
  const std::uint64_t timeouts = series.Read().net_timeouts;
  for (std::uint64_t i = 0; i < timeouts; ++i) ops.Attempt(false);

  // ---- report ----
  const std::vector<double> ingest = event_slices.Rate(ev.acks);
  const std::vector<double> ack_p50 = event_slices.Latency(ev.acks, 0.5);
  const std::vector<double> ack_p90 = event_slices.Latency(ev.acks, 0.9);
  const std::vector<double> qps = query_slices.Rate(qs.queries);
  const std::vector<double> rta_p50 = query_slices.Latency(qs.queries, 0.5);
  const std::vector<double> rta_p90 = query_slices.Latency(qs.queries, 0.9);
  std::vector<Metric> e2e = {
      {"setup_s", Median(setups), "s"},
      {"recovery_s", Median(recoveries), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ingest_eps", Median(ingest), "events/s"},
      {"rta_p50_ms", Median(rta_p50), "ms"},
      {"event_ack_p50_ms", Median(ack_p50), "ms", false},
      {"event_ack_p90_ms", Median(ack_p90), "ms", false},
      {"rta_qps", Median(qps), "queries/s", false},
      {"rta_p90_ms", Median(rta_p90), "ms", false},
      {"fresh_iqm_ms", InterquartileMean(qs.fresh_ms), "ms", false},
  };
  std::printf("samples: %zu event acks, %zu queries, %zu probes\n",
              ev.acks.size(), qs.queries.size(), qs.fresh_ms.size());
  auto print_series = [](const char* what, const std::vector<double>& v) {
    std::printf("%s:", what);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_series("set-up runs (s)", setups);
  print_series("recovery runs (s)", recoveries);
  print_series("per-slice ingest (events/s)", ingest);
  print_series("per-slice event ack p90 (ms)", ack_p90);
  print_series("per-slice queries/s", qps);
  print_series("per-slice query p90 (ms)", rta_p90);
  std::printf("freshness (ms): p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f\n",
              Percentile(qs.fresh_ms, 0.1), Percentile(qs.fresh_ms, 0.25),
              Percentile(qs.fresh_ms, 0.5), Percentile(qs.fresh_ms, 0.75),
              Percentile(qs.fresh_ms, 0.9));
  std::printf("slice-median p95 / p99 (ms): event ack %.4f / %.4f, "
              "query %.4f / %.4f\n",
              Median(event_slices.Latency(ev.acks, 0.95)),
              Median(event_slices.Latency(ev.acks, 0.99)),
              Median(query_slices.Latency(qs.queries, 0.95)),
              Median(query_slices.Latency(qs.queries, 0.99)));
  if (!ev.late_ms.empty()) {
    std::printf("generator lateness (ms): p50 %.4f p99 %.4f max %.4f\n",
                Percentile(ev.late_ms, 0.5), Percentile(ev.late_ms, 0.99),
                Percentile(ev.late_ms, 1.0));
  }

  const double scan_rows =
      static_cast<double>(d->storage().total_records()) / kPartitions;
  const aim::HistogramSnapshot scan = q1.rta_scan.Delta(q0.rta_scan);
  const double node_query_us = WindowMean(q0.rta_query, q1.rta_query);
  const double events = static_cast<double>(r1.events - r0.events);
  std::vector<Metric> layer = {
      {"esp.service_us_per_event", WindowMean(r0.esp_latency, r1.esp_latency),
       "us"},
      {"esp.events_per_wakeup", WindowMean(r0.esp_batch, r1.esp_batch),
       "events"},
      {"esp.rules_fired_per_event",
       Ratio(static_cast<double>(r1.rules_fired - r0.rules_fired), events),
       "rules"},
      {"client.submit_us_per_event",
       Ratio(static_cast<double>(ev.submit_nanos) / 1e3,
             static_cast<double>(ev.submitted)),
       "us"},
      {"rta.partition_scan_us", scan.Mean(), "us"},
      {"rta.scan_ns_per_row",
       Ratio(scan.sum * 1e3, static_cast<double>(scan.count) * scan_rows),
       "ns"},
      {"server.queries_per_scan_cycle", WindowMean(q0.rta_batch, q1.rta_batch),
       "queries"},
      {"server.node_query_us", node_query_us, "us"},
      {"net.query_overhead_us",
       Ratio(static_cast<double>(qs.exec_nanos) / 1e3,
             static_cast<double>(qs.execs)) -
           node_query_us,
       "us"},
      {"net.bytes_per_request",
       Ratio(static_cast<double>(q1.net_bytes - q0.net_bytes),
             static_cast<double>(q1.events - q0.events) +
                 static_cast<double>(q1.rta_query.count - q0.rta_query.count)),
       "bytes"},
      {"net.frames_per_writev", WindowMean(q0.coalesced, q1.coalesced),
       "frames"},
      {"storage.merge_us", WindowMean(r0.merge, r1.merge), "us"},
      {"storage.records_per_merge",
       Ratio(static_cast<double>(r1.records_merged - r0.records_merged),
             static_cast<double>(r1.merges - r0.merges)),
       "records"},
      {"storage.fresh_traced_ms", WindowMean(r0.fresh, r1.fresh), "ms"},
      {"storage.log_sync_us", WindowMean(r0.log_sync, r1.log_sync), "us",
       false},
      {"storage.events_per_sync",
       Ratio(events, static_cast<double>(r1.log_syncs - r0.log_syncs)),
       "events", false},
      {"storage.log_bytes_per_event",
       Ratio(static_cast<double>(r1.log_bytes - r0.log_bytes), events),
       "bytes", false},
      {"storage.replay_eps", replay_eps, "events/s", false},
      {"storage.restore_records_per_s", restore_rps, "records/s", false},
  };

  // The traced run also prints its end-to-end figures, so the tracing
  // overhead is the difference to an untraced run of the same seed.
  for (const Metric& m : e2e) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (args.trace) {
    for (const Metric& m : layer) {
      std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  d.reset();
  if (w->durable) std::filesystem::remove_all(dir, ignored);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted.load()),
              static_cast<unsigned long long>(ops.failed.load()));
  const char* sep = "";
  for (const Metric& m : args.trace ? layer : e2e) {
    if (!m.listed) continue;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--data-dir") {
      a->data_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--data-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
