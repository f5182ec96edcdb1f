/// server_mixed: an in-process soda::Server on loopback over a durable
/// engine (group-commit WAL, auto-checkpoints), driven by nproc closed-loop
/// client connections from this process. Each client sends a fixed, seeded
/// statement sequence: ~80% reads over a sealed 5k-row table (half ad-hoc
/// text from a small constant set, so the plan cache hits; half
/// kExecutePrepared frames), ~19% 50-row INSERT batches into an append
/// table, ~1% a small KMEANS. Reads are checked against answers computed
/// from the generated data; at the end the append table must hold exactly
/// the rows of every acknowledged INSERT.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "analytics/kmeans.h"
#include "bench_support/workloads.h"
#include "contenders/contender.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/parallel.h"
#include "util/socket.h"
#include "workloads.h"

namespace perfbench {
namespace {

using soda::Engine;
using soda::Table;
using soda::TablePtr;
namespace fs = std::filesystem;

constexpr int64_t kItems = 5000;
constexpr int64_t kGroups = 16;
constexpr int64_t kRangeWidths[] = {10, 50, 200};
constexpr int64_t kInsertRows = 50;
constexpr size_t kKMeansRows = 2000;
constexpr size_t kKMeansDims = 4;
constexpr size_t kKMeansK = 4;
constexpr int64_t kKMeansRounds = 3;
/// Statements per second of --seconds budget (calibrated once on 4 cores).
constexpr double kStatementsPerSecond = 2000;

enum class Kind { kAdHoc, kPrepared, kInsert, kKMeans };

struct Op {
  Kind kind;
  int64_t a = 0;  ///< group (ad hoc) / range start (prepared) / batch no.
  int64_t b = 0;  ///< range end (prepared)
};

const char* ClassOf(Kind k) {
  switch (k) {
    case Kind::kAdHoc:
    case Kind::kPrepared: return "read";
    case Kind::kInsert: return "write";
    case Kind::kKMeans: return "kmeans";
  }
  return "?";
}

/// The generated static table and the answers every read must return.
struct Items {
  std::vector<int64_t> id, grp, val;
  std::vector<int64_t> prefix;  ///< prefix[i] = sum(val[0..i))
  int64_t group_count[kGroups] = {};
  int64_t group_sum[kGroups] = {};
};

Items MakeItems(uint64_t seed) {
  Items it;
  std::mt19937_64 rng(seed * 7919 + 17);
  it.prefix.push_back(0);
  for (int64_t i = 0; i < kItems; ++i) {
    const int64_t g = (i * 7) % kGroups;
    const int64_t v = static_cast<int64_t>(rng() % 1000);
    it.id.push_back(i);
    it.grp.push_back(g);
    it.val.push_back(v);
    it.prefix.push_back(it.prefix.back() + v);
    it.group_count[g] += 1;
    it.group_sum[g] += v;
  }
  return it;
}

std::vector<std::vector<Op>> MakePlan(uint64_t seed, size_t clients,
                                      int64_t total) {
  std::vector<std::vector<Op>> plan(clients);
  for (size_t c = 0; c < clients; ++c) {
    std::mt19937_64 rng(seed * 1000003 + c);
    std::uniform_real_distribution<double> u(0, 1);
    const int64_t n = total / static_cast<int64_t>(clients);
    int64_t batch = 0;
    for (int64_t i = 0; i < n; ++i) {
      const double x = u(rng);
      Op op;
      if (x < 0.01) {
        op.kind = Kind::kKMeans;
      } else if (x < 0.20) {
        op.kind = Kind::kInsert;
        op.a = batch++;
      } else if (x < 0.60) {
        op.kind = Kind::kAdHoc;
        op.a = static_cast<int64_t>(rng() % kGroups);
      } else {
        op.kind = Kind::kPrepared;
        const int64_t w = kRangeWidths[rng() % 3];
        op.a = static_cast<int64_t>(rng() % (kItems - w));
        op.b = op.a + w;
      }
      plan[c].push_back(op);
    }
  }
  return plan;
}

std::string AdHocSql(int64_t group) {
  return "SELECT count(*), sum(val) FROM items WHERE grp = " +
         std::to_string(group);
}

/// Unique key of row `j` of client `c`'s batch `batch`.
int64_t InsertKey(size_t c, int64_t batch, int64_t j) {
  return static_cast<int64_t>(c) * 1'000'000'000 + batch * kInsertRows + j;
}

std::string InsertSql(size_t c, int64_t batch) {
  std::string sql = "INSERT INTO log VALUES ";
  for (int64_t j = 0; j < kInsertRows; ++j) {
    const int64_t k = InsertKey(c, batch, j);
    if (j) sql += ", ";
    sql += "(" + std::to_string(k) + ", " + std::to_string(c) + ", " +
           std::to_string(k % 1000) + ")";
  }
  return sql;
}

const std::string& KMeansSql() {
  static const std::string sql = soda::workloads::KMeansOperatorSql(
      "kpts", "kcent", kKMeansDims, kKMeansRounds);
  return sql;
}

/// One engine + server + connected clients.
struct Rig {
  std::string dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<soda::Server> server;
  std::vector<soda::Socket> clients;
  TablePtr kmeans_ref;
};

soda::Result<soda::ServerReply> RoundTrip(const soda::Socket& sock,
                                          soda::MsgType type,
                                          const std::string& body) {
  SODA_RETURN_NOT_OK(soda::WriteFrame(sock, type, body));
  SODA_ASSIGN_OR_RETURN(soda::Frame frame,
                        soda::ReadFrame(sock, soda::kDefaultMaxFrameBytes));
  return soda::DecodeServerReply(frame);
}

soda::Status SetUp(Rig* rig, const Items& items, uint64_t seed,
                   size_t clients, size_t checkpoint_records) {
  std::error_code ec;
  fs::remove_all(rig->dir, ec);
  fs::create_directories(rig->dir, ec);
  if (ec) return soda::Status::ExecutionError("cannot create " + rig->dir);
  soda::EngineOptions eo;
  eo.data_dir = rig->dir;
  eo.wal_fsync = soda::WalFsyncMode::kGroup;
  eo.wal_auto_checkpoint_records = checkpoint_records;
  rig->engine = std::make_unique<Engine>(eo);
  SODA_RETURN_NOT_OK(rig->engine->startup_status());

  soda::Catalog* cat = &rig->engine->catalog();
  auto table = std::make_shared<Table>(
      "items", soda::Schema({soda::Field("id", soda::DataType::kBigInt),
                             soda::Field("grp", soda::DataType::kBigInt),
                             soda::Field("val", soda::DataType::kBigInt)}));
  SODA_RETURN_NOT_OK(table->SetColumn(0, soda::Column::FromBigInts(items.id)));
  SODA_RETURN_NOT_OK(table->SetColumn(1, soda::Column::FromBigInts(items.grp)));
  SODA_RETURN_NOT_OK(table->SetColumn(2, soda::Column::FromBigInts(items.val)));
  SODA_RETURN_NOT_OK(table->Seal());
  SODA_RETURN_NOT_OK(cat->RegisterTable(table));
  SODA_ASSIGN_OR_RETURN(TablePtr kpts,
                        soda::workloads::GenerateVectorTable(
                            cat, "kpts", kKMeansRows, kKMeansDims, seed * 1000 + 5));
  SODA_ASSIGN_OR_RETURN(TablePtr kcent,
                        soda::workloads::SampleInitialCenters(
                            cat, "kcent", *kpts, kKMeansK, seed * 1000 + 6));
  SODA_RETURN_NOT_OK(
      rig->engine->Execute("CREATE TABLE log (k BIGINT, c BIGINT, v BIGINT)")
          .status());

  rig->server = std::make_unique<soda::Server>(rig->engine.get(),
                                               soda::ServerOptions{});
  SODA_RETURN_NOT_OK(rig->server->Start());
  for (size_t c = 0; c < clients; ++c) {
    SODA_ASSIGN_OR_RETURN(soda::Socket sock,
                          soda::ConnectTcp("127.0.0.1", rig->server->port()));
    SODA_ASSIGN_OR_RETURN(soda::Frame hello,
                          soda::ReadFrame(sock, soda::kDefaultMaxFrameBytes));
    SODA_ASSIGN_OR_RETURN(soda::ServerReply reply,
                          soda::DecodeServerReply(hello));
    if (reply.type != soda::MsgType::kHello) {
      return soda::Status::ExecutionError("expected a hello frame");
    }
    SODA_ASSIGN_OR_RETURN(
        soda::ServerReply prep,
        RoundTrip(sock, soda::MsgType::kPrepare,
                  soda::EncodePrepare(
                      "rd", "PREPARE rd (BIGINT, BIGINT) AS SELECT count(*), "
                            "sum(val) FROM items WHERE id >= $1 AND id < $2")));
    if (prep.type != soda::MsgType::kResult) return prep.status;
    rig->clients.push_back(std::move(sock));
  }
  return soda::Status::OK();
}

/// Closes the clients, drains the server through Shutdown(), destroys the
/// engine and removes the data directory. Returns whether the drain and
/// the removal were clean.
bool TearDown(Rig* rig) {
  bool ok = true;
  rig->clients.clear();
  if (rig->server) {
    ok = rig->server->Shutdown().ok() && !rig->server->running() &&
         rig->server->active_sessions() == 0 &&
         rig->server->stats().drain_cancels.load() == 0;
    rig->server.reset();
  }
  rig->engine.reset();
  std::error_code ec;
  fs::remove_all(rig->dir, ec);
  return ok && !ec && !fs::exists(rig->dir);
}

/// What one client observed.
struct ClientLog {
  std::map<std::string, std::vector<double>> latency_ms;
  std::vector<std::pair<int64_t, double>> writes;  ///< (start ns, ms)
  std::vector<int64_t> acked;
  uint64_t attempted = 0, failed = 0, shed = 0, wrong = 0;
  std::vector<std::string> errors;

  void NoteError(const std::string& what) {
    if (errors.size() < 5) errors.push_back(what);
  }
};

bool ReadAnswerOk(const Op& op, const Items& items, const Table& t) {
  if (t.num_rows() != 1 || t.num_columns() != 2) return false;
  int64_t count = 0, sum = 0;
  if (op.kind == Kind::kAdHoc) {
    count = items.group_count[op.a];
    sum = items.group_sum[op.a];
  } else {
    count = op.b - op.a;
    sum = items.prefix[static_cast<size_t>(op.b)] -
          items.prefix[static_cast<size_t>(op.a)];
  }
  return t.column(0).GetNumeric(0) == static_cast<double>(count) &&
         !t.column(1).IsNull(0) &&
         t.column(1).GetNumeric(0) == static_cast<double>(sum);
}

void RunClient(size_t c, const soda::Socket& sock, const std::vector<Op>& ops,
               const Items& items, const Table& kmeans_ref, SpanRecorder* spans,
               int64_t request_base, ClientLog* log) {
  int64_t request = request_base;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const char* cls = ClassOf(op.kind);
    soda::MsgType type = soda::MsgType::kQuery;
    std::string body;
    switch (op.kind) {
      case Kind::kAdHoc: body = soda::EncodeQuery(AdHocSql(op.a)); break;
      case Kind::kPrepared:
        type = soda::MsgType::kExecutePrepared;
        body = soda::EncodeExecutePrepared(
            "rd", {soda::Value::BigInt(op.a), soda::Value::BigInt(op.b)});
        break;
      case Kind::kInsert: body = soda::EncodeQuery(InsertSql(c, op.a)); break;
      case Kind::kKMeans: body = soda::EncodeQuery(KMeansSql()); break;
    }
    ++log->attempted;
    const int64_t t0 = NowNs();
    auto reply = [&] {
      ScopedSpan span(spans, std::string("client.") + cls, ++request);
      return RoundTrip(sock, type, body);
    }();
    const double ms = MsSince(t0);
    if (!reply.ok()) {
      // The connection is gone: this and every remaining statement fail.
      log->attempted += ops.size() - i - 1;
      log->failed += ops.size() - i;
      log->NoteError(reply.status().ToString());
      return;
    }
    if (reply->type == soda::MsgType::kError) {
      if (reply->retry_after_ms >= 0) {
        ++log->shed;
      } else {
        ++log->failed;
        log->NoteError(std::string(cls) + ": " + reply->status.ToString());
      }
      continue;
    }
    bool right = reply->type == soda::MsgType::kResult;
    if (right && op.kind == Kind::kInsert) {
      for (int64_t j = 0; j < kInsertRows; ++j) {
        log->acked.push_back(InsertKey(c, op.a, j));
      }
      log->writes.emplace_back(t0, ms);
    } else if (right && op.kind == Kind::kKMeans) {
      right = reply->table && SameTable(*reply->table, kmeans_ref, 1e-6);
    } else if (right) {
      right = reply->table && ReadAnswerOk(op, items, *reply->table);
    }
    if (!right) {
      ++log->wrong;
      log->NoteError(std::string(cls) + ": wrong answer");
      continue;
    }
    log->latency_ms[cls].push_back(ms);
  }
}

/// Runs every client's sequence on its own thread; returns the merged
/// logs and the wall time of the phase.
ClientLog RunLoad(Rig& rig, const std::vector<std::vector<Op>>& plan,
                  const Items& items, SpanRecorder* spans, double* wall_s) {
  std::vector<ClientLog> logs(plan.size());
  const int64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < plan.size(); ++c) {
      threads.emplace_back([&, c] {
        RunClient(c, rig.clients[c], plan[c], items, *rig.kmeans_ref, spans,
                  static_cast<int64_t>(c) << 32, &logs[c]);
      });
    }
    for (auto& t : threads) t.join();
  }
  *wall_s = MsSince(start) / 1e3;
  ClientLog all;
  for (ClientLog& l : logs) {
    for (auto& [k, v] : l.latency_ms) {
      all.latency_ms[k].insert(all.latency_ms[k].end(), v.begin(), v.end());
    }
    all.writes.insert(all.writes.end(), l.writes.begin(), l.writes.end());
    all.acked.insert(all.acked.end(), l.acked.begin(), l.acked.end());
    all.attempted += l.attempted;
    all.failed += l.failed;
    all.shed += l.shed;
    all.wrong += l.wrong;
    for (auto& e : l.errors) all.errors.push_back(e);
  }
  std::sort(all.writes.begin(), all.writes.end());
  return all;
}

/// The append table must hold exactly the acknowledged rows.
bool AppendsExact(Engine& engine, std::vector<int64_t> acked) {
  auto r = engine.Execute("SELECT k FROM log");
  if (!r.ok() || !r->table()) return acked.empty();
  std::vector<int64_t> keys;
  for (size_t i = 0; i < r->num_rows(); ++i) keys.push_back(r->GetInt(i, 0));
  std::sort(keys.begin(), keys.end());
  std::sort(acked.begin(), acked.end());
  return keys == acked;
}

}  // namespace

int RunServerMixed(const Options& opt) {
  const size_t clients = soda::NumWorkers();
  const int64_t total = std::max<int64_t>(
      static_cast<int64_t>(clients) * 20,
      std::llround(kStatementsPerSecond * opt.seconds));
  const Items items = MakeItems(opt.seed);
  const auto plan = MakePlan(opt.seed, clients, total);
  size_t inserts = 0;
  for (const auto& ops : plan) {
    for (const Op& op : ops) inserts += op.kind == Kind::kInsert;
  }
  // Low enough that auto-checkpoints fire several times per run.
  const size_t checkpoint_records = std::max<size_t>(16, inserts / 6);

  RunRecord rec;
  rec.workload = "server_mixed";
  rec.seed = opt.seed;
  rec.sizes["clients"] = static_cast<double>(clients);
  rec.sizes["workers"] = static_cast<double>(soda::NumWorkers());
  rec.sizes["statements"] = static_cast<double>(clients * (total / clients));
  rec.sizes["insert_statements"] = static_cast<double>(inserts);
  rec.sizes["insert_rows_per_statement"] = kInsertRows;
  rec.sizes["read_table_rows"] = kItems;
  rec.sizes["kmeans_rows"] = kKMeansRows;
  rec.sizes["kmeans_dims"] = kKMeansDims;
  rec.sizes["kmeans_k"] = kKMeansK;
  rec.sizes["auto_checkpoint_records"] = static_cast<double>(checkpoint_records);

  const int reps = opt.trace ? 1 : kSetupReps;
  Rig rig;
  bool teardown_ok = true;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) teardown_ok = TearDown(&rig) && teardown_ok;
    rig = Rig();
    rig.dir = opt.tmp_dir + "/server_mixed-" + std::to_string(i);
    const int64_t t0 = NowNs();
    soda::Status st = SetUp(&rig, items, opt.seed, clients, checkpoint_records);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      TearDown(&rig);
      return 1;
    }
    rec.setup_s.push_back(MsSince(t0) / 1e3);
  }
  {
    // Reference answer of the small KMEANS, from the single-threaded
    // contender on the same generated data.
    auto kpts = rig.engine->catalog().GetTable("kpts");
    auto kcent = rig.engine->catalog().GetTable("kcent");
    auto matlab = soda::MakeSingleThreadedEngine();
    auto ref = matlab->KMeans(*DropFirstColumn(**kpts),
                              *DropFirstColumn(**kcent), kKMeansRounds);
    if (!ref.ok()) {
      std::fprintf(stderr, "perfbench: reference k-Means failed\n");
      TearDown(&rig);
      return 1;
    }
    rig.kmeans_ref = *ref;
  }

  // peak_rss_mb covers the load, not the earlier set-ups and the reference
  // answer.
  rec.Check("peak_rss_reset", ResetPeakRss());
  SpanRecorder spans;
  double wall_s = 0;
  ClientLog log = RunLoad(rig, plan, items, opt.trace ? &spans : nullptr, &wall_s);

  if (!opt.trace) {
    rec.latency_ms = std::move(log.latency_ms);
    rec.attempted = log.attempted;
    rec.failed = log.failed;
    rec.shed = log.shed;
    rec.wrong = log.wrong;
    rec.errors = log.errors;
    rec.wall_s = wall_s;
    rec.peak_rss_kb = PeakRssKb();
    rec.Check("appends_exact", AppendsExact(*rig.engine, log.acked));
    rec.Check("clean_shutdown", TearDown(&rig) && teardown_ok);
    rec.Check("answers", log.wrong == 0);
    std::printf("%s\n", rec.Render().c_str());
    return 0;
  }

  // --- traced run: the same load with client spans, then every layer's
  // public entry point called in-process on the same statements.
  TraceRecord tr;
  tr.workload = rec.workload;
  tr.seed = rec.seed;
  tr.sizes = rec.sizes;
  for (auto& [k, v] : log.latency_ms) tr.samples["client_ms/" + k] = v;
  for (const auto& [start, ms] : log.writes) {
    tr.samples["write_in_order_ms"].push_back(ms);
  }
  tr.Check("answers", log.wrong == 0);
  const soda::AdmissionStats adm = rig.server->admission_stats();
  tr.counters["server.admitted"] = static_cast<double>(adm.admitted);
  tr.counters["server.shed"] = static_cast<double>(
      adm.shed_queue_full + adm.shed_queue_timeout + adm.shed_watermark +
      adm.rejected_draining);
  tr.counters["server.errors"] =
      static_cast<double>(rig.server->stats().statements_error.load());

  Engine& engine = *rig.engine;
  int64_t request = int64_t{1} << 40;
  bool staged_ok = true, core_ok = true;
  double wal_bytes = 0, user_bytes = 0;
  const size_t writer = clients;  // a client id no load thread used
  for (int rep = 0; rep < kTraceReps * 4; ++rep) {
    const std::string read_sql = AdHocSql(rep % kGroups);
    struct Stmt {
      const char* cls;
      std::string sql;
    };
    const Stmt stmts[] = {{"read", read_sql},
                          {"write", InsertSql(writer, rep)},
                          {"kmeans", KMeansSql()}};
    for (const Stmt& s : stmts) {
      const bool write = std::string(s.cls) == "write";
      const int64_t wal_before = write ? EngineStatus(engine)["wal_bytes"] : 0;
      const int64_t t0 = NowNs();
      auto core = engine.Execute(s.sql);
      tr.samples[std::string("core.execute_ms/") + s.cls].push_back(MsSince(t0));
      if (!core.ok()) {
        core_ok = false;
        tr.NoteError(std::string(s.cls) + ": " + core.status().ToString());
        continue;
      }
      if (write) {
        for (int64_t j = 0; j < kInsertRows; ++j) {
          log.acked.push_back(InsertKey(writer, rep, j));
        }
        const double delta =
            static_cast<double>(EngineStatus(engine)["wal_bytes"] - wal_before);
        if (delta > 0) {  // no checkpoint rotated the log in between
          wal_bytes += delta;
          user_bytes += kInsertRows * 3 * sizeof(int64_t);
        }
        continue;
      }
      if (rep >= kTraceReps) continue;
      StagedResult st;
      const int64_t s0 = NowNs();
      soda::Status status = RunStaged(engine, s.sql, &spans, ++request, &st);
      tr.samples[std::string("staged_traced_ms/") + s.cls].push_back(
          MsSince(s0));
      if (!status.ok() || !st.table || !core->table() ||
          !SameTable(*st.table, *core->table(), 1e-9)) {
        staged_ok = false;
        tr.NoteError(std::string(s.cls) + ": staged path " +
                     (status.ok() ? "answer differs" : status.ToString()));
        continue;
      }
      tr.AddStaged(s.cls, st);
    }
  }
  tr.Check("core_execute", core_ok);
  tr.Check("staged_equals_execute", staged_ok);
  {
    // The small KMEANS's operator called directly, at full width and
    // forced serial, next to the single-threaded contender.
    TablePtr kpts = DropFirstColumn(**engine.catalog().GetTable("kpts"));
    TablePtr kcent = DropFirstColumn(**engine.catalog().GetTable("kcent"));
    soda::KMeansOptions kopt;
    kopt.max_iterations = kKMeansRounds;
    auto kmeans = [&] { return soda::RunKMeans(*kpts, *kcent, kopt).ok(); };
    TimeCalls(tr, spans, request, "analytics.kmeans_s", kTraceReps, kmeans);
    {
      soda::ScopedSerialExecution serial;
      TimeCalls(tr, spans, request, "analytics.kmeans_serial_s",
                kTraceReps, kmeans);
    }
    auto matlab = soda::MakeSingleThreadedEngine();
    TimeCalls(tr, spans, request, "contenders.matlab_kmeans_s", kTraceReps,
              [&] { return matlab->KMeans(*kpts, *kcent, kKMeansRounds).ok(); });
    tr.counters["kmeans_bytes"] = static_cast<double>(
        kKMeansRows * kKMeansDims * sizeof(double) * kKMeansRounds);
  }
  tr.counters["wal_bytes_logged"] = wal_bytes;
  tr.counters["user_bytes_inserted"] = user_bytes;
  for (const auto& [k, v] : EngineStatus(engine)) {
    tr.counters["status." + k] = static_cast<double>(v);
  }
  {
    ScopedSpan span(&spans, "storage.checkpoint", ++request);
    const int64_t t0 = NowNs();
    const bool ok = engine.Execute("CHECKPOINT").ok();
    tr.samples["storage.checkpoint_s"].push_back(MsSince(t0) / 1e3);
    tr.Check("checkpoint", ok);
  }
  double rows = 0;
  for (const std::string& name : engine.catalog().TableNames()) {
    rows += static_cast<double>((*engine.catalog().GetTable(name))->num_rows());
  }
  tr.counters["catalog_bytes"] =
      static_cast<double>(engine.catalog().TotalMemoryUsage());
  tr.counters["catalog_rows"] = rows;
  tr.Check("appends_exact", AppendsExact(engine, log.acked));
  tr.Check("clean_shutdown", TearDown(&rig));
  tr.spans_file = opt.spans_path;
  tr.Check("spans_written", spans.WriteJson(opt.spans_path));
  std::printf("%s\n", tr.Render().c_str());
  return 0;
}

}  // namespace perfbench
