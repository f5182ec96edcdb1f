/// The two analytics workloads. Both run one closed-loop caller through a
/// fixed round-robin of statements against one engine:
///
///   operator_analytics — the layer-4 operators at the Fig. 4/5 ci points:
///     KMEANS 500k x 10 (k=5, i=3), PAGERANK 4,990 V / ~459k E (i=45),
///     NAIVE_BAYES_TRAIN 500k x 10;
///   iterate_analytics  — the layer-3 forms: PageRank via ITERATE and via
///     WITH RECURSIVE on 730 V / ~45k E (i=45), Naive Bayes as one SQL
///     aggregation over 500k x 10.
///
/// Every answer is checked: the operators against SingleThreadedEngine,
/// the layer-3 forms against the operators.
///
/// ITERATE k-Means (bench_support's KMeansIterateSql) is not in
/// iterate_analytics: its step matches each point's distance to the
/// minimum distance with `=`, the two sides come from two separate
/// evaluations of the AVG center aggregate, and soda's parallel AVG is not
/// bit-deterministic, so in a few percent of executions at 4 workers most
/// points drop out of the assignment and the centers are wrong.

#include "workloads.h"

#include <cmath>
#include <functional>
#include <memory>

#include "analytics/kmeans.h"
#include "analytics/naive_bayes.h"
#include "analytics/pagerank.h"
#include "bench_support/workloads.h"
#include "contenders/contender.h"
#include "graph/csr.h"
#include "graph/ldbc_generator.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

using soda::Engine;
using soda::Table;
using soda::TablePtr;
namespace wl = soda::workloads;

constexpr size_t kDims = 10;
constexpr size_t kClusters = 5;
constexpr int64_t kKMeansRounds = 3;
constexpr int64_t kPageRankRounds = 45;
constexpr double kDamping = 0.85;

struct Sizes {
  size_t kmeans_rows;
  size_t graph_vertices;
  size_t graph_degree;
  size_t nb_rows;
};

Sizes SizesFor(bool iterate) {
  // iterate_analytics's k-Means table feeds only the traced run's direct
  // RunKMeans and contender calls.
  if (iterate) return {20000, 730, 63, 500000};
  return {500000, 4990, 92, 500000};
}

/// One generated data set, loaded into its own engine.
struct Dataset {
  std::unique_ptr<Engine> engine;
  soda::GeneratedGraph graph;
  size_t graph_vertices = 0;  ///< distinct vertices with an out-edge
};

soda::Result<Dataset> Load(const Sizes& sz, uint64_t seed, bool iterate) {
  Dataset ds;
  ds.engine = std::make_unique<Engine>();
  soda::Catalog* cat = &ds.engine->catalog();
  SODA_ASSIGN_OR_RETURN(
      TablePtr data, wl::GenerateVectorTable(cat, "kdata", sz.kmeans_rows,
                                             kDims, seed * 1000 + 1));
  SODA_RETURN_NOT_OK(wl::SampleInitialCenters(cat, "kcent", *data, kClusters,
                                              seed * 1000 + 2)
                         .status());
  ds.graph = soda::GenerateSocialGraph(sz.graph_vertices, sz.graph_degree,
                                       seed * 1000 + 3);
  SODA_RETURN_NOT_OK(wl::RegisterGraph(cat, "edges", ds.graph).status());
  SODA_RETURN_NOT_OK(
      wl::GenerateLabeledTable(cat, "nb", sz.nb_rows, kDims, seed * 1000 + 4)
          .status());
  ds.graph_vertices = ds.graph.num_vertices;
  if (iterate) {
    // The SQL PageRank forms read a materialized out-degree table (soda
    // has no scalar subqueries; see DESIGN.md).
    SODA_RETURN_NOT_OK(
        ds.engine->Execute("CREATE TABLE deg (src BIGINT, cnt BIGINT)")
            .status());
    SODA_RETURN_NOT_OK(
        ds.engine->Execute("INSERT INTO deg " + wl::DegreeTableSql("edges"))
            .status());
  }
  return ds;
}

/// A statement class of the round-robin and its answer check.
struct StatementClass {
  std::string name;
  std::string sql;
  std::function<bool(const Table&)> check;
};

std::map<std::pair<int64_t, int64_t>, std::vector<double>> NbModel(
    const Table& t) {
  // (class, attr) -> (prior, mean, variance, cnt)
  std::map<std::pair<int64_t, int64_t>, std::vector<double>> m;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    m[{t.column(0).GetBigInt(r), t.column(1).GetBigInt(r)}] = {
        t.column(2).GetNumeric(r), t.column(3).GetNumeric(r),
        t.column(4).GetNumeric(r), t.column(5).GetNumeric(r)};
  }
  return m;
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(a));
}

bool SameNbModel(const Table& a, const Table& b) {
  auto ma = NbModel(a), mb = NbModel(b);
  if (ma.size() != mb.size() || ma.empty()) return false;
  for (const auto& [key, va] : ma) {
    auto it = mb.find(key);
    if (it == mb.end()) return false;
    for (size_t i = 0; i < va.size(); ++i) {
      if (!Near(va[i], it->second[i], 1e-6)) return false;
    }
  }
  return true;
}

/// The SQL aggregation (label, cnt, s1, q1, ...) against the operator's
/// model: mean = s/cnt, variance = q/cnt - mean^2 (population variance).
bool NbSqlMatchesModel(const Table& sql, const Table& model) {
  auto m = NbModel(model);
  if (sql.num_rows() == 0) return false;
  for (size_t r = 0; r < sql.num_rows(); ++r) {
    const int64_t label = sql.column(0).GetBigInt(r);
    const double cnt = sql.column(1).GetNumeric(r);
    for (size_t a = 1; a <= kDims; ++a) {
      auto it = m.find({label, static_cast<int64_t>(a)});
      if (it == m.end()) return false;
      const double mean = sql.column(2 * a).GetNumeric(r) / cnt;
      const double var = sql.column(2 * a + 1).GetNumeric(r) / cnt - mean * mean;
      if (!Near(it->second[1], mean, 1e-7) || !Near(it->second[2], var, 1e-4) ||
          it->second[3] != cnt) {
        return false;
      }
    }
  }
  return true;
}

/// Builds the statement classes of a workload and their reference answers.
soda::Result<std::vector<StatementClass>> Classes(Dataset& ds, bool iterate) {
  Engine& e = *ds.engine;
  std::vector<StatementClass> out;
  const size_t nv = ds.graph_vertices;
  if (!iterate) {
    SODA_ASSIGN_OR_RETURN(TablePtr kdata, e.catalog().GetTable("kdata"));
    SODA_ASSIGN_OR_RETURN(TablePtr kcent, e.catalog().GetTable("kcent"));
    SODA_ASSIGN_OR_RETURN(TablePtr edges, e.catalog().GetTable("edges"));
    SODA_ASSIGN_OR_RETURN(TablePtr nb, e.catalog().GetTable("nb"));
    auto matlab = soda::MakeSingleThreadedEngine();
    TablePtr dview = DropFirstColumn(*kdata), cview = DropFirstColumn(*kcent);
    SODA_ASSIGN_OR_RETURN(TablePtr kref,
                          matlab->KMeans(*dview, *cview, kKMeansRounds));
    SODA_ASSIGN_OR_RETURN(TablePtr prref,
                          matlab->PageRank(*edges, kDamping, kPageRankRounds));
    SODA_ASSIGN_OR_RETURN(TablePtr nbref, matlab->NaiveBayesTrain(*nb));
    auto prmap = std::make_shared<std::map<int64_t, double>>(KeyedValues(*prref));
    out.push_back({"kmeans",
                   wl::KMeansOperatorSql("kdata", "kcent", kDims, kKMeansRounds),
                   [kref](const Table& t) { return SameTable(t, *kref, 1e-6); }});
    out.push_back({"pagerank",
                   wl::PageRankOperatorSql("edges", kDamping, 0.0,
                                           kPageRankRounds),
                   [prmap](const Table& t) {
                     return t.num_rows() == 100 &&
                            SameKeyedValues(KeyedValues(t), *prmap, 1e-9, 100);
                   }});
    out.push_back({"naive_bayes", wl::NaiveBayesOperatorSql("nb", kDims),
                   [nbref](const Table& t) { return SameNbModel(t, *nbref); }});
    return out;
  }
  // Layer-3 forms, checked against the operators on the same data.
  SODA_ASSIGN_OR_RETURN(
      soda::QueryResult prop,
      e.Execute(wl::PageRankOperatorSql("edges", kDamping, 0.0,
                                        kPageRankRounds)));
  SODA_ASSIGN_OR_RETURN(soda::QueryResult nbop,
                        e.Execute(wl::NaiveBayesOperatorSql("nb", kDims)));
  TablePtr nbref = nbop.table();
  auto prmap =
      std::make_shared<std::map<int64_t, double>>(KeyedValues(*prop.table()));
  // Near-equal ranks may swap places across the 100-row cut, so the
  // variants must share almost all of their top 100 and agree on each.
  auto pr_check = [prmap](const Table& t) {
    return t.num_rows() == 100 &&
           SameKeyedValues(KeyedValues(t), *prmap, 1e-9, 95);
  };
  out.push_back({"pagerank",
                 wl::PageRankIterateSql("edges", "deg", nv, kDamping,
                                        kPageRankRounds),
                 pr_check});
  out.push_back({"pagerank_cte",
                 wl::PageRankRecursiveCteSql("edges", "deg", nv, kDamping,
                                             kPageRankRounds),
                 pr_check});
  out.push_back({"naive_bayes", wl::NaiveBayesSql("nb", kDims),
                 [nbref](const Table& t) {
                   return NbSqlMatchesModel(t, *nbref);
                 }});
  return out;
}

void RecordSizes(const Sizes& sz, const Dataset& ds,
                 std::map<std::string, double>* sizes) {
  (*sizes)["kmeans_rows"] = static_cast<double>(sz.kmeans_rows);
  (*sizes)["kmeans_dims"] = kDims;
  (*sizes)["kmeans_k"] = kClusters;
  (*sizes)["kmeans_iterations"] = kKMeansRounds;
  (*sizes)["graph_vertices"] = static_cast<double>(ds.graph.num_vertices);
  (*sizes)["graph_edges"] = static_cast<double>(ds.graph.num_edges);
  (*sizes)["pagerank_iterations"] = kPageRankRounds;
  (*sizes)["nb_rows"] = static_cast<double>(sz.nb_rows);
  (*sizes)["nb_dims"] = kDims;
  (*sizes)["clients"] = 1;
  (*sizes)["workers"] = static_cast<double>(soda::NumWorkers());
}

/// The PageRank classes return the top 100 of near-tied ranks, so two runs
/// of the same statement are compared as vertex -> rank maps.
bool SameAnswer(const std::string& cls, const Table& a, const Table& b) {
  if (cls.rfind("pagerank", 0) == 0) {
    return a.num_rows() == b.num_rows() &&
           SameKeyedValues(KeyedValues(a), KeyedValues(b), 1e-9, 95);
  }
  return SameTable(a, b, 1e-9);
}

int TraceAnalytics(const Options& opt, const RunRecord& rec, Dataset& ds,
                   const std::vector<StatementClass>& classes, bool iterate) {
  Engine& engine = *ds.engine;
  TraceRecord tr;
  tr.workload = rec.workload;
  tr.seed = rec.seed;
  tr.sizes = rec.sizes;
  SpanRecorder spans;
  int64_t request = 0;

  // Statement path: Engine::Execute (the untraced path), then the same
  // statement hand-staged layer by layer with span recording, checking that
  // both return the same answer.
  bool staged_ok = true, answers_ok = true;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    for (const StatementClass& c : classes) {
      int64_t t0 = NowNs();
      auto core = engine.Execute(c.sql);
      tr.samples["core.execute_ms/" + c.name].push_back(MsSince(t0));
      if (!core.ok() || !core->table() || !c.check(*core->table())) {
        answers_ok = false;
        tr.NoteError(c.name + ": Engine::Execute answer wrong or failed");
        continue;
      }
      StagedResult s;
      t0 = NowNs();
      soda::Status st = RunStaged(engine, c.sql, &spans, ++request, &s);
      tr.samples["staged_traced_ms/" + c.name].push_back(MsSince(t0));
      if (!st.ok() || !s.table || !SameAnswer(c.name, *s.table, *core->table())) {
        staged_ok = false;
        tr.NoteError(c.name + ": staged path " +
                     (st.ok() ? "answer differs" : st.ToString()));
        continue;
      }
      tr.AddStaged(c.name, s);
    }
  }
  tr.Check("answers", answers_ok);
  tr.Check("staged_equals_execute", staged_ok);

  // Direct calls into the analytics, graph and contender layers on the
  // workload's own data, at full width and forced serial.
  auto table = [&](const char* name) {
    return engine.catalog().GetTable(name).ValueOrDie();
  };
  TablePtr kdata = DropFirstColumn(*table("kdata"));
  TablePtr kcent = DropFirstColumn(*table("kcent"));
  TablePtr edges = table("edges");
  TablePtr nb = table("nb");
  soda::KMeansOptions kopt;
  kopt.max_iterations = kKMeansRounds;
  soda::PageRankOptions popt;
  popt.damping = kDamping;
  popt.epsilon = 0.0;
  popt.max_iterations = kPageRankRounds;
  auto kmeans = [&] { return soda::RunKMeans(*kdata, *kcent, kopt).ok(); };
  auto pagerank = [&] { return soda::RunPageRank(*edges, popt).ok(); };
  auto bayes = [&] { return soda::TrainNaiveBayes(*nb).ok(); };
  const int reps = kTraceReps;
  TimeCalls(tr, spans, request, "analytics.kmeans_s", reps, kmeans);
  TimeCalls(tr, spans, request, "analytics.pagerank_s", reps, pagerank);
  TimeCalls(tr, spans, request, "analytics.nb_s", reps, bayes);
  {
    soda::ScopedSerialExecution serial;
    TimeCalls(tr, spans, request, "analytics.kmeans_serial_s", reps, kmeans);
    TimeCalls(tr, spans, request, "analytics.pagerank_serial_s", reps, pagerank);
    TimeCalls(tr, spans, request, "analytics.nb_serial_s", reps, bayes);
  }
  TimeCalls(tr, spans, request, "graph.csr_build_s", reps, [&] {
    return soda::CsrBuilder::Build(ds.graph.src, ds.graph.dst).ok();
  });
  auto matlab = soda::MakeSingleThreadedEngine();
  TimeCalls(tr, spans, request, "contenders.matlab_kmeans_s", reps, [&] {
    return matlab->KMeans(*kdata, *kcent, kKMeansRounds).ok();
  });
  TimeCalls(tr, spans, request, "contenders.matlab_pagerank_s", reps, [&] {
    return matlab->PageRank(*edges, kDamping, kPageRankRounds).ok();
  });
  if (iterate) {
    // ITERATE PageRank against the PAGERANK operator on the same graph.
    const std::string op_sql =
        wl::PageRankOperatorSql("edges", kDamping, 0.0, kPageRankRounds);
    TimeCalls(tr, spans, request, "core.pagerank_operator_s", reps,
              [&] { return engine.Execute(op_sql).ok(); });
  }
  tr.counters["kmeans_bytes"] = static_cast<double>(
      kdata->num_rows() * kDims * sizeof(double) * kKMeansRounds);
  tr.counters["pagerank_edge_visits"] =
      static_cast<double>(edges->num_rows() * kPageRankRounds);

  for (const auto& [k, v] : EngineStatus(engine)) {
    tr.counters["status." + k] = static_cast<double>(v);
  }
  double rows = 0;
  for (const std::string& name : engine.catalog().TableNames()) {
    rows += static_cast<double>(table(name.c_str())->num_rows());
  }
  tr.counters["catalog_bytes"] =
      static_cast<double>(engine.catalog().TotalMemoryUsage());
  tr.counters["catalog_rows"] = rows;
  tr.spans_file = opt.spans_path;
  tr.Check("spans_written", spans.WriteJson(opt.spans_path));
  std::printf("%s\n", tr.Render().c_str());
  return 0;
}

}  // namespace

int RunAnalytics(const Options& opt, bool iterate) {
  const Sizes sz = SizesFor(iterate);
  RunRecord rec;
  rec.workload = iterate ? "iterate_analytics" : "operator_analytics";
  rec.seed = opt.seed;

  // Set-up (data generation + load) is repeated and the median reported;
  // the last data set is the one measured.
  Dataset ds;
  for (int i = 0; i < kSetupReps; ++i) {
    ds = Dataset();  // free the previous copy before timing the next
    const int64_t t0 = NowNs();
    auto loaded = Load(sz, opt.seed, iterate);
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    rec.setup_s.push_back(MsSince(t0) / 1e3);
    ds = std::move(loaded.ValueOrDie());
  }
  RecordSizes(sz, ds, &rec.sizes);
  auto classes = Classes(ds, iterate);
  if (!classes.ok()) {
    std::fprintf(stderr, "perfbench: reference answers failed: %s\n",
                 classes.status().ToString().c_str());
    return 1;
  }

  if (opt.trace) return TraceAnalytics(opt, rec, ds, *classes, iterate);
  // peak_rss_mb covers the timed statements, not the earlier set-ups and
  // reference answers.
  rec.Check("peak_rss_reset", ResetPeakRss());

  // The amount of work is fixed by --seconds alone (rounds per second of
  // budget, calibrated once), never by how fast the statements run.
  const double rounds_per_s = iterate ? 3.5 : 5.0;
  const int64_t rounds = std::max<int64_t>(
      3, std::llround(rounds_per_s * opt.seconds));
  rec.sizes["rounds"] = static_cast<double>(rounds);
  const int64_t start = NowNs();
  for (int64_t r = 0; r < rounds; ++r) {
    for (const StatementClass& c : *classes) {
      ++rec.attempted;
      const int64_t t0 = NowNs();
      auto result = ds.engine->Execute(c.sql);
      const double ms = MsSince(t0);
      if (!result.ok()) {
        ++rec.failed;
        rec.NoteError(c.name + ": " + result.status().ToString());
      } else if (!result->table() || !c.check(*result->table())) {
        ++rec.wrong;
        rec.NoteError(c.name + ": wrong answer");
      } else {
        rec.latency_ms[c.name].push_back(ms);
      }
    }
  }
  rec.wall_s = MsSince(start) / 1e3;
  rec.peak_rss_kb = PeakRssKb();
  rec.Check("answers", rec.wrong == 0);
  std::printf("%s\n", rec.Render().c_str());
  return 0;
}

}  // namespace perfbench
