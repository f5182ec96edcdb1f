#include "harness.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "exec/plan_verifier.h"
#include "sql/binder.h"
#include "sql/optimizer.h"
#include "sql/parser.h"

namespace perfbench {

using soda::Status;

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

double PeakRssKb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ",";
    out += JsonString(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

void Record::NoteError(const std::string& what) {
  if (errors.size() < 5) errors.push_back(what);
}

void Record::RenderCommon(JsonObject* o) const {
  o->Str("workload", workload);
  o->Num("seed", static_cast<double>(seed));
  JsonObject sz;
  for (const auto& [k, v] : sizes) sz.Num(k, v);
  o->Raw("sizes", sz.Render());
  JsonObject ch;
  for (const auto& [k, v] : checks) ch.Bool(k, v);
  o->Raw("checks", ch.Render());
  std::string errs = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i) errs += ",";
    errs += JsonString(errors[i]);
  }
  o->Raw("errors", errs + "]");
}

std::string RunRecord::Render() const {
  JsonObject o;
  RenderCommon(&o);
  o.Array("setup_s", setup_s);
  o.Num("peak_rss_kb", peak_rss_kb);
  JsonObject lat;
  for (const auto& [k, v] : latency_ms) lat.Array(k, v);
  o.Raw("latency_ms", lat.Render());
  o.Num("attempted", static_cast<double>(attempted));
  o.Num("failed", static_cast<double>(failed));
  o.Num("shed", static_cast<double>(shed));
  o.Num("wrong", static_cast<double>(wrong));
  o.Num("wall_s", wall_s);
  return o.Render();
}

namespace {
thread_local std::vector<int64_t> t_open_spans;
}  // namespace

int64_t SpanRecorder::Open(const std::string& name, int64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  soda::MutexLock lock(&mu_);
  const auto id = static_cast<int64_t>(spans_.size());
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  t_open_spans.push_back(id);
  return id;
}

void SpanRecorder::Close(int64_t id) {
  const int64_t end = NowNs();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  soda::MutexLock lock(&mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  soda::MutexLock lock(&mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  const std::vector<Span> spans = Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonObject o;
    o.Num("id", static_cast<double>(i));
    o.Str("name", s.name);
    o.Num("start_ns", static_cast<double>(s.start_ns));
    o.Num("end_ns", static_cast<double>(s.end_ns));
    o.Num("parent", static_cast<double>(s.parent));
    o.Num("request", static_cast<double>(s.request));
    out << (i ? ",\n" : "\n") << o.Render();
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

bool SameTable(const soda::Table& a, const soda::Table& b, double tol) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const soda::Column& ca = a.column(c);
    const soda::Column& cb = b.column(c);
    const bool numeric = soda::IsNumeric(ca.type()) && soda::IsNumeric(cb.type());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (ca.IsNull(r) != cb.IsNull(r)) return false;
      if (ca.IsNull(r)) continue;
      if (numeric) {
        const double x = ca.GetNumeric(r);
        const double y = cb.GetNumeric(r);
        if (std::fabs(x - y) > tol * std::max(1.0, std::fabs(x))) return false;
      } else if (ca.GetValue(r).ToString() != cb.GetValue(r).ToString()) {
        return false;
      }
    }
  }
  return true;
}

std::map<int64_t, double> KeyedValues(const soda::Table& t) {
  std::map<int64_t, double> m;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    m[t.column(0).GetBigInt(r)] = t.column(1).GetNumeric(r);
  }
  return m;
}

bool SameKeyedValues(const std::map<int64_t, double>& a,
                     const std::map<int64_t, double>& b, double tol,
                     size_t min_common) {
  size_t common = 0;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end()) continue;
    if (std::fabs(v - it->second) > tol) return false;
    ++common;
  }
  return common >= min_common;
}

soda::TablePtr DropFirstColumn(const soda::Table& t) {
  soda::Schema schema;
  for (size_t j = 1; j < t.num_columns(); ++j) {
    schema.AddField(t.schema().field(j));
  }
  auto out = std::make_shared<soda::Table>("view", schema);
  for (size_t j = 1; j < t.num_columns(); ++j) {
    soda::Column col(t.column(j).type());
    col.AppendSlice(t.column(j), 0, t.num_rows());
    if (!out->SetColumn(j - 1, std::move(col)).ok()) return nullptr;
  }
  return out;
}

Status RunStaged(soda::Engine& engine, const std::string& sql,
                 SpanRecorder* rec, int64_t request, StagedResult* out) {
  soda::Catalog* catalog = &engine.catalog();
  ScopedSpan statement(rec, "statement", request);
  int64_t t0 = NowNs();
  soda::Statement stmt;
  {
    ScopedSpan span(rec, "sql.parse", request);
    SODA_ASSIGN_OR_RETURN(stmt, soda::ParseStatement(sql));
  }
  out->parse_ms = MsSince(t0);
  if (stmt.kind != soda::StatementKind::kSelect || stmt.select == nullptr) {
    return Status::InvalidArgument("staged path runs SELECTs only: " + sql);
  }
  t0 = NowNs();
  soda::PlanPtr plan;
  {
    ScopedSpan span(rec, "sql.bind", request);
    soda::Binder binder(catalog);
    SODA_ASSIGN_OR_RETURN(plan, binder.BindSelectStatement(*stmt.select));
  }
  out->bind_ms = MsSince(t0);
  t0 = NowNs();
  if (engine.options().optimize) {
    ScopedSpan span(rec, "sql.optimize", request);
    plan = soda::OptimizePlan(std::move(plan), catalog);
  }
  out->optimize_ms = MsSince(t0);
  t0 = NowNs();
  soda::PhysicalPlan physical;
  {
    ScopedSpan span(rec, "exec.lower", request);
    SODA_ASSIGN_OR_RETURN(physical, soda::LowerPlan(*plan));
  }
  out->lower_ms = MsSince(t0);
  t0 = NowNs();
  {
    ScopedSpan span(rec, "exec.verify", request);
    SODA_RETURN_NOT_OK(soda::VerifyPlan(*plan, physical));
  }
  out->verify_ms = MsSince(t0);
  soda::ExecContext ctx;
  ctx.catalog = catalog;
  ctx.max_iterations = engine.options().max_iterations;
  ctx.verify_plans = engine.options().verify_plans;
  ctx.ht_recycler = &engine.ht_recycler();
  t0 = NowNs();
  {
    ScopedSpan span(rec, "exec.execute", request);
    SODA_RETURN_NOT_OK(physical.Execute(ctx));
  }
  out->execute_ms = MsSince(t0);
  out->stats = ctx.stats;
  out->table = physical.result();
  out->chains.clear();
  const auto nanos = [](const soda::PhysOpPtr& op) -> uint64_t {
    return op ? op->metrics.nanos.load(std::memory_order_relaxed) : 0;
  };
  for (size_t i = 0; i < physical.num_pipelines(); ++i) {
    const soda::PhysicalPipeline& p = physical.pipeline(i);
    Chain chain;
    for (const auto& op : p.prepare_ops) {
      if (op) chain.emplace_back("prepare", op->name, nanos(op));
    }
    if (p.op) chain.emplace_back("op", p.op->name, nanos(p.op));
    if (p.source_op) {
      chain.emplace_back("source", p.source_op->name, nanos(p.source_op));
    }
    for (const auto& op : p.transform_ops) {
      if (op) chain.emplace_back("transform", op->name, nanos(op));
    }
    if (p.sink_op) chain.emplace_back("sink", p.sink_op->name, nanos(p.sink_op));
    out->chains.push_back(std::move(chain));
  }
  return Status::OK();
}

void TraceRecord::AddStaged(const std::string& cls, const StagedResult& s) {
  samples["sql.parse_ms/" + cls].push_back(s.parse_ms);
  samples["sql.bind_ms/" + cls].push_back(s.bind_ms);
  samples["sql.optimize_ms/" + cls].push_back(s.optimize_ms);
  samples["exec.lower_ms/" + cls].push_back(s.lower_ms);
  samples["exec.verify_ms/" + cls].push_back(s.verify_ms);
  samples["exec.execute_ms/" + cls].push_back(s.execute_ms);
  counters["exec.iterations/" + cls] =
      static_cast<double>(s.stats.iterations_run);
  counters["exec.materialized_tuples/" + cls] =
      static_cast<double>(s.stats.cumulative_materialized_tuples);
  counters["exec.peak_bound_tuples/" + cls] =
      static_cast<double>(s.stats.peak_bound_tuples);
  counters["exec.recycled_joins/" + cls] =
      static_cast<double>(s.stats.recycled_joins);
  chains[cls] = s.chains;
}

std::string TraceRecord::Render() const {
  JsonObject o;
  RenderCommon(&o);
  JsonObject sm;
  for (const auto& [k, v] : samples) sm.Array(k, v);
  o.Raw("samples", sm.Render());
  JsonObject ct;
  for (const auto& [k, v] : counters) ct.Num(k, v);
  o.Raw("counters", ct.Render());
  JsonObject chs;
  for (const auto& [cls, pipelines] : chains) {
    std::string arr = "[";
    for (size_t p = 0; p < pipelines.size(); ++p) {
      if (p) arr += ",";
      arr += "[";
      for (size_t i = 0; i < pipelines[p].size(); ++i) {
        const auto& [role, name, nanos] = pipelines[p][i];
        if (i) arr += ",";
        arr += "[" + JsonString(role) + "," + JsonString(name) + "," +
               JsonNumber(static_cast<double>(nanos)) + "]";
      }
      arr += "]";
    }
    chs.Raw(cls, arr + "]");
  }
  o.Raw("chains", chs.Render());
  o.Str("spans_file", spans_file);
  return o.Render();
}

std::map<std::string, int64_t> EngineStatus(soda::Engine& engine) {
  std::map<std::string, int64_t> m;
  auto r = engine.Execute("SELECT metric, value FROM soda_status()");
  if (!r.ok()) return m;
  for (size_t i = 0; i < r->num_rows(); ++i) {
    m[r->GetString(i, 0)] = r->GetInt(i, 1);
  }
  return m;
}

}  // namespace perfbench
