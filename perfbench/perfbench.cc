// perfbench: one host-time benchmark run of one workload.
//
//   perfbench --scenario FILE --seed N --seconds S --trace 0|1
//             --jobs J --min-rounds R --out RESULT.json [--spans SPANS.json]
//
// Loads the workload's scenario document, overrides its seed, and runs its
// cells through the library's public entry points in rounds until S
// seconds have passed (at least R rounds). Each round is
//   - one serial pass: every cell on this thread, ServerContext
//     construction and MeasurementController::Run timed separately;
//   - one ExperimentRunner pass of the same cells at J jobs;
//   - with --trace 1, one traced serial pass that records spans around a
//     replayed database build, the ServerContext, Run, and one
//     PlacementAuditor::Sample on the finished cell.
// The result file carries every timing and every cell's simulated outputs
// of every pass; perfbench/run.py checks the outputs and derives the
// metrics. Spans are kept in memory and written at the end as Chrome
// trace "X" events.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/affinity.h"
#include "cluster/cluster_manager.h"
#include "cluster/static_clusterer.h"
#include "core/measurement.h"
#include "core/scenario.h"
#include "core/server_context.h"
#include "core/txn_pipeline.h"
#include "exec/experiment_runner.h"
#include "obs/placement_auditor.h"
#include "ocb/ocb_builder.h"
#include "util/json_writer.h"
#include "workload/db_builder.h"

namespace {

using Clock = std::chrono::steady_clock;
using oodb::JsonArrayWriter;
using oodb::JsonObjectWriter;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string scenario;
  std::string out;
  std::string spans;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int jobs = 1;
  int min_rounds = 1;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--scenario") {
      a.scenario = v;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--jobs") {
      a.jobs = std::atoi(v);
    } else if (k == "--min-rounds") {
      a.min_rounds = std::atoi(v);
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || a.scenario.empty() || a.out.empty() ||
      a.jobs < 1 || a.min_rounds < 1 || a.seconds <= 0 ||
      (a.trace && a.spans.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench --scenario FILE --seed N --seconds S "
                 "--trace 0|1 --jobs J --min-rounds R --out FILE "
                 "[--spans FILE]\n");
    return false;
  }
  return true;
}

/// In-memory span recorder; spans of one cell share its cell id.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span and returns its id (its index).
  int Begin(std::string name, int parent, int cell) {
    spans_.push_back(
        {std::move(name), parent, cell, NowUs(), 0.0, std::nullopt});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Attaches a count to span `id` (written as args.count).
  void SetCount(int id, uint64_t count) {
    spans_[static_cast<size_t>(id)].count = count;
  }
  /// Closes span `id` and returns its duration in seconds.
  double End(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_us = NowUs();
    return (s.end_us - s.start_us) * 1e-6;
  }

  /// Chrome trace-event document: one complete ("X") event per span.
  std::string ToJson(const std::string& workload) const {
    JsonArrayWriter events;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const size_t dot = s.name.find('.');
      JsonObjectWriter args;
      args.Add("id", static_cast<int>(i))
          .Add("parent", s.parent)
          .Add("cell", s.cell);
      if (s.count) args.Add("count", *s.count);
      events.AddRaw(
          JsonObjectWriter()
              .Add("name", s.name)
              .Add("cat", s.name.substr(0, dot))
              .Add("ph", "X")
              .Add("ts", s.start_us)
              .Add("dur", s.end_us - s.start_us)
              .Add("pid", 1)
              .Add("tid", s.cell < 0 ? 0 : s.cell + 1)
              .AddRaw("args", args.str())
              .str());
    }
    return JsonObjectWriter()
        .AddRaw("traceEvents", events.str())
        .Add("displayTimeUnit", "ms")
        .AddRaw("otherData", JsonObjectWriter().Add("workload", workload).str())
        .str();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int cell;
    double start_us;
    double end_us;
    std::optional<uint64_t> count;
  };
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// VmHWM of this process. Unlike getrusage's ru_maxrss, it does not
/// inherit the high-water mark of the process that forked this one.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

uint64_t Counter(const oodb::obs::MetricsSnapshot& m, const char* name) {
  return m.counter(name).value_or(0);
}

/// Telemetry samples of the run that carried a placement audit.
uint64_t AuditSamples(const oodb::core::RunResult& r) {
  uint64_t n = 0;
  for (const auto& s : r.series.samples) {
    if (s.placement.has_value()) ++n;
  }
  return n;
}

/// A cell's simulated outputs: every value is deterministic for a given
/// config, so all passes of a run and the recorded reference must agree.
std::string Outputs(const oodb::core::RunResult& r) {
  const oodb::obs::MetricsSnapshot& m = r.metrics;
  return JsonObjectWriter()
      .Add("transactions", r.transactions)
      .Add("response_mean", r.response_time.Mean())
      .Add("buffer_hit_ratio", r.buffer_hit_ratio)
      .Add("data_reads", r.data_reads)
      .Add("dirty_flushes", r.dirty_flushes)
      .Add("log_flush_ios", r.log_flush_ios)
      .Add("cluster_exam_reads", r.cluster_exam_reads)
      .Add("prefetch_reads", r.prefetch_reads)
      .Add("split_writes", r.split_writes)
      .Add("buffer_hits", Counter(m, "buffer.hits"))
      .Add("buffer_misses", Counter(m, "buffer.misses"))
      .Add("buffer_evictions", Counter(m, "buffer.evictions"))
      .Add("events", Counter(m, "sim.events_processed"))
      .Add("prefetch_issued", r.prefetch_issued)
      .Add("prefetch_hits", r.prefetch_hits)
      .Add("reclusterings", r.cluster_stats.reclusterings)
      .Add("relocations", r.cluster_stats.relocations)
      .Add("splits", r.cluster_stats.splits)
      .Add("split_search_steps", r.cluster_stats.split_search_steps)
      .Add("log_records", Counter(m, "log.records"))
      .Add("log_flushes", Counter(m, "log.flushes"))
      .Add("cc_lock_waits", r.cc_lock_waits)
      .Add("cc_latch_waits", r.cc_latch_waits)
      .Add("cc_txn_aborts", r.cc_txn_aborts)
      .Add("dyn_triggers", Counter(m, "dyn.triggers"))
      .Add("dyn_objects_moved", Counter(m, "dyn.objects_moved"))
      .Add("audit_samples", AuditSamples(r))
      .Add("telemetry_samples", static_cast<uint64_t>(r.series.samples.size()))
      .Add("db_objects", static_cast<uint64_t>(r.db_objects))
      .Add("db_pages", static_cast<uint64_t>(r.db_pages))
      .str();
}

/// Rebuilds `cfg`'s database outside ServerContext, wiring the build-time
/// components the way ServerContext does, and times the builder call and
/// the optional static reorganisation as child spans of `parent`.
std::string ReplayBuild(const oodb::core::ModelConfig& cfg, SpanLog& spans,
                        int parent, int cell) {
  oodb::obj::TypeLattice lattice;
  oodb::ocb::OcbSchema ocb_schema;
  oodb::workload::CadTypes types{};
  if (cfg.ocb.enabled) {
    ocb_schema =
        oodb::ocb::RegisterOcbClasses(lattice, cfg.ocb, cfg.seed ^ 0x0CB0CB);
  } else {
    types = oodb::workload::RegisterCadTypes(lattice);
  }
  oodb::obj::ObjectGraph graph(&lattice);
  oodb::store::StorageManager storage(cfg.page_size_bytes,
                                      cfg.append_fill_fraction);
  oodb::buffer::BufferPool buffer(cfg.buffer_pages, cfg.replacement,
                                  cfg.seed ^ 0xB0FFEB0FF);
  oodb::cluster::AffinityModel affinity(&lattice);
  oodb::cluster::ClusterManager cluster(&graph, &storage, &affinity, &buffer,
                                        cfg.clustering);
  double build_s = 0;
  if (cfg.ocb.enabled) {
    oodb::ocb::OcbBuilder builder(&graph, &cluster, &buffer, cfg.ocb);
    const int span = spans.Begin("ocb.OcbBuilder::Build", parent, cell);
    builder.Build(ocb_schema, cfg.seed ^ 0xDBDBDB);
    build_s = spans.End(span);
  } else {
    oodb::workload::DatabaseSpec spec = cfg.database;
    spec.target_bytes = cfg.database_bytes;
    spec.density = cfg.workload.density;
    spec.concurrent_streams = cfg.num_users;
    spec.seed = cfg.seed ^ 0xDBDBDB;
    oodb::workload::DbBuilder builder(&graph, &cluster, &buffer, spec);
    const int span =
        spans.Begin("workload.DbBuilder::Build", parent, cell);
    builder.Build(types);
    build_s = spans.End(span);
  }
  const oodb::cluster::ClusterStats build_stats = cluster.stats();
  double reorg_s = 0;
  if (cfg.static_reorganize_after_build) {
    oodb::cluster::StaticClusterer reorganizer(&graph, &storage, &affinity);
    const int span =
        spans.Begin("cluster.StaticClusterer::Reorganize", parent, cell);
    reorganizer.Reorganize();
    reorg_s = spans.End(span);
  }
  uint64_t edges = 0;
  for (size_t id = 0; id < graph.size(); ++id) {
    edges += graph.EdgeCount(static_cast<oodb::obj::ObjectId>(id));
  }
  return JsonObjectWriter()
      .Add("ocb", cfg.ocb.enabled)
      .Add("build_s", build_s)
      .Add("reorg_s", reorg_s)
      .Add("objects", static_cast<uint64_t>(graph.live_count()))
      .Add("pages", static_cast<uint64_t>(storage.page_count()))
      .Add("edges", edges)
      .Add("placements", build_stats.placements)
      .Add("exam_reads", build_stats.exam_reads)
      .Add("mean_occupancy", storage.MeanOccupancy())
      .str();
}

/// One cell through ServerContext + MeasurementController, timed. When
/// `spans` is set the cell is traced (`cell` is its span cell id): spans
/// around the public calls, one audit of the finished placement, then a
/// replayed database build. A traced cell runs with the in-run
/// placement audit off, so the Run span holds no audit; the audit of the
/// finished cell, times the telemetry samples the run took, prices it
/// instead. Auditing never changes a simulated outcome.
std::string RunSerialCell(oodb::core::ModelConfig cfg, int cell,
                          SpanLog* spans) {
  if (spans) cfg.telemetry_audit_placement = false;
  const Clock::time_point cell_start = Clock::now();
  const int root = spans ? spans->Begin("cell", -1, cell) : -1;

  Clock::time_point t = Clock::now();
  const int ctx_span =
      spans ? spans->Begin("core.ServerContext", root, cell) : -1;
  auto ctx = std::make_unique<oodb::core::ServerContext>(cfg);
  const double setup_s = spans ? spans->End(ctx_span) : Since(t);
  const uint64_t ctx_objects = ctx->graph->live_count();
  const uint64_t ctx_pages = ctx->storage->page_count();

  oodb::core::TxnPipeline pipeline(*ctx);
  oodb::core::MeasurementController measurement(*ctx, pipeline);
  t = Clock::now();
  const int run_span =
      spans ? spans->Begin("core.MeasurementController::Run", root, cell)
            : -1;
  const oodb::core::RunResult result = measurement.Run();
  const double run_s = spans ? spans->End(run_span) : Since(t);

  JsonObjectWriter w;
  if (spans) {
    const int audit_span =
        spans->Begin("obs.PlacementAuditor::Sample", root, cell);
    const oodb::obs::PlacementSample audit = ctx->auditor->Sample();
    spans->SetCount(audit_span, result.series.samples.size());
    w.Add("audit_one_s", spans->End(audit_span))
        .Add("audit_objects", audit.live_objects);
  }
  ctx.reset();
  if (spans) {
    // After the context is gone, so the replay meets the same heap state
    // the ServerContext build met.
    w.AddRaw("replay", ReplayBuild(cfg, *spans, root, cell));
    spans->End(root);
  }
  return w.Add("wall_s", Since(cell_start))
      .Add("setup_s", setup_s)
      .Add("run_s", run_s)
      .Add("ctx_objects", ctx_objects)
      .Add("ctx_pages", ctx_pages)
      .AddRaw("out", Outputs(result))
      .str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  const Clock::time_point origin = Clock::now();
  SpanLog spans(origin);

  int span = spans.Begin("core.LoadScenarioFile", -1, -1);
  auto spec = oodb::core::LoadScenarioFile(args.scenario);
  spans.End(span);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  span = spans.Begin("core.ScenarioSpec::Expand", -1, -1);
  const std::vector<oodb::core::ScenarioCell> cells = spec->Expand();
  spans.End(span);

  // The workload seed replaces the document's; ExperimentRunner derives
  // each cell's seed from it, and the serial passes apply the same
  // derivation so every pass runs identical configurations.
  std::vector<oodb::core::ModelConfig> base;
  std::vector<oodb::core::ModelConfig> derived;
  JsonArrayWriter labels;
  JsonArrayWriter invalid;
  for (size_t i = 0; i < cells.size(); ++i) {
    oodb::core::ModelConfig c = cells[i].config;
    c.seed = args.seed;
    base.push_back(c);
    c.seed = oodb::exec::ExperimentRunner::CellSeed(args.seed, i);
    c.cell_index = static_cast<int>(i);
    const oodb::Status valid = c.Validate();
    if (!valid.ok()) {
      invalid.AddRaw(JsonObjectWriter()
                         .Add("cell", static_cast<int>(i))
                         .Add("error", valid.ToString())
                         .str());
    }
    derived.push_back(std::move(c));
    labels.Add(cells[i].cell_label);
  }

  JsonObjectWriter doc;
  doc.Add("workload", spec->name)
      .Add("seed", args.seed)
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("compiler", PERFBENCH_COMPILER)
      .Add("jobs", args.jobs)
      .AddRaw("cells", labels.str())
      .AddRaw("invalid", invalid.str());

  JsonArrayWriter passes;
  if (invalid.empty()) {
    // Allocator parity: ExperimentRunner::Run tunes glibc's allocator for
    // cell churn on first use, as every semclust_run user gets. One
    // discarded cell through it keeps that cost out of the timed passes.
    const auto warm_out = oodb::exec::ExperimentRunner(1).Run({base[0]});
    doc.AddRaw("warmup_out", Outputs(warm_out[0].result));

    // A round starts only if one more of the last round's length still
    // ends within --seconds of the start.
    double last_round_s = 0;
    for (int round = 0; round < args.min_rounds ||
                        Since(origin) + last_round_s < args.seconds;
         ++round) {
      const Clock::time_point round_start = Clock::now();
      JsonArrayWriter serial;
      const Clock::time_point pass_start = Clock::now();
      for (size_t i = 0; i < derived.size(); ++i) {
        serial.AddRaw(RunSerialCell(derived[i], static_cast<int>(i), nullptr));
      }
      JsonObjectWriter pass;
      pass.Add("kind", "serial").Add("round", round).Add(
          "wall_s", Since(pass_start));
      if (round == 0) {
        // Peak RSS of the serial workload, read before any jobs=N pass
        // holds several cells at once.
        doc.Add("peak_rss_kb", PeakRssKb());
      }
      passes.AddRaw(pass.AddRaw("cells", serial.str()).str());

      const Clock::time_point par_start = Clock::now();
      const auto outcomes = oodb::exec::ExperimentRunner(args.jobs).Run(base);
      const double par_wall_s = Since(par_start);
      JsonArrayWriter par;
      for (size_t i = 0; i < outcomes.size(); ++i) {
        par.AddRaw(JsonObjectWriter()
                       .Add("wall_s", outcomes[i].wall_s)
                       .AddRaw("out", Outputs(outcomes[i].result))
                       .str());
      }
      passes.AddRaw(JsonObjectWriter()
                        .Add("kind", "par")
                        .Add("round", round)
                        .Add("wall_s", par_wall_s)
                        .AddRaw("cells", par.str())
                        .str());

      if (args.trace) {
        JsonArrayWriter traced;
        const Clock::time_point traced_start = Clock::now();
        for (size_t i = 0; i < derived.size(); ++i) {
          const int cell_id =
              round * static_cast<int>(derived.size()) + static_cast<int>(i);
          traced.AddRaw(RunSerialCell(derived[i], cell_id, &spans));
        }
        passes.AddRaw(JsonObjectWriter()
                          .Add("kind", "traced")
                          .Add("round", round)
                          .Add("wall_s", Since(traced_start))
                          .AddRaw("cells", traced.str())
                          .str());
      }
      last_round_s = Since(round_start);
    }
  }
  doc.AddRaw("passes", passes.str());

  std::ofstream out(args.out);
  out << doc.str() << "\n";
  if (args.trace) {
    std::ofstream trace_out(args.spans);
    trace_out << spans.ToJson(spec->name) << "\n";
    if (!trace_out) return 3;
  }
  return out ? 0 : 3;
}
