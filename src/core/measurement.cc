#include "core/measurement.h"

#include <algorithm>
#include <string>

namespace oodb::core {

namespace {

/// System-wide component counters, summed over every shard in shard
/// order; utilisations are means over shards. With shards = 1 these are
/// the single server's own values. Run() and SyncComponentMetrics() both
/// read this one pass.
struct ShardTotals {
  uint64_t buf_hits = 0, buf_misses = 0, buf_evictions = 0;
  uint64_t buf_dirty_evictions = 0;
  uint64_t io[io::kNumIoCategories] = {};
  uint64_t log_records = 0, log_before_images = 0, log_flushes = 0;
  uint64_t pages = 0;
  cluster::ClusterStats cluster;
  double disk_util = 0, cpu_util = 0;

  uint64_t io_of(io::IoCategory c) const {
    return io[static_cast<int>(c)];
  }
};

ShardTotals SumShards(const ShardedContext& shards) {
  ShardTotals t;
  const int n = shards.num_shards();
  for (int s = 0; s < n; ++s) {
    const Shard& shard = shards.shard(s);
    t.buf_hits += shard.buffer->hits();
    t.buf_misses += shard.buffer->misses();
    t.buf_evictions += shard.buffer->evictions();
    t.buf_dirty_evictions += shard.buffer->dirty_evictions();
    for (int c = 0; c < io::kNumIoCategories; ++c) {
      t.io[c] += shard.io->physical_count(static_cast<io::IoCategory>(c));
    }
    t.log_records += shard.log->records_appended();
    t.log_before_images += shard.log->before_images();
    t.log_flushes += shard.log->flush_count();
    t.pages += shard.storage->page_count();
    t.cluster += shard.cluster->stats();
    t.disk_util += shard.io->MeanUtilization();
    t.cpu_util += shard.cpu->Utilization();
  }
  t.disk_util /= static_cast<double>(n);
  t.cpu_util /= static_cast<double>(n);
  return t;
}

}  // namespace

MeasurementController::MeasurementController(ServerContext& context,
                                             TxnPipeline& pipeline)
    : ctx_(context), pipeline_(pipeline) {
  response_epochs_.resize(static_cast<size_t>(
      std::max(1, ctx_.config.measurement_epochs)));
  ctx_.sampler.set_pre_sample_hook([this] { SyncComponentMetrics(); });
}

void MeasurementController::ApplyEpochSchedule(size_t epoch) {
  if (ctx_.config.rw_ratio_schedule.empty()) return;
  const size_t i =
      std::min(epoch, ctx_.config.rw_ratio_schedule.size() - 1);
  for (auto& gen : ctx_.generators) {
    gen->SetTargetRatio(ctx_.config.rw_ratio_schedule[i]);
  }
}

void MeasurementController::ResetMeasurementCounters() {
  // Every shard's components carry warmup-era counts. With shards = 1
  // the single iteration resets the server's own components — exactly
  // the pre-sharding sequence.
  for (int s = 0; s < ctx_.shards->num_shards(); ++s) {
    const Shard& shard = ctx_.shards->shard(s);
    shard.io->ResetCounters();
    shard.buffer->ResetCounters();
    shard.log->ResetCounters();
    shard.cluster->ResetStats();
  }
  ctx_.shards->ResetCounters();
  ctx_.metrics.ResetValues();
  // Warmup-era span records (totals and the exemplar reservoir) are
  // forgotten with the same semantics as the I/O counters: in-flight
  // transactions straddling the boundary fold fully into the measured
  // window when they finish.
  if (ctx_.spans) ctx_.spans->Reset();
  // Lock-manager counters reset like the component counters; locks held
  // by in-flight transactions straddling the boundary are untouched (only
  // the statistics mirror clears).
  if (ctx_.locks) ctx_.locks->ResetStats();
  // Pages prefetched during warmup were counted against the warmup issue
  // counter that was just reset; forgetting them keeps the measured-window
  // invariant hits + wasted <= issued.
  pipeline_.ResetMeasurementState();
}

void MeasurementController::OnTransactionDone(double response_s,
                                              workload::QueryType type) {
  ++completed_txns_;
  if (!measuring_) {
    if (completed_txns_ >=
        static_cast<uint64_t>(ctx_.config.warmup_transactions)) {
      measuring_ = true;
      ResetMeasurementCounters();
      ApplyEpochSchedule(0);
      ctx_.sampler.StartMeasurement(ctx_.sim.now());
    }
    return;
  }
  if (done_) return;  // in-flight stragglers after the quota was reached
  const uint64_t per_epoch = std::max<uint64_t>(
      1, static_cast<uint64_t>(ctx_.config.measured_transactions) /
             response_epochs_.size());
  const size_t epoch =
      std::min(response_epochs_.size() - 1,
               static_cast<size_t>(measured_txns_ / per_epoch));
  const bool crossed = epoch != current_epoch_;
  if (crossed) {
    // The first transaction of the new epoch just completed: close every
    // epoch crossed (usually one) with a boundary sample *before*
    // recording this transaction, so the boundary delta covers exactly
    // the closed epoch's transactions.
    for (size_t closed = current_epoch_; closed < epoch; ++closed) {
      ctx_.sampler.SampleEpochBoundary(ctx_.sim.now(),
                                       static_cast<uint32_t>(closed));
    }
    current_epoch_ = epoch;
    ApplyEpochSchedule(epoch);
  }
  ctx_.metrics.Add(ctx_.handles.txns);
  ctx_.metrics.Observe(ctx_.handles.response_s, response_s);
  response_time_.Add(response_s);
  const bool was_write = type == workload::QueryType::kObjectWrite;
  (was_write ? write_response_ : read_response_).Add(response_s);
  response_by_query_[static_cast<size_t>(type)].Add(response_s);
  response_epochs_[epoch].Add(response_s);
  if (!crossed) {
    ctx_.sampler.Poll(ctx_.sim.now(), static_cast<uint32_t>(epoch));
  }
  ++measured_txns_;
  if (measured_txns_ >=
      static_cast<uint64_t>(ctx_.config.measured_transactions)) {
    done_ = true;
  }
}

sim::Task MeasurementController::RunOneArrival(int user) {
  workload::TransactionSource& gen =
      *ctx_.generators[static_cast<size_t>(user)];
  // Sessions keep their meaning under open arrivals: a stream's working
  // set persists across arrivals until its session length is spent. The
  // draws below all happen before the first await, so the generator's
  // sequence is ordered by arrival time regardless of how long earlier
  // transactions of the same stream stay in flight.
  if (open_session_left_[static_cast<size_t>(user)] <= 0) {
    open_session_left_[static_cast<size_t>(user)] = gen.BeginSession();
  }
  --open_session_left_[static_cast<size_t>(user)];
  co_await RunNextTransaction(gen);
}

sim::Task MeasurementController::RunNextTransaction(
    workload::TransactionSource& gen) {
  const workload::TransactionSpec spec = gen.NextTransaction();
  const uint64_t reads_before = pipeline_.logical_reads();
  const uint64_t writes_before = pipeline_.logical_writes();
  const double start = ctx_.sim.now();
  co_await pipeline_.ExecuteTransaction(spec);
  gen.RecordOps(pipeline_.logical_reads() - reads_before,
                pipeline_.logical_writes() - writes_before);
  OnTransactionDone(ctx_.sim.now() - start, spec.type);
}

sim::Task MeasurementController::ArrivalLoop() {
  // A dedicated interarrival stream, distinct from every per-user think
  // stream (those use seed * 104729 + user with user < num_users).
  Rng arrival_rng(ctx_.config.seed * 104729 + 0xA221AA11ull);
  const double mean_interarrival = 1.0 / ctx_.config.arrival_rate_tps;
  uint64_t arrivals = 0;
  while (!done_) {
    co_await sim::Delay(ctx_.sim,
                        arrival_rng.Exponential(mean_interarrival));
    if (done_) break;
    const int user =
        static_cast<int>(arrivals++ % ctx_.generators.size());
    sim::Spawn(RunOneArrival(user));
  }
}

sim::Task MeasurementController::UserLoop(int user) {
  workload::TransactionSource& gen =
      *ctx_.generators[static_cast<size_t>(user)];
  Rng think_rng(ctx_.config.seed * 104729 + static_cast<uint64_t>(user));
  while (!done_) {
    const int session_len = gen.BeginSession();
    for (int t = 0; t < session_len && !done_; ++t) {
      co_await sim::Delay(ctx_.sim,
                          think_rng.Exponential(ctx_.config.think_time_s));
      if (done_) break;
      co_await RunNextTransaction(gen);
    }
  }
}

void MeasurementController::SyncComponentMetrics() {
  obs::MetricsRegistry& metrics = ctx_.metrics;
  if (!metrics.enabled()) return;
  // Registration is idempotent (re-registering returns the existing
  // handle) and the values are absolute cumulative counts written with
  // set-semantics, so syncing at every telemetry sample and again at end
  // of run is safe.
  //
  // The unprefixed names carry system-wide totals summed over every
  // shard; with shards = 1 the single iteration reads the server's own
  // components, so names, registration order, and values are exactly the
  // pre-sharding mirror's.
  const ShardTotals t = SumShards(*ctx_.shards);
  metrics.SetCounter(metrics.Counter("buffer.hits"), t.buf_hits);
  metrics.SetCounter(metrics.Counter("buffer.misses"), t.buf_misses);
  metrics.SetCounter(metrics.Counter("buffer.evictions"), t.buf_evictions);
  metrics.SetCounter(metrics.Counter("buffer.dirty_evictions"),
                     t.buf_dirty_evictions);
  for (int c = 0; c < io::kNumIoCategories; ++c) {
    const auto cat = static_cast<io::IoCategory>(c);
    metrics.SetCounter(
        metrics.Counter(std::string("io.") + io::IoCategoryName(cat)),
        t.io[c]);
  }
  metrics.SetCounter(metrics.Counter("log.records"), t.log_records);
  metrics.SetCounter(metrics.Counter("log.before_images"),
                     t.log_before_images);
  metrics.SetCounter(metrics.Counter("log.flushes"), t.log_flushes);
  const cluster::ClusterStats& cs = t.cluster;
  metrics.SetCounter(metrics.Counter("cluster.placements"), cs.placements);
  metrics.SetCounter(metrics.Counter("cluster.reclusterings"),
                     cs.reclusterings);
  metrics.SetCounter(metrics.Counter("cluster.relocations"),
                     cs.relocations);
  metrics.SetCounter(metrics.Counter("cluster.splits"), cs.splits);
  metrics.SetCounter(metrics.Counter("cluster.exam_reads"), cs.exam_reads);
  metrics.SetCounter(metrics.Counter("cluster.objects_moved_by_splits"),
                     cs.objects_moved_by_splits);
  metrics.SetCounter(metrics.Counter("cluster.split_search_steps"),
                     cs.split_search_steps);
  metrics.Set(metrics.Gauge("cluster.split_broken_cost"),
              cs.split_broken_cost);
  metrics.SetCounter(metrics.Counter("sim.events_processed"),
                     ctx_.sim.events_processed());
  metrics.SetCounter(metrics.Counter("sim.events_scheduled"),
                     ctx_.sim.events_scheduled());
  metrics.Set(metrics.Gauge("io.mean_disk_utilization"), t.disk_util);
  metrics.Set(metrics.Gauge("cpu.utilization"), t.cpu_util);
  metrics.Set(metrics.Gauge("sim.duration_s"), ctx_.sim.now());
  if (ctx_.shards->sharded()) {
    // Per-shard mirrors plus the cross-shard traffic counters, registered
    // only when sharded so every single-server snapshot layout committed
    // before this subsystem existed is untouched.
    for (int s = 0; s < ctx_.shards->num_shards(); ++s) {
      const Shard& v = ctx_.shards->shard(s);
      const std::string p = "shard" + std::to_string(s) + ".";
      metrics.SetCounter(metrics.Counter(p + "buffer.hits"),
                         v.buffer->hits());
      metrics.SetCounter(metrics.Counter(p + "buffer.misses"),
                         v.buffer->misses());
      metrics.SetCounter(metrics.Counter(p + "io.data_read"),
                         v.io->physical_count(io::IoCategory::kDataRead));
      metrics.SetCounter(metrics.Counter(p + "log.records"),
                         v.log->records_appended());
      metrics.SetCounter(metrics.Counter(p + "cluster.placements"),
                         v.cluster->stats().placements);
      metrics.Set(metrics.Gauge(p + "io.mean_disk_utilization"),
                  v.io->MeanUtilization());
      metrics.Set(metrics.Gauge(p + "cpu.utilization"),
                  v.cpu->Utilization());
      metrics.Set(metrics.Gauge(p + "nic.utilization"),
                  v.nic->Utilization());
    }
    const ShardedContext::Counters& sc = ctx_.shards->counters();
    metrics.SetCounter(metrics.Counter("shard.local_fetches"),
                       sc.local_fetches);
    metrics.SetCounter(metrics.Counter("shard.remote_fetches"),
                       sc.remote_fetches);
    metrics.SetCounter(metrics.Counter("shard.remote_writes"),
                       sc.remote_writes);
    metrics.SetCounter(metrics.Counter("shard.hops"), sc.hops);
    const uint64_t fetches = sc.local_fetches + sc.remote_fetches;
    metrics.Set(metrics.Gauge("shard.remote_fetch_fraction"),
                fetches == 0 ? 0.0
                             : static_cast<double>(sc.remote_fetches) /
                                   static_cast<double>(fetches));
  }
  if (ctx_.dyn_policy) {
    // Whole-run cumulative deferral bookkeeping lives in the policy (it is
    // not reset at the measurement boundary: a deferral window straddling
    // the boundary must not lose its opening edge).
    metrics.SetCounter(ctx_.dyn_handles.deferral_events,
                       ctx_.dyn_policy->deferral_events());
    metrics.Set(ctx_.dyn_handles.deferral_time_s,
                ctx_.dyn_policy->deferral_time_s());
  }
  if (ctx_.locks) {
    // Lock-manager mirror, registered only when the cc subsystem is on so
    // every cc-off snapshot layout is untouched. `deadlock_timeouts`
    // mirrors the manager's timed-out waits — in a wait-timeout scheme
    // that count *is* the presumed-deadlock count.
    const cc::LockStats& ls = ctx_.locks->stats();
    metrics.SetCounter(metrics.Counter("cc.lock_grants"), ls.lock_grants);
    metrics.SetCounter(metrics.Counter("cc.lock_waits"), ls.lock_waits);
    metrics.SetCounter(metrics.Counter("cc.deadlock_timeouts"),
                       ls.lock_timeouts);
    metrics.SetCounter(metrics.Counter("cc.latch_grants"),
                       ls.latch_grants);
    metrics.SetCounter(metrics.Counter("cc.latch_waits"), ls.latch_waits);
    metrics.Set(metrics.Gauge("cc.lock_wait_time_s"), ls.lock_wait_time_s);
    metrics.Set(metrics.Gauge("cc.latch_wait_time_s"),
                ls.latch_wait_time_s);
  }
}

RunResult MeasurementController::Run() {
  const double start_time = ctx_.sim.now();
  if (ctx_.config.arrival == ArrivalProcess::kOpen) {
    open_session_left_.assign(ctx_.generators.size(), 0);
    sim::Spawn(ArrivalLoop());
  } else {
    for (int u = 0; u < ctx_.config.num_users; ++u) {
      sim::Spawn(UserLoop(u));
    }
  }
  ctx_.sim.Run();

  RunResult result;
  result.response_time = response_time_;
  result.read_response = read_response_;
  result.write_response = write_response_;
  result.response_by_query = response_by_query_;
  result.response_epochs = response_epochs_;
  result.transactions = measured_txns_;
  result.logical_reads = pipeline_.logical_reads();
  result.logical_writes = pipeline_.logical_writes();
  // Physical counters are summed over every shard; with shards = 1 they
  // are the single server's own, value for value the pre-sharding
  // assembly.
  const ShardTotals t = SumShards(*ctx_.shards);
  result.data_reads = t.io_of(io::IoCategory::kDataRead);
  result.dirty_flushes = t.io_of(io::IoCategory::kDirtyFlush);
  result.log_flush_ios = t.io_of(io::IoCategory::kLogWrite);
  result.cluster_exam_reads = t.io_of(io::IoCategory::kClusterRead);
  result.prefetch_reads = t.io_of(io::IoCategory::kPrefetchRead);
  result.split_writes = t.io_of(io::IoCategory::kDataWrite);
  const uint64_t buf_accesses = t.buf_hits + t.buf_misses;
  result.buffer_hit_ratio =
      buf_accesses == 0 ? 0.0
                        : static_cast<double>(t.buf_hits) /
                              static_cast<double>(buf_accesses);
  result.log_before_images = t.log_before_images;
  result.cluster_stats = t.cluster;
  result.mean_disk_utilization = t.disk_util;
  result.cpu_utilization = t.cpu_util;
  result.db_pages = t.pages;
  if (ctx_.shards->sharded()) {
    const ShardedContext::Counters& sc = ctx_.shards->counters();
    result.shard_local_fetches = sc.local_fetches;
    result.shard_remote_fetches = sc.remote_fetches;
    result.shard_remote_writes = sc.remote_writes;
    const uint64_t fetches = sc.local_fetches + sc.remote_fetches;
    result.remote_fetch_fraction =
        fetches == 0 ? 0.0
                     : static_cast<double>(sc.remote_fetches) /
                           static_cast<double>(fetches);
  }
  if (ctx_.locks) {
    const cc::LockStats& ls = ctx_.locks->stats();
    result.cc_enabled = true;
    result.cc_lock_grants = ls.lock_grants;
    result.cc_lock_waits = ls.lock_waits;
    result.cc_deadlock_timeouts = ls.lock_timeouts;
    result.cc_latch_waits = ls.latch_waits;
    result.cc_lock_wait_time_s = ls.lock_wait_time_s;
    result.cc_txn_aborts = ctx_.metrics.value(ctx_.cc_handles.txn_aborts);
    result.cc_txn_retries =
        ctx_.metrics.value(ctx_.cc_handles.txn_retries);
    result.cc_txn_giveups =
        ctx_.metrics.value(ctx_.cc_handles.txn_giveups);
    result.cc_rollback_pages =
        ctx_.metrics.value(ctx_.cc_handles.rollback_pages);
    // Rate per *attempt*: committed transactions plus aborted attempts.
    const uint64_t attempts = result.transactions + result.cc_txn_aborts;
    result.cc_abort_rate =
        attempts == 0 ? 0.0
                      : static_cast<double>(result.cc_txn_aborts) /
                            static_cast<double>(attempts);
  }
  result.sim_duration_s = ctx_.sim.now() - start_time;
  result.achieved_rw_ratio =
      result.logical_writes == 0
          ? static_cast<double>(result.logical_reads)
          : static_cast<double>(result.logical_reads) /
                static_cast<double>(result.logical_writes);
  result.prefetch_issued = ctx_.metrics.value(ctx_.handles.prefetch_issued);
  result.prefetch_hits = ctx_.metrics.value(ctx_.handles.prefetch_hits);
  result.prefetch_wasted =
      ctx_.metrics.value(ctx_.handles.prefetch_wasted);
  result.db_objects = ctx_.graph->live_count();
  // Close the final epoch. If the warmup quota was never reached (tiny
  // smoke configs), start measurement now so the series still carries one
  // end-of-run sample.
  if (!measuring_) ctx_.sampler.StartMeasurement(ctx_.sim.now());
  ctx_.sampler.SampleFinal(ctx_.sim.now(),
                           static_cast<uint32_t>(current_epoch_));
  SyncComponentMetrics();
  result.metrics = ctx_.metrics.Snapshot();
  result.series = ctx_.sampler.series();
  if (ctx_.spans) {
    result.span_breakdown = ctx_.spans->Breakdown();
    // Exemplar span trees ride the ordinary trace path: replayed into the
    // ring at their historical timestamps before the cell is collected.
    if (ctx_.trace.enabled()) ctx_.spans->ExportExemplars(ctx_.trace);
  }
  if (ctx_.trace.enabled()) {
    obs::TraceCollector::Global().Collect(
        ctx_.config.cell_index,
        ctx_.config.clustering.Label() + "/" + ctx_.config.WorkloadLabel(),
        ctx_.trace);
  }
  return result;
}

}  // namespace oodb::core
