#ifndef SEMCLUST_CORE_MEASUREMENT_H_
#define SEMCLUST_CORE_MEASUREMENT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/run_result.h"
#include "core/server_context.h"
#include "core/txn_pipeline.h"
#include "sim/process.h"
#include "util/stats.h"

/// \file
/// Run control and statistics assembly: the closed queueing network of
/// user processes (think time + sessions, paper §4.1), the warmup /
/// measured-phase boundary, measurement epochs and the R/W-ratio
/// schedule, simulated-time telemetry sampling, the component-counter
/// metric mirror, and the final RunResult. Executes transactions through
/// a TxnPipeline; owns no simulation cost model of its own, so attaching
/// or detaching measurement can never change a simulated outcome.

namespace oodb::core {

class MeasurementController {
 public:
  /// Installs the telemetry pre-sample hook on the context's sampler (the
  /// hook re-syncs the mirrored component counters before each sample).
  MeasurementController(ServerContext& context, TxnPipeline& pipeline);

  MeasurementController(const MeasurementController&) = delete;
  MeasurementController& operator=(const MeasurementController&) = delete;

  /// Spawns the user processes, runs the simulation to completion, and
  /// assembles the collected statistics.
  RunResult Run();

 private:
  sim::Task UserLoop(int user);
  /// Open-arrival variant (ModelConfig::arrival == kOpen): one Poisson
  /// arrival process on the virtual clock spawns independent transactions
  /// at rate `arrival_rate_tps`, round-robining the generator streams, so
  /// concurrency is whatever the service times admit instead of being
  /// capped by `num_users` closed loops.
  sim::Task ArrivalLoop();
  /// One open arrival end to end: draws the next transaction of `user`'s
  /// stream (opening a fresh session when the previous one is spent) and
  /// executes it.
  sim::Task RunOneArrival(int user);
  /// Draws the next transaction of `gen`'s stream, executes it, feeds the
  /// generator its logical reads/writes and records its response time.
  /// The draw happens before the first await.
  sim::Task RunNextTransaction(workload::TransactionSource& gen);
  void OnTransactionDone(double response_s, workload::QueryType type);
  void ResetMeasurementCounters();
  /// Applies config.rw_ratio_schedule at an epoch boundary.
  void ApplyEpochSchedule(size_t epoch);
  /// Mirrors component counters (buffer/io/log/cluster/sim) into the
  /// metrics registry with set-semantics: values are absolute cumulative
  /// counts, so re-syncing at every telemetry sample and again at end of
  /// run is idempotent.
  void SyncComponentMetrics();

  ServerContext& ctx_;
  TxnPipeline& pipeline_;

  // Run state.
  bool measuring_ = false;
  bool done_ = false;
  uint64_t completed_txns_ = 0;
  StreamingStats response_time_;
  StreamingStats read_response_;
  StreamingStats write_response_;
  std::array<StreamingStats, workload::kNumQueryTypes> response_by_query_{};
  std::vector<StreamingStats> response_epochs_;
  size_t current_epoch_ = 0;
  uint64_t measured_txns_ = 0;
  // Remaining session length per generator stream under open arrivals
  // (sessions span arrivals; empty in closed-loop runs).
  std::vector<int> open_session_left_;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_MEASUREMENT_H_
