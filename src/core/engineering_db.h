#ifndef SEMCLUST_CORE_ENGINEERING_DB_H_
#define SEMCLUST_CORE_ENGINEERING_DB_H_

#include "core/measurement.h"
#include "core/model_config.h"
#include "core/run_result.h"
#include "core/server_context.h"
#include "core/txn_pipeline.h"

/// \file
/// The engineering-database simulation model (paper §4, Figure 4.1/4.2):
/// a closed queueing network of workstations (users with think times)
/// submitting transactions to a server whose buffer manager, cluster
/// manager, transaction log, CPU, and disks are fully modelled. This is
/// the PAWS model re-expressed on the `sim` engine.
///
/// The model is three composable layers behind one facade (DESIGN.md §10):
///   - ServerContext    — pure component wiring (core/server_context.h)
///   - TxnPipeline      — the coroutine read/write/recluster primitives
///                        and the cost model (core/txn_pipeline.h)
///   - MeasurementController — warmup/epochs/telemetry and RunResult
///                        assembly (core/measurement.h)
/// EngineeringDbModel wires the three together and preserves the original
/// construct-then-Run() API for tests, examples, benches, and the OCT
/// instrumentation.

namespace oodb::core {

/// One fully wired simulation instance. Construct, call Run() once.
class EngineeringDbModel {
 public:
  explicit EngineeringDbModel(ModelConfig config);
  ~EngineeringDbModel();

  EngineeringDbModel(const EngineeringDbModel&) = delete;
  EngineeringDbModel& operator=(const EngineeringDbModel&) = delete;

  /// Builds the database under the configured clustering policy, runs the
  /// warmup and measured phases, and returns the collected statistics.
  RunResult Run();

  // Component access (examples, tests, and the OCT instrumentation).
  const obj::ObjectGraph& graph() const { return *ctx_.graph; }
  // Shard 0's components: the whole server when unsharded.
  const store::StorageManager& storage() const { return *ctx_.storage; }
  const buffer::BufferPool& buffer() const { return *shard0().buffer; }
  const io::IoSubsystem& io() const { return *shard0().io; }
  const txlog::LogManager& log() const { return *shard0().log; }
  const cluster::ClusterManager& cluster() const {
    return *shard0().cluster;
  }
  const workload::DesignDatabase& database() const { return ctx_.db; }
  const ModelConfig& config() const { return ctx_.config; }
  const obs::MetricsRegistry& metrics() const { return ctx_.metrics; }
  const obs::TraceSink& trace() const { return ctx_.trace; }

  /// The wiring layer itself, for callers composing their own pipelines.
  const ServerContext& context() const { return ctx_; }
  ServerContext& context() { return ctx_; }

 private:
  const Shard& shard0() const { return ctx_.shards->shard(0); }

  ServerContext ctx_;
  TxnPipeline pipeline_;
  MeasurementController measurement_;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_ENGINEERING_DB_H_
