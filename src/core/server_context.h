#ifndef SEMCLUST_CORE_SERVER_CONTEXT_H_
#define SEMCLUST_CORE_SERVER_CONTEXT_H_

#include <memory>
#include <vector>

#include "buffer/prefetcher.h"
#include "cc/lock_manager.h"
#include "cluster/cluster_manager.h"
#include "core/model_config.h"
#include "core/sharding.h"
#include "dyn/access_tracker.h"
#include "dyn/recluster_policy.h"
#include "dyn/reorganizer.h"
#include "objmodel/inheritance.h"
#include "objmodel/object_graph.h"
#include "obs/metrics.h"
#include "ocb/ocb_builder.h"
#include "obs/placement_auditor.h"
#include "obs/span_profiler.h"
#include "obs/time_series.h"
#include "obs/trace_sink.h"
#include "sim/simulator.h"
#include "storage/storage_manager.h"
#include "workload/transaction_source.h"
#include "workload/workload_gen.h"

/// \file
/// Pure component wiring for one simulated server (paper §4, Figure
/// 4.1/4.2): the simulator, the object graph and storage, the buffer
/// pool, cluster manager, I/O subsystem, transaction log, CPU, the
/// generated design database, and the observability attachments — built
/// and connected in one place, with no transaction or measurement logic.
/// TxnPipeline executes transactions against this context; the
/// MeasurementController drives the run and assembles the RunResult.

namespace oodb::core {

/// Hot-path metric handles of the core model, resolved once at wiring
/// time (registration order is part of the snapshot layout and must stay
/// stable).
struct CoreMetricHandles {
  obs::CounterHandle txns;
  obs::CounterHandle prefetch_issued;
  obs::CounterHandle prefetch_hits;
  obs::CounterHandle prefetch_wasted;
  obs::HistogramHandle response_s;
};

/// Metric handles of the dynamic re-clustering subsystem, registered only
/// when a DSTC/OPCF policy is enabled — a disabled run registers nothing,
/// keeping its snapshot layout (and every committed baseline) unchanged.
struct DynMetricHandles {
  obs::CounterHandle triggers;        ///< consolidations that produced units
  obs::CounterHandle units;           ///< clustering units enqueued
  obs::CounterHandle objects_moved;   ///< objects relocated by reorgs
  obs::CounterHandle reorg_reads;     ///< page reads charged to reorgs
  obs::CounterHandle deferral_events; ///< OPCF watermark-crossing deferrals
  obs::GaugeHandle deferral_time_s;   ///< total simulated deferral time
  obs::GaugeHandle queue_depth_peak;  ///< deepest disk queue seen at drains
};

/// Metric handles of the concurrency-control subsystem (src/cc/),
/// registered only when `ModelConfig::cc.enabled` — a disabled run
/// registers nothing, keeping every committed snapshot layout unchanged.
struct CcMetricHandles {
  obs::CounterHandle txn_aborts;      ///< deadlock-timeout aborts
  obs::CounterHandle txn_retries;     ///< aborted attempts re-entered
  obs::CounterHandle txn_giveups;     ///< transactions out of retries
  obs::CounterHandle rollback_pages;  ///< pages undone by rollbacks
  obs::HistogramHandle lock_wait_s;   ///< per-acquisition lock-queue wait
  obs::HistogramHandle latch_wait_s;  ///< per-fix page-latch wait
};

/// One fully wired (but not yet running) simulated server. Members are
/// deliberately public: this is the wiring layer the execution and
/// measurement layers build on, not an encapsulation boundary. The
/// constructor validates the configuration (aborting with an actionable
/// message on a bad config), builds the database through the clustering
/// policy under test, optionally runs the offline static reorganisation,
/// and attaches observability — exactly the construction sequence the
/// monolithic EngineeringDbModel used to perform.
class ServerContext {
 public:
  explicit ServerContext(ModelConfig model_config);
  ~ServerContext();

  ServerContext(const ServerContext&) = delete;
  ServerContext& operator=(const ServerContext&) = delete;

  ModelConfig config;
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  obs::TraceSink trace;
  obs::TimeSeriesSampler sampler;
  std::unique_ptr<obs::PlacementAuditor> auditor;

  obj::TypeLattice lattice;
  workload::CadTypes types{};
  std::unique_ptr<obj::ObjectGraph> graph;
  std::unique_ptr<cluster::AffinityModel> affinity;
  /// Shard 0's storage: the build-time store, which holds every object
  /// until the shard layer partitions them. Non-owning — `shards` owns
  /// every shard's components.
  store::StorageManager* storage = nullptr;
  workload::DesignDatabase db;
  /// Extents and inheritance entry points of the OCB graph; null unless
  /// `config.ocb.enabled` (its DesignDatabase part is moved into `db`).
  std::unique_ptr<ocb::OcbCatalog> ocb_catalog;
  /// One transaction stream per user: WorkloadGenerator instances for the
  /// engineering-design workload, OcbGenerator instances under OCB.
  std::vector<std::unique_ptr<workload::TransactionSource>> generators;
  obj::InheritanceCostModel inherit_model;

  /// Dynamic re-clustering machinery (src/dyn/); all null unless
  /// `config.clustering.dynamic` enables a policy, in which case the run
  /// is byte-identical to a build without the subsystem.
  std::unique_ptr<dyn::AccessTracker> dyn_tracker;
  std::unique_ptr<dyn::ReclusterPolicy> dyn_policy;
  std::unique_ptr<dyn::Reorganizer> dyn_reorganizer;

  /// Per-transaction critical-path profiler (DESIGN.md §14); null unless
  /// `config.profile_spans`, in which case a run is bit-identical to a
  /// build without the subsystem.
  std::unique_ptr<obs::SpanProfiler> spans;

  /// Strict-2PL lock manager (src/cc/, DESIGN.md §16); null unless
  /// `config.cc.enabled` — the pipeline's lock/latch/retry paths all key
  /// off this pointer, so a disabled run constructs nothing, registers no
  /// metrics, and draws no random numbers.
  std::unique_ptr<cc::LockManager> locks;

  /// Every shard's component set plus the placement layer (DESIGN.md
  /// §15). Always constructed (last, after the database build and static
  /// reorganisation, so placement sees the final graph); with
  /// `config.shards == 1` it holds shard 0 alone and the run is
  /// bit-identical to the pre-sharding model.
  std::unique_ptr<ShardedContext> shards;

  CoreMetricHandles handles;
  DynMetricHandles dyn_handles;
  CcMetricHandles cc_handles;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_SERVER_CONTEXT_H_
