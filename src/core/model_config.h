#ifndef SEMCLUST_CORE_MODEL_CONFIG_H_
#define SEMCLUST_CORE_MODEL_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/policy.h"
#include "cc/cc_config.h"
#include "cluster/policy.h"
#include "core/sharding.h"
#include "io/io_subsystem.h"
#include "ocb/ocb_config.h"
#include "util/status.h"
#include "workload/db_builder.h"
#include "workload/workload_config.h"

/// \file
/// The full simulation configuration: Table 4.1's static parameters (A-E)
/// and control parameters (F-M), plus the CPU/disk cost model and run
/// control. Defaults are the *scaled* configuration: the database and
/// buffer pool shrink together (same buffer:DB ratio as the paper's
/// 1000 x 4 KB buffers against 500 MB), which preserves every response-time
/// ratio the evaluation reports while keeping runs laptop-fast. Pass
/// `PaperScaleConfig()` for the full-size database.

namespace oodb::core {

/// How transactions enter the system (ModelConfig::arrival).
enum class ArrivalProcess : uint8_t {
  kClosed = 0,  ///< num_users think/submit loops (the paper's model)
  kOpen,        ///< Poisson arrivals at arrival_rate_tps, load-independent
};

const char* ArrivalProcessName(ArrivalProcess a);

/// Everything one simulation run needs.
struct ModelConfig {
  // ---- Static parameters (Table 4.1, A-E), scaled by default. ----
  /// A: database size, expressed as total object bytes to create.
  uint64_t database_bytes = 48ull << 20;  // 48 MB scaled (paper: 500 MB)
  /// B: page size.
  uint32_t page_size_bytes = 4096;
  /// Fill-factor reserve for arrival-order appends: an append opens a new
  /// page beyond this fraction, leaving headroom that directed
  /// (clustering) placements may use later. Applies to every policy.
  double append_fill_fraction = 0.8;
  /// C: number of interactive users.
  int num_users = 10;
  /// D: number of disks.
  int num_disks = 10;
  /// E: mean think time between transactions (exponential).
  double think_time_s = 4.0;

  // ---- Control parameters (Table 4.1, F-M). ----
  /// F (structure density) and G (read/write ratio) live here.
  workload::WorkloadConfig workload;
  /// H (clustering policy), I (page splitting), J (user hints).
  cluster::ClusterConfig clustering;
  /// K: buffer replacement policy.
  buffer::ReplacementPolicy replacement = buffer::ReplacementPolicy::kLru;
  /// L: buffer pool size in pages. Paper levels 100/1000/10000 against
  /// 128 K pages correspond to kBufferSmall/Medium/Large below at the
  /// scaled database size.
  size_t buffer_pages = 128;
  /// M: prefetch policy.
  buffer::PrefetchPolicy prefetch = buffer::PrefetchPolicy::kNone;

  // ---- Database generation knobs (beyond A and F). ----
  workload::DatabaseSpec database;

  // ---- Alternate workload: the generic OCB benchmark (src/ocb/). ----
  /// When `ocb.enabled`, the model builds the OCB object graph instead of
  /// the engineering-design database and drives the OCB transaction set;
  /// `workload.read_write_ratio` (G) still sets the target R/W ratio, and
  /// all other Table 4.1 axes apply unchanged.
  ocb::OcbConfig ocb;

  // ---- Sharding (core/sharding.h). ----
  /// Number of shards the simulated system is split into. 1 (the default)
  /// is the single-server model, bit-identical to the pre-sharding core;
  /// N > 1 builds N full component sets (buffer pool, disks, log, cluster
  /// manager, CPU, NIC) on the shared virtual clock and partitions the
  /// object graph across them by `shard_placement`.
  int shards = 1;
  /// How objects map onto shards when `shards > 1`.
  ShardPlacement shard_placement = ShardPlacement::kHashShard;
  /// One-way network hop latency of a cross-shard reference; a remote
  /// page fetch pays two (request + response), metered as the span phase
  /// `remote_fetch_wait`. Default 2 ms: a late-80s LAN round trip of
  /// ~4 ms, comparable to one disk access of the period's cost model.
  double shard_hop_latency_s = 0.002;
  /// Structure_Shard group bound: a composite subgraph grows to at most
  /// this many objects before the next seed starts a new group. Bounds
  /// skew (a giant connected component cannot swallow one shard).
  int shard_group_cap = 64;

  // ---- Concurrency control (src/cc/). ----
  /// When `cc.enabled`, a strict-2PL LockManager is built on the shared
  /// virtual clock: every pipeline primitive acquires object locks,
  /// deadlocks resolve by deterministic wait-timeout abort + jittered
  /// exponential-backoff retry, and page latches serialise the buffer-fix
  /// path. Disabled (the default) constructs nothing, registers no
  /// metrics, draws no random numbers — bit-identical to pre-cc builds.
  cc::CcConfig cc;

  // ---- Arrival process. ----
  /// How transactions arrive. kClosed is the paper's interactive model:
  /// `num_users` loops of think -> submit -> wait. kOpen submits
  /// transactions at Poisson arrivals of rate `arrival_rate_tps`
  /// independent of completions, so response times can grow without
  /// throttling arrivals — the regime where contention curves saturate.
  ArrivalProcess arrival = ArrivalProcess::kClosed;
  /// Mean open-arrival rate, transactions per simulated second. Only read
  /// when `arrival == kOpen`.
  double arrival_rate_tps = 10.0;

  // ---- Cost model. ----
  io::DiskParams disk;
  /// Server CPU speed (a late-80s server; only ratios matter).
  double cpu_mips = 4.0;
  /// Instruction path lengths (paper §4.1 models per-call path lengths).
  double logical_op_instructions = 2500;
  double physical_io_instructions = 1500;
  double cluster_decision_instructions = 2500;
  double split_linear_instructions = 5000;
  double split_exhaustive_instructions = 60000;
  uint32_t log_buffer_bytes = 64u << 10;
  bool force_log_at_commit = false;

  // ---- Run control. ----
  /// Transactions executed before counters reset.
  int warmup_transactions = 400;
  /// Transactions measured after warmup.
  int measured_transactions = 2500;
  /// Split the measured phase into this many equal epochs; RunResult then
  /// reports response time per epoch (layout-decay studies).
  int measurement_epochs = 1;
  /// Simulated seconds between telemetry samples during the measured
  /// phase (DESIGN.md §9). 0 disables interval sampling; epoch-boundary
  /// samples (one per measurement epoch, including the final end-of-run
  /// sample) are always taken.
  double telemetry_interval_s = 0;
  /// Attach a PlacementAuditor to the telemetry sampler: every sample
  /// then carries clustering-quality metrics (edge co-location, page
  /// occupancy, fragmentation). Reads model state only; never changes a
  /// simulated outcome.
  bool telemetry_audit_placement = true;
  /// When non-empty, the target read/write ratio is switched at each
  /// measurement-epoch boundary to the scheduled value (entry i applies
  /// to epoch i; the last entry applies from then on). Models one
  /// application's phases (paper §3.3: MOSAICO spans R/W 0.52..170 in a
  /// single run).
  std::vector<double> rw_ratio_schedule;
  /// Run the offline StaticClusterer once after the database is built
  /// (the paper's quiesce-and-reorganise alternative to run-time
  /// clustering).
  bool static_reorganize_after_build = false;
  /// Build the per-transaction span profiler (DESIGN.md §14): every tick
  /// of response time is attributed to an additive phase taxonomy,
  /// per-(kind, phase) metrics are registered, RunResult carries a
  /// breakdown, and bench JSONL gains a "breakdown" section. Off by
  /// default: a disabled run constructs nothing and is bit-identical to
  /// a build without the profiler.
  bool profile_spans = false;
  /// Slow-transaction exemplar reservoir size per cell (full span trees,
  /// exported through the trace path). Only meaningful with
  /// `profile_spans`; 0 disables exemplar capture.
  int span_exemplars = 3;
  uint64_t seed = 1;
  /// Position of this cell within its batch (stamped by
  /// exec::ExperimentRunner). Purely observational: it becomes the pid of
  /// the cell's track in an exported trace and never influences the
  /// simulation itself.
  int cell_index = 0;

  /// Field by field, every knob included.
  friend bool operator==(const ModelConfig&, const ModelConfig&) = default;

  /// Buffer-pool operating levels at the scaled database size, preserving
  /// the paper's buffer:database ratios (100/1000/10000 : 128 K pages).
  size_t BufferSmall() const { return ScaledBuffers(100); }
  size_t BufferMedium() const { return ScaledBuffers(1000); }
  size_t BufferLarge() const { return ScaledBuffers(10000); }

  size_t ScaledBuffers(size_t paper_buffers) const {
    // Degenerate sizes would divide by zero (page_size_bytes == 0) or
    // scale everything to zero (database_bytes == 0); both land on the
    // 8-page floor the clamp below enforces anyway.
    if (page_size_bytes == 0 || database_bytes == 0) return 8;
    // paper: 500 MB / 4 KB = 131072 pages.
    const double ratio = static_cast<double>(paper_buffers) / 131072.0;
    const double db_pages = static_cast<double>(database_bytes) /
                            static_cast<double>(page_size_bytes);
    const auto scaled = static_cast<size_t>(ratio * db_pages + 0.5);
    return scaled < 8 ? 8 : scaled;
  }

  /// Checks the configuration for values that would make the simulation
  /// hang, divide by zero, or silently produce nonsense. Returns OK or an
  /// InvalidArgument status whose message names the offending field, the
  /// value it had, and what it must satisfy. Called by the
  /// EngineeringDbModel constructor (which aborts on failure — a bad
  /// config is a programming error there) and by the scenario loader
  /// (which propagates the status to the CLI).
  Status Validate() const;

  /// Label of the configured workload cell: the engineering workload's
  /// density/ratio label, or the OCB label when `ocb.enabled`.
  std::string WorkloadLabel() const;
};

/// The paper's full-scale configuration (500 MB database, 1000 buffers).
/// Slow: intended for spot validation, not the bench suite.
ModelConfig PaperScaleConfig();

/// The default scaled configuration used by the benchmarks.
ModelConfig ScaledConfig();

/// A fast configuration for unit/integration tests.
ModelConfig TestConfig();

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_MODEL_CONFIG_H_
