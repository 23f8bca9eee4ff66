#ifndef SEMCLUST_CORE_SCENARIO_H_
#define SEMCLUST_CORE_SCENARIO_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/model_config.h"
#include "util/status.h"

/// \file
/// Declarative experiment scenarios. A `.scenario.json` file names a base
/// ModelConfig (policies by their registry names — see
/// core/policy_registry.h) plus sweep axes; the loader expands the axes
/// into the same cell grid the hand-written bench binaries build, in the
/// same order, so a scenario run through `tools/semclust_run` regenerates
/// a bench's JSONL bit-identically.
///
/// Schema (all sections optional except "name"; unknown keys are errors):
///
///   {
///     "name": "fig5_1_fast",
///     "bench": "Figure 5.1",          // BenchReport label (default: name)
///     "description": "free text",
///     "config": {                     // overrides on ScaledConfig()
///       "database_bytes": 50331648, "page_size_bytes": 4096,
///       "append_fill_fraction": 0.8, "num_users": 10, "num_disks": 10,
///       "think_time_s": 4.0,
///       "buffer_pages": 94,           // or "buffer_level": "medium"
///       "replacement": "LRU", "prefetch": "No_prefetch",
///       "warmup_transactions": 100, "measured_transactions": 500,
///       "measurement_epochs": 1, "telemetry_interval_s": 0,
///       "telemetry_audit_placement": true,
///       "rw_ratio_schedule": [10, 100],
///       "static_reorganize_after_build": false, "seed": 1,
///       // the N-shard core (core/sharding.h); the shard_* knobs are
///       // only legal alongside an explicit "shards":
///       "shards": 4, "shard_placement": "Structure_Shard",
///       "shard_hop_latency_s": 0.002, "shard_group_cap": 64,
///       // the concurrency-control subsystem (src/cc/); the cc_* knobs
///       // are only legal alongside "enabled": true:
///       "concurrency": {"enabled": true, "cc_lock_timeout_s": 2.0,
///                       "cc_max_retries": 6, "cc_backoff_base_s": 0.05,
///                       "cc_backoff_cap_s": 2.0, "cc_page_latches": true},
///       // how transactions enter the system; "arrival_rate_tps" is only
///       // legal with "arrival": "Open":
///       "arrival": "Open", "arrival_rate_tps": 40,
///       "workload": {"density": "med5", "rw_ratio": 10},
///       // or the generic OCB workload (src/ocb/):
///       // "workload": {"kind": "ocb", "rw_ratio": 10, "classes": 24,
///       //              "instances": 4000, "refs_per_object": 3,
///       //              "locality": "zipf", "zipf_theta": 0.8,
///       //              "gaussian_window": 0.05, "base_object_bytes": 160,
///       //              "inheritance_fraction": 0.3, "partitions": 16,
///       //              "set_lookup_size": 8, "traversal_depth": 3,
///       //              "read_mix": [0.25, 0.35, 0.2, 0.2]},
///       "clustering": {"pool": "No_Clustering", "io_limit": 2,
///                      "split": "No_Splitting", "use_hints": false,
///                      "hint_kind": "configuration", "hint_boost": 3}
///     },
///     "sweep": {                      // each axis: empty/absent = base value
///       "clustering": "figure5_1",    // or an array of pool names/objects
///       "workload": "standard_grid",  // or [{"density": ..., "rw_ratio": ...}]
///       "replacement": ["LRU", "Context-sensitive"],
///       "prefetch": ["No_prefetch"],
///       "buffer_pages": [94, "large"],
///       "shards": [1, 2, 4, 8],
///       "shard_placement": ["Hash_Shard", "Structure_Shard"],
///       "users": [100, 1000, 2000]
///     }
///   }
///
/// Policy names resolve through PolicyRegistry::Global(), so every alias
/// the registry knows works in a scenario file, and error messages list
/// the canonical spellings. Integer knobs take exact integer text that
/// fits the field's type. Every expanded cell must pass
/// ModelConfig::Validate().
///
/// scenario.cc declares each section as one table of knob rows, which
/// drives parsing, ToJson, the known-key error and the kind gates. Adding
/// a knob takes three things: the config field, its range in that
/// config's Validate(), and one table row.

namespace oodb::core {

/// One expanded cell: a runnable config plus the labels a bench would
/// stamp on its JSONL record.
struct ScenarioCell {
  ModelConfig config;
  std::string cell_label;
  std::string policy;
  std::string workload;
};

/// One level of the workload sweep axis: the engineering workload's
/// density/ratio knobs plus the OCB section (`ocb.enabled` selects which
/// workload the cell runs; the R/W ratio lives in `oct.read_write_ratio`
/// either way).
struct WorkloadEntry {
  workload::WorkloadConfig oct;
  ocb::OcbConfig ocb;

  /// The cell's workload label (WorkloadConfig::Label or OcbConfig::Label).
  std::string Label() const;
};

/// A parsed scenario: base config + sweep axes.
struct ScenarioSpec {
  std::string name;
  std::string bench;  ///< BenchReport label; defaults to `name`
  std::string description;
  /// Base configuration every cell starts from (scenario "config" applied
  /// over ScaledConfig()).
  ModelConfig base;

  // Sweep axes. An empty axis means "the base config's value".
  std::vector<cluster::ClusterConfig> clustering;
  std::vector<WorkloadEntry> workloads;
  std::vector<buffer::ReplacementPolicy> replacement;
  std::vector<buffer::PrefetchPolicy> prefetch;
  std::vector<size_t> buffer_pages;
  std::vector<int> shards;
  std::vector<ShardPlacement> shard_placement;
  std::vector<int> users;

  /// Expands the axes into cells, outermost to innermost: users, shards,
  /// shard_placement, replacement, prefetch, buffer_pages, clustering,
  /// workload. With only the clustering and workload axes populated this
  /// is exactly the policy-major order of bench_common's
  /// RunClusteringGrid, and the labels match FillDefaultLabels (policy =
  /// clustering label, workload = workload label, cell =
  /// "policy/workload"). Multi-level sharding and buffering axes prefix
  /// the policy label (e.g. "2shard_Structure_Shard_...") so cell labels
  /// stay unique.
  std::vector<ScenarioCell> Expand() const;

  /// Canonical JSON serialization; ParseScenario(ToJson()) round-trips.
  std::string ToJson() const;
};

/// Parses one scenario document. Unknown keys, unresolvable policy names,
/// inexact integers, and a base config or expanded cell failing
/// ModelConfig::Validate() all return InvalidArgument with an actionable
/// message naming the field or cell.
StatusOr<ScenarioSpec> ParseScenario(std::string_view json_text);

/// Reads `path` and parses it.
StatusOr<ScenarioSpec> LoadScenarioFile(const std::string& path);

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_SCENARIO_H_
