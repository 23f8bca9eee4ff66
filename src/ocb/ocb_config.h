#ifndef SEMCLUST_OCB_OCB_CONFIG_H_
#define SEMCLUST_OCB_OCB_CONFIG_H_

#include <array>
#include <cstdint>
#include <string>

#include "util/status.h"

/// \file
/// Configuration of the OCB workload subsystem: a second, *generic*
/// object-graph benchmark in the spirit of OCB (Darmont, Petit &
/// Schneider, "OCB: A Generic Benchmark to Evaluate the Performances of
/// Object-Oriented Database Systems"). Unlike the paper's
/// engineering-design workload — whose structure semantics (modules,
/// versions, correspondences) are exactly what the clustering policies
/// were designed for — OCB generates an arbitrary typed object graph with
/// tunable reference locality, so policy rankings can be checked on a
/// workload the policies were *not* tailored to.

namespace oodb::ocb {

/// Distribution of reference targets in the generated instance graph.
enum class RefLocality : uint8_t {
  kUniform = 0,   ///< any object, uniformly
  kGaussian = 1,  ///< near the referencing object in creation order
  kZipf = 2,      ///< globally popular "hot" objects (low creation index)
};
inline constexpr int kNumRefLocalities = 3;

/// Short display name ("uniform", "gaussian", "zipf").
const char* RefLocalityName(RefLocality l);

/// Every locality, in enum order (for sweeps).
inline constexpr RefLocality kAllRefLocalities[] = {
    RefLocality::kUniform, RefLocality::kGaussian, RefLocality::kZipf};

/// Knobs of the OCB database generator and transaction set. Defaults are a
/// small instance of OCB's default parameterisation, scaled to this
/// simulator's page-sized world.
struct OcbConfig {
  /// Master switch: when false, the model runs the engineering-design
  /// workload and every other field is ignored.
  bool enabled = false;

  /// Classes in the generated hierarchy (OCB: NC).
  int classes = 24;
  /// Maximum depth of the class-inheritance tree (OCB: CLOCREF depth).
  int hierarchy_depth = 4;
  /// Instances in the generated graph (OCB: NO).
  int instances = 4000;
  /// Outgoing references created per instance (OCB: MAXNREF).
  int refs_per_object = 3;

  /// How reference targets are chosen.
  RefLocality locality = RefLocality::kUniform;
  /// Skew of kZipf reference popularity, in [0, 1).
  double zipf_theta = 0.8;
  /// Stddev of the kGaussian reference offset, as a fraction of the
  /// instance count.
  double gaussian_window = 0.05;

  /// Mean instance size in bytes (class base sizes jitter around it).
  uint32_t base_object_bytes = 160;
  /// Probability that an instance of a subclass carries an
  /// instance-inheritance link to an earlier instance of its superclass.
  double inheritance_fraction = 0.3;
  /// Probability that each load step is accompanied by a concurrent read
  /// of a random existing page (keeps buffer pressure realistic during
  /// generation; see DatabaseSpec::interleaved_read_probability).
  double interleaved_read_probability = 0.8;

  /// Catalogue partitions: contiguous creation-order chunks that play the
  /// role of the engineering workload's design modules (session working
  /// sets, write targets).
  int partitions = 16;
  /// Instances fetched by one set-oriented lookup.
  int set_lookup_size = 8;
  /// Depth bound of the traversal operations.
  int traversal_depth = 3;
  /// Relative mix of the four OCB read operations, in QueryType order:
  /// {set lookup, simple traversal, hierarchy traversal, stochastic}.
  std::array<double, 4> read_mix = {0.25, 0.35, 0.20, 0.20};

  // -- Structural-churn phase (ages the placement over time). --
  /// Probability that a write transaction opens a churn burst (0 disables
  /// churn entirely; the generator then draws no churn randomness at all,
  /// keeping pre-churn runs byte-identical).
  double churn_probability = 0.0;
  /// Writes per churn burst, cycling delete -> insert -> re-reference.
  int churn_burst_length = 6;
  /// Probability that a churn re-reference links across partitions (the
  /// co-location ager: cross-partition edges start un-co-located and pull
  /// future traversals off the original placement).
  double churn_cross_partition = 0.9;

  friend bool operator==(const OcbConfig&, const OcbConfig&) = default;

  bool churn_enabled() const { return enabled && churn_probability > 0.0; }

  /// Workload-cell label, e.g. "ocb-zipf3-10" (locality, refs/object,
  /// read/write ratio) — the OCB counterpart of WorkloadConfig::Label().
  std::string Label(double read_write_ratio) const;

  /// Validates the knobs (when enabled), with actionable messages.
  Status Validate() const;
};

}  // namespace oodb::ocb

#endif  // SEMCLUST_OCB_OCB_CONFIG_H_
