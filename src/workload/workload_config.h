#ifndef SEMCLUST_WORKLOAD_WORKLOAD_CONFIG_H_
#define SEMCLUST_WORKLOAD_WORKLOAD_CONFIG_H_

#include <array>
#include <cstdint>
#include <string>

#include "workload/query.h"

/// \file
/// Workload control parameters (Table 4.1, parameters F and G) plus the
/// session shape (5-20 transactions per session, paper §4.1).

namespace oodb::workload {

/// Structure density operating levels (parameter F). The level shapes the
/// configuration fan-out of the generated design database: low means every
/// structural retrieval returns <= 3 objects, medium 4..9, high >= 10.
enum class StructureDensity : uint8_t {
  kLow3 = 0,
  kMed5 = 1,
  kHigh10 = 2,
};

const char* StructureDensityName(StructureDensity d);

/// Every density level, in the paper's x-axis order. The experiment grids
/// and the policy registry iterate this list.
inline constexpr StructureDensity kAllStructureDensities[] = {
    StructureDensity::kLow3, StructureDensity::kMed5,
    StructureDensity::kHigh10};

/// Inclusive configuration fan-out range for a density level.
struct FanoutRange {
  int min_fanout = 1;
  int max_fanout = 3;
};

FanoutRange FanoutFor(StructureDensity d);

/// Complete workload description for one experiment cell.
struct WorkloadConfig {
  StructureDensity density = StructureDensity::kMed5;
  /// Parameter G: logical reads per logical write (5 / 10 / 100).
  double read_write_ratio = 10.0;
  /// Session shape (paper §4.1): 5-20 transactions per session.
  int session_min_txns = 5;
  int session_max_txns = 20;
  /// Mean think time between sessions' transactions (Table 4.1, E).
  double think_time_mean_s = 4.0;
  /// Skew of module popularity (Zipf theta in [0,1)): hot design modules.
  double module_skew = 0.6;
  /// Modules a session works across (the design being edited plus the
  /// library modules it references). Transactions pick the primary module
  /// with `primary_module_probability`, otherwise one of the secondaries.
  int session_module_count = 3;
  double primary_module_probability = 0.5;
  /// Relative mix of the six read query types, indexed by QueryType.
  std::array<double, 6> read_mix = {0.25, 0.20, 0.25, 0.10, 0.10, 0.10};
  /// Relative mix of write kinds, indexed by WriteKind.
  std::array<double, kNumWriteKinds> write_mix = {0.35, 0.25, 0.25, 0.10,
                                                  0.05};
  /// Probability that a structure write references an object in another
  /// (usually cold) module — a library-cell reference. These are the
  /// writes whose candidate pages are typically not resident.
  double cross_module_write_probability = 0.3;

  friend bool operator==(const WorkloadConfig&,
                         const WorkloadConfig&) = default;

  /// Paper-style cell label, e.g. "hi10-100" or "low3-5".
  std::string Label() const;
};

}  // namespace oodb::workload

#endif  // SEMCLUST_WORKLOAD_WORKLOAD_CONFIG_H_
