#ifndef SEMCLUST_CLUSTER_POLICY_H_
#define SEMCLUST_CLUSTER_POLICY_H_

#include <cstdint>
#include <string>

#include "dyn/dyn_config.h"
#include "objmodel/object_id.h"

/// \file
/// Clustering control parameters (Table 4.1, parameters H, I, J): the
/// candidate-page pool, the page-splitting policy, and the user-hint
/// policy.

namespace oodb::cluster {

/// Candidate-page pool for object placement (Table 4.1, parameter H, with
/// the I/O-limit operating levels folded in as in Figure 5.1).
enum class CandidatePool : uint8_t {
  kNoClustering = 0,  ///< arrival-order append placement
  kWithinBuffer = 1,  ///< only pages resident in the buffer pool
  kIoLimit = 2,       ///< resident pages plus up to `io_limit` disk exams
  kWithinDb = 3,      ///< the whole database (unlimited exam I/O)
};

const char* CandidatePoolName(CandidatePool p);

/// Every candidate-pool level, in enum order. The policy registry
/// iterates this list, so extending the axis here (with its Name case)
/// makes the new level resolvable by name everywhere at once.
inline constexpr CandidatePool kAllCandidatePools[] = {
    CandidatePool::kNoClustering, CandidatePool::kWithinBuffer,
    CandidatePool::kIoLimit, CandidatePool::kWithinDb};

/// Page-splitting policy on candidate-page overflow (parameter I).
enum class SplitPolicy : uint8_t {
  kNoSplit = 0,     ///< take the next-best candidate page instead
  kLinearGreedy = 1,  ///< single-pass greedy partition (the paper's choice)
  kExhaustive = 2,    ///< exact minimum-broken-cost partition ("NP split")
};

const char* SplitPolicyName(SplitPolicy p);

/// Every split level, in enum order (see kAllCandidatePools).
inline constexpr SplitPolicy kAllSplitPolicies[] = {
    SplitPolicy::kNoSplit, SplitPolicy::kLinearGreedy,
    SplitPolicy::kExhaustive};

/// Full clustering configuration.
struct ClusterConfig {
  CandidatePool pool = CandidatePool::kNoClustering;
  /// Max candidate pages examined with disk I/O (kIoLimit pool only).
  int io_limit = 2;
  SplitPolicy split = SplitPolicy::kNoSplit;
  /// User-hint policy (parameter J): when true, edges of `hint_kind` get
  /// `hint_boost` times their weight during placement scoring.
  bool use_hints = false;
  obj::RelKind hint_kind = obj::RelKind::kConfiguration;
  double hint_boost = 3.0;
  /// Minimum affinity-score gain before an updated object is relocated.
  double recluster_gain_threshold = 1.0;
  /// Fixed cost penalty charged against a page split in the split-vs-next-
  /// candidate comparison (stands for the extra flush I/O + log record).
  double split_cost_penalty = 0.25;

  // -- Reproduction design choices (ablation knobs; both default on). --
  /// Score the pages of configuration *siblings* as candidates too (they
  /// are co-referenced whenever the shared composite's components are
  /// retrieved). Without this, a component's only candidate is its
  /// composite's page.
  bool sibling_candidates = true;
  /// When every examined candidate is full (and splitting is not chosen),
  /// seed a fresh page instead of appending into the shared arrival-order
  /// stream.
  bool fresh_page_on_overflow = true;

  /// Dynamic re-clustering policy layered on top of write-time placement
  /// (src/dyn/: DSTC / OPCF). Inert by default; rides the clustering sweep
  /// axis so scenarios and grids cover it declaratively.
  dyn::DynConfig dynamic{};

  friend bool operator==(const ClusterConfig&, const ClusterConfig&) = default;

  /// "Cluster_within_Buffer", "2_IO_limit", "No_limit", ... as the paper
  /// labels its x-axes, plus a "+DSTC" / "+OPCF" suffix when a dynamic
  /// re-clustering policy is layered on.
  std::string Label() const;
};

}  // namespace oodb::cluster

#endif  // SEMCLUST_CLUSTER_POLICY_H_
