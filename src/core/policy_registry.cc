#include "core/policy_registry.h"

#include <cctype>

#include "util/check.h"

namespace oodb::core {

namespace {

/// Lookup normalization: lowercase, '-' and ' ' fold to '_'.
std::string Normalize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == ' ') {
      out += '_';
    } else {
      out += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

/// Each policy family self-registers its levels under the canonical
/// `*Name()` strings — the single source of naming truth — plus short
/// aliases for hand-written scenario files.

void RegisterReplacementPolicies(PolicyRegistry& reg) {
  using buffer::ReplacementPolicy;
  for (ReplacementPolicy p : buffer::kAllReplacementPolicies) {
    reg.Register(PolicyAxis::kReplacement, buffer::ReplacementPolicyName(p),
                 static_cast<int>(p));
  }
  reg.Register(PolicyAxis::kReplacement, "context",
               static_cast<int>(ReplacementPolicy::kContextSensitive));
}

void RegisterPrefetchPolicies(PolicyRegistry& reg) {
  using buffer::PrefetchPolicy;
  for (PrefetchPolicy p : buffer::kAllPrefetchPolicies) {
    reg.Register(PolicyAxis::kPrefetch, buffer::PrefetchPolicyName(p),
                 static_cast<int>(p));
  }
  // The paper's figure-label shorthand (Fig 5.11's no_p / p_buff / p_DB).
  reg.Register(PolicyAxis::kPrefetch, "none",
               static_cast<int>(PrefetchPolicy::kNone));
  reg.Register(PolicyAxis::kPrefetch, "no_p",
               static_cast<int>(PrefetchPolicy::kNone));
  reg.Register(PolicyAxis::kPrefetch, "p_buff",
               static_cast<int>(PrefetchPolicy::kWithinBuffer));
  reg.Register(PolicyAxis::kPrefetch, "p_DB",
               static_cast<int>(PrefetchPolicy::kWithinDb));
}

void RegisterCandidatePools(PolicyRegistry& reg) {
  using cluster::CandidatePool;
  for (CandidatePool p : cluster::kAllCandidatePools) {
    reg.Register(PolicyAxis::kCandidatePool, cluster::CandidatePoolName(p),
                 static_cast<int>(p));
  }
  reg.Register(PolicyAxis::kCandidatePool, "none",
               static_cast<int>(CandidatePool::kNoClustering));
  reg.Register(PolicyAxis::kCandidatePool, "io_limit",
               static_cast<int>(CandidatePool::kIoLimit));
}

void RegisterSplitPolicies(PolicyRegistry& reg) {
  using cluster::SplitPolicy;
  for (SplitPolicy p : cluster::kAllSplitPolicies) {
    reg.Register(PolicyAxis::kSplit, cluster::SplitPolicyName(p),
                 static_cast<int>(p));
  }
  reg.Register(PolicyAxis::kSplit, "none",
               static_cast<int>(SplitPolicy::kNoSplit));
  reg.Register(PolicyAxis::kSplit, "linear",
               static_cast<int>(SplitPolicy::kLinearGreedy));
  reg.Register(PolicyAxis::kSplit, "exhaustive",
               static_cast<int>(SplitPolicy::kExhaustive));
}

void RegisterDensities(PolicyRegistry& reg) {
  using workload::StructureDensity;
  for (StructureDensity d : workload::kAllStructureDensities) {
    reg.Register(PolicyAxis::kDensity, workload::StructureDensityName(d),
                 static_cast<int>(d));
  }
  reg.Register(PolicyAxis::kDensity, "low",
               static_cast<int>(StructureDensity::kLow3));
  reg.Register(PolicyAxis::kDensity, "med",
               static_cast<int>(StructureDensity::kMed5));
  reg.Register(PolicyAxis::kDensity, "medium",
               static_cast<int>(StructureDensity::kMed5));
  reg.Register(PolicyAxis::kDensity, "high",
               static_cast<int>(StructureDensity::kHigh10));
  reg.Register(PolicyAxis::kDensity, "high10",
               static_cast<int>(StructureDensity::kHigh10));
}

void RegisterRelKinds(PolicyRegistry& reg) {
  for (obj::RelKind k : obj::kAllRelKinds) {
    reg.Register(PolicyAxis::kRelKind, obj::RelKindName(k),
                 static_cast<int>(k));
  }
}

void RegisterOcbLocalities(PolicyRegistry& reg) {
  using ocb::RefLocality;
  for (RefLocality l : ocb::kAllRefLocalities) {
    reg.Register(PolicyAxis::kOcbLocality, ocb::RefLocalityName(l),
                 static_cast<int>(l));
  }
  reg.Register(PolicyAxis::kOcbLocality, "uni",
               static_cast<int>(RefLocality::kUniform));
  reg.Register(PolicyAxis::kOcbLocality, "gauss",
               static_cast<int>(RefLocality::kGaussian));
  reg.Register(PolicyAxis::kOcbLocality, "normal",
               static_cast<int>(RefLocality::kGaussian));
  reg.Register(PolicyAxis::kOcbLocality, "zipfian",
               static_cast<int>(RefLocality::kZipf));
}

void RegisterDynamicPolicies(PolicyRegistry& reg) {
  using dyn::PolicyKind;
  for (PolicyKind p : dyn::kAllPolicyKinds) {
    reg.Register(PolicyAxis::kDynamic, dyn::PolicyKindName(p),
                 static_cast<int>(p));
  }
  reg.Register(PolicyAxis::kDynamic, "none",
               static_cast<int>(PolicyKind::kNone));
  reg.Register(PolicyAxis::kDynamic, "off",
               static_cast<int>(PolicyKind::kNone));
  reg.Register(PolicyAxis::kDynamic, "static",
               static_cast<int>(PolicyKind::kNone));
  reg.Register(PolicyAxis::kDynamic, "dstc_dynamic",
               static_cast<int>(PolicyKind::kDstc));
  reg.Register(PolicyAxis::kDynamic, "opportunistic",
               static_cast<int>(PolicyKind::kOpcf));
}

void RegisterShardPlacements(PolicyRegistry& reg) {
  for (ShardPlacement p : kAllShardPlacements) {
    reg.Register(PolicyAxis::kShardPlacement, ShardPlacementName(p),
                 static_cast<int>(p));
  }
  reg.Register(PolicyAxis::kShardPlacement, "hash",
               static_cast<int>(ShardPlacement::kHashShard));
  reg.Register(PolicyAxis::kShardPlacement, "structure",
               static_cast<int>(ShardPlacement::kStructureShard));
}

void RegisterArrivalProcesses(PolicyRegistry& reg) {
  reg.Register(PolicyAxis::kArrival,
               ArrivalProcessName(ArrivalProcess::kClosed),
               static_cast<int>(ArrivalProcess::kClosed));
  reg.Register(PolicyAxis::kArrival,
               ArrivalProcessName(ArrivalProcess::kOpen),
               static_cast<int>(ArrivalProcess::kOpen));
  reg.Register(PolicyAxis::kArrival, "closed_loop",
               static_cast<int>(ArrivalProcess::kClosed));
  reg.Register(PolicyAxis::kArrival, "poisson",
               static_cast<int>(ArrivalProcess::kOpen));
}

}  // namespace

const char* PolicyAxisName(PolicyAxis axis) {
  switch (axis) {
    case PolicyAxis::kReplacement:
      return "replacement";
    case PolicyAxis::kPrefetch:
      return "prefetch";
    case PolicyAxis::kCandidatePool:
      return "clustering pool";
    case PolicyAxis::kSplit:
      return "split";
    case PolicyAxis::kDensity:
      return "density";
    case PolicyAxis::kRelKind:
      return "relationship";
    case PolicyAxis::kOcbLocality:
      return "ocb locality";
    case PolicyAxis::kDynamic:
      return "dynamic clustering";
    case PolicyAxis::kShardPlacement:
      return "shard placement";
    case PolicyAxis::kArrival:
      return "arrival process";
  }
  return "unknown";
}

PolicyRegistry::PolicyRegistry() {
  RegisterReplacementPolicies(*this);
  RegisterPrefetchPolicies(*this);
  RegisterCandidatePools(*this);
  RegisterSplitPolicies(*this);
  RegisterDensities(*this);
  RegisterRelKinds(*this);
  RegisterOcbLocalities(*this);
  RegisterDynamicPolicies(*this);
  RegisterShardPlacements(*this);
  RegisterArrivalProcesses(*this);
}

const PolicyRegistry& PolicyRegistry::Global() {
  static const PolicyRegistry registry;
  return registry;
}

PolicyRegistry::AxisTable& PolicyRegistry::Table(PolicyAxis axis) {
  switch (axis) {
    case PolicyAxis::kReplacement:
      return replacement_;
    case PolicyAxis::kPrefetch:
      return prefetch_;
    case PolicyAxis::kCandidatePool:
      return pool_;
    case PolicyAxis::kSplit:
      return split_;
    case PolicyAxis::kDensity:
      return density_;
    case PolicyAxis::kRelKind:
      return rel_kind_;
    case PolicyAxis::kOcbLocality:
      return ocb_locality_;
    case PolicyAxis::kDynamic:
      return dynamic_;
    case PolicyAxis::kShardPlacement:
      return shard_placement_;
    case PolicyAxis::kArrival:
      return arrival_;
  }
  OODB_CHECK(false);
  return replacement_;  // unreachable
}

const PolicyRegistry::AxisTable& PolicyRegistry::Table(
    PolicyAxis axis) const {
  return const_cast<PolicyRegistry*>(this)->Table(axis);
}

void PolicyRegistry::Register(PolicyAxis axis, std::string_view name,
                              int value) {
  AxisTable& table = Table(axis);
  const bool inserted =
      table.by_name.emplace(Normalize(name), value).second;
  OODB_CHECK(inserted);  // duplicate policy name on one axis
  table.registered.emplace_back(std::string(name), value);
  bool first_for_value = true;
  for (const auto& canonical : table.canonical) {
    if (table.by_name.at(Normalize(canonical)) == value) {
      first_for_value = false;
      break;
    }
  }
  if (first_for_value) table.canonical.emplace_back(name);
}

std::optional<int> PolicyRegistry::Find(PolicyAxis axis,
                                        std::string_view name) const {
  const AxisTable& table = Table(axis);
  const auto it = table.by_name.find(Normalize(name));
  if (it == table.by_name.end()) return std::nullopt;
  return it->second;
}

const std::string& PolicyRegistry::CanonicalName(PolicyAxis axis,
                                                 int value) const {
  // The first registration of a value is its canonical name.
  for (const auto& [name, v] : Table(axis).registered) {
    if (v == value) return name;
  }
  OODB_CHECK(false);  // value never registered on this axis
  return Table(axis).registered.front().first;  // unreachable
}

std::optional<buffer::ReplacementPolicy> PolicyRegistry::Replacement(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kReplacement, name);
  if (!v) return std::nullopt;
  return static_cast<buffer::ReplacementPolicy>(*v);
}

std::optional<buffer::PrefetchPolicy> PolicyRegistry::Prefetch(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kPrefetch, name);
  if (!v) return std::nullopt;
  return static_cast<buffer::PrefetchPolicy>(*v);
}

std::optional<cluster::CandidatePool> PolicyRegistry::CandidatePool(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kCandidatePool, name);
  if (!v) return std::nullopt;
  return static_cast<cluster::CandidatePool>(*v);
}

std::optional<cluster::SplitPolicy> PolicyRegistry::Split(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kSplit, name);
  if (!v) return std::nullopt;
  return static_cast<cluster::SplitPolicy>(*v);
}

std::optional<workload::StructureDensity> PolicyRegistry::Density(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kDensity, name);
  if (!v) return std::nullopt;
  return static_cast<workload::StructureDensity>(*v);
}

std::optional<obj::RelKind> PolicyRegistry::Relationship(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kRelKind, name);
  if (!v) return std::nullopt;
  return static_cast<obj::RelKind>(*v);
}

std::optional<ocb::RefLocality> PolicyRegistry::OcbLocality(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kOcbLocality, name);
  if (!v) return std::nullopt;
  return static_cast<ocb::RefLocality>(*v);
}

std::optional<dyn::PolicyKind> PolicyRegistry::Dynamic(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kDynamic, name);
  if (!v) return std::nullopt;
  return static_cast<dyn::PolicyKind>(*v);
}

std::optional<ShardPlacement> PolicyRegistry::ShardPlacementOf(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kShardPlacement, name);
  if (!v) return std::nullopt;
  return static_cast<ShardPlacement>(*v);
}

std::optional<ArrivalProcess> PolicyRegistry::Arrival(
    std::string_view name) const {
  const auto v = Find(PolicyAxis::kArrival, name);
  if (!v) return std::nullopt;
  return static_cast<ArrivalProcess>(*v);
}

const std::vector<std::string>& PolicyRegistry::CanonicalNames(
    PolicyAxis axis) const {
  return Table(axis).canonical;
}

std::vector<PolicyRegistry::AxisEntry> PolicyRegistry::Entries(
    PolicyAxis axis) const {
  const AxisTable& table = Table(axis);
  std::vector<AxisEntry> entries;
  entries.reserve(table.canonical.size());
  for (const std::string& canonical : table.canonical) {
    AxisEntry entry;
    entry.canonical = canonical;
    const int value = table.by_name.at(Normalize(canonical));
    for (const auto& [name, v] : table.registered) {
      if (v == value && name != canonical) entry.aliases.push_back(name);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string PolicyRegistry::KnownNames(PolicyAxis axis) const {
  std::string out;
  for (const auto& name : Table(axis).canonical) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace oodb::core
