#include "core/scenario.h"

#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/experiment.h"
#include "core/policy_registry.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace oodb::core {

namespace {

const PolicyRegistry& Reg() { return PolicyRegistry::Global(); }

Status Err(std::string what) {
  return Status::InvalidArgument("scenario: " + std::move(what));
}

Status TypeErr(const std::string& key, const std::string& want) {
  return Err("\"" + key + "\" must be " + want);
}

// Built by appending: `"\"" + JsonEscape(s)` trips GCC 12's
// -Werror=restrict false positive (PR105651) at -O3.
std::string Quote(std::string_view s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

// ------------------------------------------------------------------ codecs
//
// One codec per member type. Decode reads a JSON value into the member and
// names the knob (`key`) in any error; Encode renders the member exactly as
// JsonObjectWriter / JsonArrayWriter would. Integers accept only exact
// integer text that fits the member's own type. Enums resolve through the
// PolicyRegistry on `axis`, which every other type ignores. Vectors and
// fixed-size arrays apply the element codec item by item.

template <typename M>
Status Decode(const JsonValue& v, const std::string& key, M& out,
              PolicyAxis axis = {}) {
  if constexpr (std::is_same_v<M, bool>) {
    if (!v.is_bool()) return TypeErr(key, "a boolean (true/false)");
    out = v.bool_value();
  } else if constexpr (std::is_integral_v<M>) {
    const std::optional<M> n = v.integer_value<M>();
    if (!n) {
      const std::string range = std::to_string(std::numeric_limits<M>::min()) +
                                " to " +
                                std::to_string(std::numeric_limits<M>::max());
      return TypeErr(key, "an integer from " + range);
    }
    out = *n;
  } else if constexpr (std::is_floating_point_v<M>) {
    if (!v.is_number()) return TypeErr(key, "a number");
    out = v.number_value();
  } else if constexpr (std::is_same_v<M, std::string>) {
    if (!v.is_string()) return TypeErr(key, "a string");
    out = v.string_value();
  } else if constexpr (std::is_enum_v<M>) {
    if (!v.is_string()) return TypeErr(key, "a string");
    const std::optional<int> p = Reg().Find(axis, v.string_value());
    if (!p) {
      return Err("\"" + key + "\": unknown " + PolicyAxisName(axis) +
                 " policy \"" + v.string_value() +
                 "\"; known: " + Reg().KnownNames(axis));
    }
    out = static_cast<M>(*p);
  } else {  // std::vector or std::array
    if (!v.is_array()) return TypeErr(key, "an array");
    if constexpr (requires(M& m) { m.resize(0); }) {
      out.resize(v.items().size());
    } else if (v.items().size() != out.size()) {
      const std::string size = std::to_string(out.size());
      return TypeErr(key, "an array of " + size);
    }
    for (size_t i = 0; i < out.size(); ++i) {
      OODB_RETURN_IF_ERROR(Decode(
          v.items()[i], key + "[" + std::to_string(i) + "]", out[i], axis));
    }
  }
  return Status::Ok();
}

template <typename M>
std::string Encode(const M& value, PolicyAxis axis = {}) {
  if constexpr (std::is_same_v<M, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_integral_v<M>) {
    return std::to_string(value);
  } else if constexpr (std::is_floating_point_v<M>) {
    return JsonNumber(value);
  } else if constexpr (std::is_same_v<M, std::string>) {
    return Quote(value);
  } else if constexpr (std::is_enum_v<M>) {
    return Quote(Reg().CanonicalName(axis, static_cast<int>(value)));
  } else {
    JsonArrayWriter items;
    for (const auto& item : value) items.AddRaw(Encode(item, axis));
    return items.str();
  }
}

// ---------------------------------------------------------------- sections

/// A kind gate: knobs that act only while another knob switches their
/// subsystem on (OCB knobs need the OCB kind, dyn_* knobs a dynamic
/// policy, ...). Setting a gated knob with the gate shut is a parse error,
/// so a typo cannot silently leave the cell without the subsystem; ToJson
/// writes gated knobs only while the gate is open, or while `written`
/// holds when the gate has one.
template <typename T>
struct KindGate {
  bool (*open)(const T&);
  /// Completes the error `<section>: "<knob>" ...`.
  const char* why;
  /// A key whose mere presence opens the gate at parse time, even at a
  /// value that keeps it shut (an explicit one-shard base lets a shards
  /// sweep axis pick up the shard_* knobs).
  const char* opener = nullptr;
  /// When ToJson writes the gated knobs, if not exactly while the gate is
  /// open; it must then also write the opener.
  bool (*written)(const T&) = nullptr;
};

/// One row of a section table: a JSON key and how to read and write it.
template <typename T>
struct Knob {
  std::string name;
  /// Reads `v` into `t`; `key` is the knob's dotted path for errors.
  std::function<Status(const JsonValue& v, const std::string& key, T& t)>
      parse;
  /// The value's JSON text for ToJson. No function (a parse-only knob)
  /// leaves the key out, and so does an empty `[]` or `{}`, which parses
  /// back to the same empty value as an absent key.
  std::function<std::string(const T& t)> emit;
  const KindGate<T>* gate = nullptr;
  /// A further condition for ToJson to write the key.
  bool (*when)(const T&) = nullptr;

  Knob Under(const KindGate<T>& g) && {
    gate = &g;
    return std::move(*this);
  }
  Knob When(bool (*pred)(const T&)) && {
    when = pred;
    return std::move(*this);
  }
};

template <typename T>
using Knobs = std::vector<Knob<T>>;

/// A knob stored at a member path from T (`&ClusterConfig::dynamic,
/// &DynConfig::heat_decay`), with the codec its C++ type selects; `axis`
/// resolves a registry enum (or a vector of them).
template <typename T, typename M, typename... Rest>
Knob<T> Policy(const char* name, PolicyAxis axis, M T::*first,
               Rest... rest) {
  const auto at = [=](auto& t) -> auto& {
    return ((t.*first) .* ... .* rest);
  };
  return {name,
          [=](const JsonValue& v, const std::string& key, T& t) {
            return Decode(v, key, at(t), axis);
          },
          [=](const T& t) { return Encode(at(t), axis); }};
}

/// A member knob whose type needs no registry axis.
template <typename T, typename M, typename... Rest>
Knob<T> Field(const char* name, M T::*first, Rest... rest) {
  return Policy(name, PolicyAxis{}, first, rest...);
}

/// Reads object `obj` into `t` through `knobs`; `ctx` is the section's
/// dotted path ("" for the document itself). Keys apply in table order,
/// not file order, so a knob may depend on the knobs above it (buffer
/// levels on the database size, sweep levels on the base config).
template <typename T>
Status ParseSection(const JsonValue& obj, const std::string& ctx,
                    const Knobs<T>& knobs, T& t) {
  if (!obj.is_object()) return TypeErr(ctx, "an object");
  const std::string where = ctx.empty() ? "top level" : ctx;
  std::vector<const JsonValue*> given(knobs.size(), nullptr);
  for (const auto& [key, v] : obj.members()) {
    size_t i = 0;
    while (i < knobs.size() && knobs[i].name != key) ++i;
    if (i == knobs.size()) {
      std::string known;
      for (const Knob<T>& k : knobs) {
        known += (known.empty() ? "" : ", ") + k.name;
      }
      return Err(where + ": unknown key \"" + key + "\" (known: " + known +
                 ")");
    }
    given[i] = &v;  // a repeated key: the last one wins
  }
  for (size_t i = 0; i < knobs.size(); ++i) {
    if (given[i] == nullptr) continue;
    const std::string key =
        ctx.empty() ? knobs[i].name : ctx + "." + knobs[i].name;
    OODB_RETURN_IF_ERROR(knobs[i].parse(*given[i], key, t));
  }
  // Gates are checked once the whole section is read, so they do not
  // depend on key order.
  for (size_t i = 0; i < knobs.size(); ++i) {
    const KindGate<T>* gate = knobs[i].gate;
    if (given[i] == nullptr || gate == nullptr || gate->open(t) ||
        (gate->opener != nullptr && obj.Find(gate->opener) != nullptr)) {
      continue;
    }
    return Err(where + ": \"" + knobs[i].name + "\" " + gate->why);
  }
  return Status::Ok();
}

template <typename T>
std::string EmitSection(const T& t, const Knobs<T>& knobs) {
  JsonObjectWriter o;
  for (const Knob<T>& k : knobs) {
    const KindGate<T>* g = k.gate;
    if (!k.emit || (g && !(g->written ? g->written : g->open)(t)) ||
        (k.when && !k.when(t))) {
      continue;
    }
    const std::string text = k.emit(t);
    if (text != "[]" && text != "{}") o.AddRaw(k.name, text);
  }
  return o.str();
}

/// A sweep axis of section-shaped levels: a shorthand naming `preset`, or
/// an array whose entries each override fields of `from`.
template <typename E, typename DecodeEntry>
Status DecodeLevels(const JsonValue& v, const std::string& key,
                    const char* shorthand, std::vector<E> preset,
                    const E& from, DecodeEntry decode, std::vector<E>& out) {
  if (v.is_string()) {
    if (v.string_value() != shorthand) {
      return Err("\"" + key + "\": unknown shorthand \"" + v.string_value() +
                 "\"; known: " + shorthand);
    }
    out = std::move(preset);
    return Status::Ok();
  }
  if (!v.is_array()) {
    return TypeErr(key, std::string("\"") + shorthand + "\" or an array");
  }
  out.assign(v.items().size(), from);
  for (size_t i = 0; i < out.size(); ++i) {
    OODB_RETURN_IF_ERROR(
        decode(v.items()[i], key + "[" + std::to_string(i) + "]", out[i]));
  }
  return Status::Ok();
}

template <typename E>
std::string EncodeLevels(const std::vector<E>& levels, const Knobs<E>& knobs) {
  JsonArrayWriter items;
  for (const E& level : levels) items.AddRaw(EmitSection(level, knobs));
  return items.str();
}

StatusOr<size_t> BufferLevel(const ModelConfig& cfg, const std::string& level,
                             const std::string& key) {
  if (level == "small") return cfg.BufferSmall();
  if (level == "medium") return cfg.BufferMedium();
  if (level == "large") return cfg.BufferLarge();
  return Err("\"" + key + "\": unknown buffer level \"" + level +
             "\"; known: small, medium, large");
}

// ------------------------------------------------------------------ tables
//
// One table per section, one row per knob, rows in ToJson order. Adding a
// knob takes its config field, its range in that config's Validate(), and
// one row here.

bool CcOn(const cc::CcConfig& c) { return c.enabled; }
const KindGate<cc::CcConfig> kCcGate{
    CcOn,
    "is a concurrency-control knob; add \"enabled\": true to switch the "
    "lock manager on"};

/// The concurrency-control section of the config (DESIGN.md §16).
const Knobs<cc::CcConfig>& CcKnobs() {
  using C = cc::CcConfig;
  static const Knobs<C> knobs = {
      Field("enabled", &C::enabled),
      Field("cc_lock_timeout_s", &C::lock_timeout_s).Under(kCcGate),
      Field("cc_max_retries", &C::max_retries).Under(kCcGate),
      Field("cc_backoff_base_s", &C::backoff_base_s).Under(kCcGate),
      Field("cc_backoff_cap_s", &C::backoff_cap_s).Under(kCcGate),
      Field("cc_page_latches", &C::page_latches).Under(kCcGate),
  };
  return knobs;
}

bool DynOn(const cluster::ClusterConfig& c) { return c.dynamic.enabled(); }
const KindGate<cluster::ClusterConfig> kDynGate{
    DynOn,
    "is a dynamic re-clustering knob; add \"dynamic\": \"DSTC\" or "
    "\"OPCF\" to enable the policy"};

/// A clustering entry of the config or of the clustering sweep axis.
const Knobs<cluster::ClusterConfig>& ClusterKnobs() {
  using C = cluster::ClusterConfig;
  using D = dyn::DynConfig;
  static const Knobs<C> knobs = {
      Policy("pool", PolicyAxis::kCandidatePool, &C::pool),
      Field("io_limit", &C::io_limit),
      Policy("split", PolicyAxis::kSplit, &C::split),
      Field("use_hints", &C::use_hints),
      Policy("hint_kind", PolicyAxis::kRelKind, &C::hint_kind),
      Field("hint_boost", &C::hint_boost),
      Policy("dynamic", PolicyAxis::kDynamic, &C::dynamic, &D::policy),
      Field("dyn_observation_period", &C::dynamic, &D::observation_period)
          .Under(kDynGate),
      Field("dyn_heat_decay", &C::dynamic, &D::heat_decay).Under(kDynGate),
      Field("dyn_max_tracked_objects", &C::dynamic, &D::max_tracked_objects)
          .Under(kDynGate),
      Field("dyn_max_tracked_links", &C::dynamic, &D::max_tracked_links)
          .Under(kDynGate),
      Field("dyn_trigger_threshold", &C::dynamic, &D::trigger_threshold)
          .Under(kDynGate),
      Field("dyn_unit_size", &C::dynamic, &D::max_unit_size).Under(kDynGate),
      Field("dyn_max_moves", &C::dynamic, &D::max_moves_per_txn)
          .Under(kDynGate),
      Field("opcf_watermark", &C::dynamic, &D::opcf_queue_watermark)
          .Under(kDynGate),
      Field("opcf_batch", &C::dynamic, &D::opcf_batch).Under(kDynGate),
  };
  return knobs;
}

/// A clustering entry: a bare pool name, or an object overriding fields of
/// `c` (so a split policy set in the config carries into sweep levels).
Status DecodeCluster(const JsonValue& v, const std::string& key,
                     cluster::ClusterConfig& c) {
  if (v.is_string()) return Decode(v, key, c.pool, PolicyAxis::kCandidatePool);
  if (!v.is_object()) return TypeErr(key, "a pool name or an object");
  return ParseSection(v, key, ClusterKnobs(), c);
}

bool OcbOn(const WorkloadEntry& w) { return w.ocb.enabled; }
bool OctOn(const WorkloadEntry& w) { return !w.ocb.enabled; }
bool ChurnOn(const WorkloadEntry& w) { return w.ocb.churn_enabled(); }
const KindGate<WorkloadEntry> kOcbGate{
    OcbOn,
    "is an OCB knob; add \"kind\": \"ocb\" to select the OCB workload"};

/// A workload entry: the engineering workload's density and R/W ratio, or
/// the generic OCB workload (src/ocb/), which its kind selects.
const Knobs<WorkloadEntry>& WorkloadKnobs() {
  using W = WorkloadEntry;
  using O = ocb::OcbConfig;
  using Oct = workload::WorkloadConfig;
  static const Knobs<W> knobs = {
      // Only OCB writes its kind, so OCT entries serialize as they did
      // before OCB existed.
      Knob<W>{"kind",
              [](const JsonValue& v, const std::string& key, W& w) {
                std::string kind;
                OODB_RETURN_IF_ERROR(Decode(v, key, kind));
                if (kind != "oct" && kind != "ocb") {
                  return Err("\"" + key + "\": unknown workload kind \"" +
                             kind + "\"; known: oct, ocb");
                }
                w.ocb.enabled = kind == "ocb";
                return Status::Ok();
              },
              [](const W&) { return Quote("ocb"); }}
          .When(OcbOn),
      Policy("density", PolicyAxis::kDensity, &W::oct, &Oct::density)
          .When(OctOn),
      Field("rw_ratio", &W::oct, &Oct::read_write_ratio),
      Field("classes", &W::ocb, &O::classes).Under(kOcbGate),
      Field("hierarchy_depth", &W::ocb, &O::hierarchy_depth).Under(kOcbGate),
      Field("instances", &W::ocb, &O::instances).Under(kOcbGate),
      Field("refs_per_object", &W::ocb, &O::refs_per_object).Under(kOcbGate),
      Policy("locality", PolicyAxis::kOcbLocality, &W::ocb, &O::locality)
          .Under(kOcbGate),
      Field("zipf_theta", &W::ocb, &O::zipf_theta).Under(kOcbGate),
      Field("gaussian_window", &W::ocb, &O::gaussian_window).Under(kOcbGate),
      Field("base_object_bytes", &W::ocb, &O::base_object_bytes)
          .Under(kOcbGate),
      Field("inheritance_fraction", &W::ocb, &O::inheritance_fraction)
          .Under(kOcbGate),
      Field("interleaved_read_probability", &W::ocb,
            &O::interleaved_read_probability)
          .Under(kOcbGate),
      Field("partitions", &W::ocb, &O::partitions).Under(kOcbGate),
      Field("set_lookup_size", &W::ocb, &O::set_lookup_size).Under(kOcbGate),
      Field("traversal_depth", &W::ocb, &O::traversal_depth).Under(kOcbGate),
      Field("read_mix", &W::ocb, &O::read_mix).Under(kOcbGate),
      Field("churn_probability", &W::ocb, &O::churn_probability)
          .Under(kOcbGate)
          .When(ChurnOn),
      Field("churn_burst_length", &W::ocb, &O::churn_burst_length)
          .Under(kOcbGate)
          .When(ChurnOn),
      Field("churn_cross_partition", &W::ocb, &O::churn_cross_partition)
          .Under(kOcbGate)
          .When(ChurnOn),
  };
  return knobs;
}

Status DecodeWorkload(const JsonValue& v, const std::string& key,
                      WorkloadEntry& w) {
  return ParseSection(v, key, WorkloadKnobs(), w);
}

bool SpansOn(const ModelConfig& c) { return c.profile_spans; }
bool Sharded(const ModelConfig& c) { return c.shards != 1; }
/// A one-shard base still carries shard knobs set away from the defaults:
/// a shards sweep axis runs its multi-shard cells with them.
bool ShardKnobsSet(const ModelConfig& c) {
  static const ModelConfig defaults = ScaledConfig();
  return Sharded(c) || c.shard_placement != defaults.shard_placement ||
         c.shard_hop_latency_s != defaults.shard_hop_latency_s ||
         c.shard_group_cap != defaults.shard_group_cap;
}
bool OpenArrivals(const ModelConfig& c) {
  return c.arrival == ArrivalProcess::kOpen;
}
bool CcEnabled(const ModelConfig& c) { return c.cc.enabled; }
const KindGate<ModelConfig> kSpanGate{
    SpansOn, "has no effect without \"profile_spans\": true"};
const KindGate<ModelConfig> kShardGate{
    Sharded,
    "is a sharding knob; add \"shards\": <N> to enable the N-shard core",
    "shards", ShardKnobsSet};
const KindGate<ModelConfig> kArrivalGate{
    OpenArrivals, "has no effect without \"arrival\": \"Open\""};

/// The config section: overrides on ScaledConfig().
const Knobs<ModelConfig>& ConfigKnobs() {
  using M = ModelConfig;
  static const Knobs<M> knobs = {
      Field("database_bytes", &M::database_bytes),
      Field("page_size_bytes", &M::page_size_bytes),
      Field("append_fill_fraction", &M::append_fill_fraction),
      Field("num_users", &M::num_users),
      Field("num_disks", &M::num_disks),
      Field("think_time_s", &M::think_time_s),
      Field("buffer_pages", &M::buffer_pages),
      // Parse-only: a level resolved against the database and page sizes
      // above; ToJson writes the resolved page count instead.
      Knob<M>{"buffer_level",
              [](const JsonValue& v, const std::string& key, M& c) {
                std::string level;
                OODB_RETURN_IF_ERROR(Decode(v, key, level));
                const auto pages = BufferLevel(c, level, key);
                OODB_RETURN_IF_ERROR(pages.status());
                c.buffer_pages = *pages;
                return Status::Ok();
              },
              nullptr},
      Policy("replacement", PolicyAxis::kReplacement, &M::replacement),
      Policy("prefetch", PolicyAxis::kPrefetch, &M::prefetch),
      Field("warmup_transactions", &M::warmup_transactions),
      Field("measured_transactions", &M::measured_transactions),
      Field("measurement_epochs", &M::measurement_epochs),
      Field("telemetry_interval_s", &M::telemetry_interval_s),
      Field("telemetry_audit_placement", &M::telemetry_audit_placement),
      Field("rw_ratio_schedule", &M::rw_ratio_schedule),
      Field("static_reorganize_after_build",
            &M::static_reorganize_after_build),
      Field("profile_spans", &M::profile_spans),
      Field("span_exemplars", &M::span_exemplars).Under(kSpanGate),
      Field("shards", &M::shards).When(ShardKnobsSet),
      Policy("shard_placement", PolicyAxis::kShardPlacement,
             &M::shard_placement)
          .Under(kShardGate),
      Field("shard_hop_latency_s", &M::shard_hop_latency_s)
          .Under(kShardGate),
      Field("shard_group_cap", &M::shard_group_cap).Under(kShardGate),
      Knob<M>{"concurrency",
              [](const JsonValue& v, const std::string& key, M& c) {
                return ParseSection(v, key, CcKnobs(), c.cc);
              },
              [](const M& c) { return EmitSection(c.cc, CcKnobs()); }}
          .When(CcEnabled),
      Policy("arrival", PolicyAxis::kArrival, &M::arrival).When(OpenArrivals),
      Field("arrival_rate_tps", &M::arrival_rate_tps).Under(kArrivalGate),
      Field("seed", &M::seed),
      Knob<M>{"workload",
              [](const JsonValue& v, const std::string& key, M& c) {
                WorkloadEntry w{c.workload, c.ocb};
                OODB_RETURN_IF_ERROR(DecodeWorkload(v, key, w));
                c.workload = w.oct;
                c.ocb = w.ocb;
                return Status::Ok();
              },
              [](const M& c) {
                return EmitSection(WorkloadEntry{c.workload, c.ocb},
                                   WorkloadKnobs());
              }},
      Knob<M>{"clustering",
              [](const JsonValue& v, const std::string& key, M& c) {
                return DecodeCluster(v, key, c.clustering);
              },
              [](const M& c) {
                return EmitSection(c.clustering, ClusterKnobs());
              }},
  };
  return knobs;
}

bool PlacementSwept(const ScenarioSpec& s) {
  return !s.shards.empty() || s.base.shards != 1;
}
const KindGate<ScenarioSpec> kPlacementAxisGate{
    PlacementSwept,
    "is inert: every cell has shards = 1, where placement has no effect; "
    "add a \"shards\" sweep axis or \"shards\" to config"};

/// The sweep section: one row per axis; an absent axis keeps the base
/// config's value.
const Knobs<ScenarioSpec>& SweepKnobs() {
  using S = ScenarioSpec;
  static const Knobs<S> knobs = {
      Knob<S>{"clustering",
              [](const JsonValue& v, const std::string& key, S& s) {
                return DecodeLevels(
                    v, key, "figure5_1",
                    ClusteringPolicyLevels(s.base.clustering.split),
                    s.base.clustering, DecodeCluster, s.clustering);
              },
              [](const S& s) {
                return EncodeLevels(s.clustering, ClusterKnobs());
              }},
      Knob<S>{"workload",
              [](const JsonValue& v, const std::string& key, S& s) {
                std::vector<WorkloadEntry> grid;
                for (const workload::WorkloadConfig& w :
                     StandardWorkloadGrid()) {
                  grid.push_back(WorkloadEntry{w, s.base.ocb});
                }
                return DecodeLevels(v, key, "standard_grid", std::move(grid),
                                    WorkloadEntry{s.base.workload, s.base.ocb},
                                    DecodeWorkload, s.workloads);
              },
              [](const S& s) {
                return EncodeLevels(s.workloads, WorkloadKnobs());
              }},
      Policy("replacement", PolicyAxis::kReplacement, &S::replacement),
      Policy("prefetch", PolicyAxis::kPrefetch, &S::prefetch),
      // Page counts or buffer level names, resolved against the base.
      Knob<S>{"buffer_pages",
              [](const JsonValue& v, const std::string& key, S& s) {
                if (!v.is_array()) {
                  return TypeErr(key, "an array of page counts or level names");
                }
                s.buffer_pages.resize(v.items().size());
                for (size_t i = 0; i < s.buffer_pages.size(); ++i) {
                  const JsonValue& item = v.items()[i];
                  const std::string sub = key + "[" + std::to_string(i) + "]";
                  if (!item.is_string()) {
                    OODB_RETURN_IF_ERROR(Decode(item, sub, s.buffer_pages[i]));
                    continue;
                  }
                  const auto pages =
                      BufferLevel(s.base, item.string_value(), sub);
                  OODB_RETURN_IF_ERROR(pages.status());
                  s.buffer_pages[i] = *pages;
                }
                return Status::Ok();
              },
              [](const S& s) { return Encode(s.buffer_pages); }},
      Field("shards", &S::shards),
      Policy("shard_placement", PolicyAxis::kShardPlacement,
             &S::shard_placement)
          .Under(kPlacementAxisGate),
      Field("users", &S::users),
  };
  return knobs;
}

bool HasDescription(const ScenarioSpec& s) { return !s.description.empty(); }

/// The document: labels, the base config and the sweep axes. The config
/// row precedes the sweep row because sweep shorthands and buffer levels
/// derive from the base config.
const Knobs<ScenarioSpec>& ScenarioKnobs() {
  using S = ScenarioSpec;
  static const Knobs<S> knobs = {
      Field("name", &S::name),
      Knob<S>{"bench",
              [](const JsonValue& v, const std::string& key, S& s) {
                return Decode(v, key, s.bench);
              },
              [](const S& s) {
                return Quote(s.bench.empty() ? s.name : s.bench);
              }},
      Field("description", &S::description).When(HasDescription),
      Knob<S>{"config",
              [](const JsonValue& v, const std::string& key, S& s) {
                if (v.is_object() && v.Find("buffer_pages") != nullptr &&
                    v.Find("buffer_level") != nullptr) {
                  return Err(
                      "config: set either \"buffer_pages\" or "
                      "\"buffer_level\", not both");
                }
                OODB_RETURN_IF_ERROR(
                    ParseSection(v, key, ConfigKnobs(), s.base));
                // The builder's target tracks the configured database
                // size, and the generated graph's density tracks the
                // workload (WithWorkload semantics).
                s.base.database.target_bytes = s.base.database_bytes;
                s.base.database.density = s.base.workload.density;
                return Status::Ok();
              },
              [](const S& s) { return EmitSection(s.base, ConfigKnobs()); }},
      Knob<S>{"sweep",
              [](const JsonValue& v, const std::string& key, S& s) {
                return ParseSection(v, key, SweepKnobs(), s);
              },
              [](const S& s) { return EmitSection(s, SweepKnobs()); }},
  };
  return knobs;
}

}  // namespace

std::string WorkloadEntry::Label() const {
  return ocb.enabled ? ocb.Label(oct.read_write_ratio) : oct.Label();
}

std::vector<ScenarioCell> ScenarioSpec::Expand() const {
  using ReplacementAxis = std::vector<buffer::ReplacementPolicy>;
  using PrefetchAxis = std::vector<buffer::PrefetchPolicy>;
  const ReplacementAxis reps =
      replacement.empty() ? ReplacementAxis{base.replacement} : replacement;
  const PrefetchAxis prefs =
      prefetch.empty() ? PrefetchAxis{base.prefetch} : prefetch;
  const std::vector<size_t> bufs = buffer_pages.empty()
                                       ? std::vector<size_t>{base.buffer_pages}
                                       : buffer_pages;
  const std::vector<cluster::ClusterConfig> clus =
      clustering.empty() ? std::vector<cluster::ClusterConfig>{base.clustering}
                         : clustering;
  const std::vector<WorkloadEntry> works =
      workloads.empty()
          ? std::vector<WorkloadEntry>{WorkloadEntry{base.workload, base.ocb}}
          : workloads;
  const std::vector<int> shard_axis =
      shards.empty() ? std::vector<int>{base.shards} : shards;
  const std::vector<ShardPlacement> place_axis =
      shard_placement.empty()
          ? std::vector<ShardPlacement>{base.shard_placement}
          : shard_placement;
  const std::vector<int> user_axis =
      users.empty() ? std::vector<int>{base.num_users} : users;

  std::vector<ScenarioCell> cells;
  cells.reserve(user_axis.size() * shard_axis.size() * place_axis.size() *
                reps.size() * prefs.size() * bufs.size() * clus.size() *
                works.size());
  for (const int num_users : user_axis) {
  for (const int num_shards : shard_axis) {
   for (const auto place : place_axis) {
    for (const auto rep : reps) {
     for (const auto pref : prefs) {
      for (const size_t pages : bufs) {
        for (const auto& clu : clus) {
          for (const auto& work : works) {
            ScenarioCell cell;
            cell.config = WithWorkload(base, work.oct);
            cell.config.ocb = work.ocb;
            cell.config.clustering = clu;
            cell.config.replacement = rep;
            cell.config.prefetch = pref;
            cell.config.buffer_pages = pages;
            cell.config.shards = num_shards;
            cell.config.shard_placement = place;
            cell.config.num_users = num_users;

            // Labels: identical to bench_common's FillDefaultLabels when
            // only clustering/workload sweep; multi-level sharding and
            // buffering axes prefix the policy label to keep cells unique.
            std::string policy;
            if (user_axis.size() > 1) {
              policy = std::to_string(num_users) + "users";
            }
            if (shard_axis.size() > 1) {
              if (!policy.empty()) policy += "_";
              policy += std::to_string(num_shards);
              policy += "shard";
            }
            if (place_axis.size() > 1) {
              if (!policy.empty()) policy += "_";
              policy += ShardPlacementName(place);
            }
            if (reps.size() > 1) {
              if (!policy.empty()) policy += "_";
              policy += buffer::ReplacementPolicyName(rep);
            }
            if (prefs.size() > 1) {
              if (!policy.empty()) policy += "_";
              policy += buffer::PrefetchPolicyName(pref);
            }
            if (bufs.size() > 1) {
              if (!policy.empty()) policy += "_";
              policy += std::to_string(pages) + "buf";
            }
            if (policy.empty()) {
              policy = clu.Label();
            } else if (clus.size() > 1) {
              // Append in two steps: `"_" + clu.Label()` trips GCC 12's
              // -Werror=restrict false positive (PR105651) at -O3.
              policy += "_";
              policy += clu.Label();
            }
            cell.policy = std::move(policy);
            cell.workload = work.Label();  // OCT or OCB label
            cell.cell_label = cell.policy + "/" + cell.workload;
            cells.push_back(std::move(cell));
          }
        }
      }
     }
    }
   }
  }
  }
  return cells;
}

std::string ScenarioSpec::ToJson() const {
  return EmitSection(*this, ScenarioKnobs());
}

StatusOr<ScenarioSpec> ParseScenario(std::string_view json_text) {
  auto doc = JsonValue::Parse(json_text);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) return Err("top-level value must be an object");

  ScenarioSpec spec;
  spec.base = ScaledConfig();
  OODB_RETURN_IF_ERROR(ParseSection(*doc, "", ScenarioKnobs(), spec));
  if (spec.name.empty()) return Err("\"name\" is required");
  if (spec.bench.empty()) spec.bench = spec.name;

  const Status valid = spec.base.Validate();
  if (!valid.ok()) return Err("config: " + valid.message());
  // Sweep levels meet in cells the base config never saw (a shards level
  // with a DSTC clustering level, say), so every cell is checked too.
  for (const ScenarioCell& cell : spec.Expand()) {
    const Status cell_valid = cell.config.Validate();
    if (!cell_valid.ok()) {
      return Err("cell " + cell.cell_label + ": " + cell_valid.message());
    }
  }
  return spec;
}

StatusOr<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("scenario: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto spec = ParseScenario(buf.str());
  if (!spec.ok()) {
    return Status::InvalidArgument(path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace oodb::core
