#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/engineering_db.h"
#include "core/experiment.h"
#include "core/policy_registry.h"
#include "core/scenario.h"
#include "dyn/dyn_config.h"
#include "exec/experiment_runner.h"
#include "util/json_reader.h"

namespace oodb::core {
namespace {

// ---------------------------------------------------------------- JSON DOM

TEST(JsonReaderTest, ParsesNestedDocument) {
  const auto doc = JsonValue::Parse(
      R"({"a": 1, "b": [true, null, "x\ny"], "c": {"d": 2.5}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->members().size(), 3u);
  // Members keep source order.
  EXPECT_EQ(doc->members()[0].first, "a");
  EXPECT_EQ(doc->members()[2].first, "c");
  EXPECT_EQ(doc->Find("a")->number_value(), 1.0);
  const JsonValue* b = doc->Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].bool_value());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].string_value(), "x\ny");
  EXPECT_EQ(doc->Find("c")->Find("d")->number_value(), 2.5);
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonReaderTest, LargeIntegersSurviveViaSourceText) {
  // 2^53 + 1 is not representable as a double; the uint view must be exact.
  const auto doc = JsonValue::Parse("{\"seed\": 9007199254740993}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("seed")->integer_value<uint64_t>(), 9007199254740993ull);
  EXPECT_EQ(doc->Find("seed")->number_text(), "9007199254740993");
}

TEST(JsonReaderTest, IntegerValueIsExactOrAbsent) {
  const auto doc = JsonValue::Parse(R"([7, -1, 2.5, 1e12, 4294967296, "7"])");
  ASSERT_TRUE(doc.ok());
  const std::vector<JsonValue>& v = doc->items();
  EXPECT_EQ(v[0].integer_value<int>(), 7);
  EXPECT_EQ(v[1].integer_value<int>(), -1);
  EXPECT_FALSE(v[1].integer_value<uint64_t>().has_value());  // no wrap
  EXPECT_FALSE(v[2].integer_value<int>().has_value());       // fraction
  EXPECT_FALSE(v[3].integer_value<int64_t>().has_value());   // exponent
  EXPECT_FALSE(v[4].integer_value<uint32_t>().has_value());  // too wide
  EXPECT_EQ(v[4].integer_value<uint64_t>(), 4294967296ull);
  EXPECT_FALSE(v[5].integer_value<int>().has_value());  // not a number
}

TEST(JsonReaderTest, DeepNestingIsAnErrorNotAStackOverflow) {
  const auto deep = JsonValue::Parse(std::string(100000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("nested deeper than"),
            std::string::npos)
      << deep.status().ToString();
  EXPECT_NE(deep.status().message().find("offset 256"), std::string::npos)
      << deep.status().ToString();

  const size_t cap = JsonValue::kMaxDepth;
  EXPECT_TRUE(
      JsonValue::Parse(std::string(cap, '[') + std::string(cap, ']')).ok());
  EXPECT_FALSE(
      JsonValue::Parse(std::string(cap + 1, '[') + std::string(cap + 1, ']'))
          .ok());
  // Objects count toward the same depth.
  std::string objects;
  for (size_t i = 0; i <= cap; ++i) objects += "{\"a\": ";
  objects += "1";
  objects += std::string(cap + 1, '}');
  EXPECT_FALSE(JsonValue::Parse(objects).ok());
}

TEST(JsonReaderTest, ErrorsCarryByteOffsets) {
  for (const char* bad : {"{", "[1,2] junk", "{\"a\" 1}", "tru", ""}) {
    const auto doc = JsonValue::Parse(bad);
    EXPECT_FALSE(doc.ok()) << bad;
    EXPECT_NE(doc.status().message().find("offset"), std::string::npos)
        << doc.status().ToString();
  }
}

// --------------------------------------------------------- policy registry

TEST(PolicyRegistryTest, EveryEnumValueResolvesByItsCanonicalName) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  using R = buffer::ReplacementPolicy;
  for (R p : {R::kLru, R::kContextSensitive, R::kRandom}) {
    EXPECT_EQ(reg.Replacement(buffer::ReplacementPolicyName(p)), p);
  }
  using P = buffer::PrefetchPolicy;
  for (P p : {P::kNone, P::kWithinBuffer, P::kWithinDb}) {
    EXPECT_EQ(reg.Prefetch(buffer::PrefetchPolicyName(p)), p);
  }
  using C = cluster::CandidatePool;
  for (C p : {C::kNoClustering, C::kWithinBuffer, C::kIoLimit, C::kWithinDb}) {
    EXPECT_EQ(reg.CandidatePool(cluster::CandidatePoolName(p)), p);
  }
  using S = cluster::SplitPolicy;
  for (S p : {S::kNoSplit, S::kLinearGreedy, S::kExhaustive}) {
    EXPECT_EQ(reg.Split(cluster::SplitPolicyName(p)), p);
  }
  using D = workload::StructureDensity;
  for (D d : {D::kLow3, D::kMed5, D::kHigh10}) {
    EXPECT_EQ(reg.Density(workload::StructureDensityName(d)), d);
  }
  using K = obj::RelKind;
  for (K k : {K::kConfiguration, K::kVersionHistory, K::kCorrespondence,
              K::kInstanceInheritance}) {
    EXPECT_EQ(reg.Relationship(obj::RelKindName(k)), k);
  }
}

TEST(PolicyRegistryTest, LookupsNormalizeCaseAndSeparators) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  EXPECT_EQ(reg.CandidatePool("cluster within buffer"),
            cluster::CandidatePool::kWithinBuffer);
  EXPECT_EQ(reg.CandidatePool("CLUSTER-WITHIN-BUFFER"),
            cluster::CandidatePool::kWithinBuffer);
  EXPECT_EQ(reg.Replacement("context"),
            buffer::ReplacementPolicy::kContextSensitive);
  EXPECT_EQ(reg.Prefetch("p_db"), buffer::PrefetchPolicy::kWithinDb);
  EXPECT_EQ(reg.Split("linear"), cluster::SplitPolicy::kLinearGreedy);
  EXPECT_EQ(reg.Density("HIGH"), workload::StructureDensity::kHigh10);
  EXPECT_FALSE(reg.Split("bogus").has_value());
  EXPECT_FALSE(reg.Replacement("").has_value());
}

TEST(PolicyRegistryTest, CanonicalNamesAreTheDisplayNames) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kReplacement).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kPrefetch).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kCandidatePool).size(), 4u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kSplit).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kDensity).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kRelKind).size(), 4u);
  // Aliases never displace the canonical spelling.
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kReplacement)[0], "LRU");
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kCandidatePool)[0],
            "No_Clustering");
  EXPECT_NE(reg.KnownNames(PolicyAxis::kPrefetch).find("No_prefetch"),
            std::string::npos);
}

// ----------------------------------------------------------------- scenario

// The committed fig5_1 scenario, inlined (the file itself is exercised by
// the CI smoke run; this keeps the unit test working-directory-agnostic).
constexpr char kFig51Scenario[] = R"json({
  "name": "fig5_1_fast",
  "bench": "Figure 5.1",
  "config": {
    "buffer_level": "medium",
    "warmup_transactions": 100,
    "measured_transactions": 500,
    "seed": 1
  },
  "sweep": {
    "clustering": "figure5_1",
    "workload": "standard_grid"
  }
})json";

TEST(ScenarioTest, Fig51ExpandsToTheBenchGridInBenchOrder) {
  const auto spec = ParseScenario(kFig51Scenario);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->bench, "Figure 5.1");
  EXPECT_EQ(spec->base.buffer_pages, spec->base.BufferMedium());

  const auto cells = spec->Expand();
  const auto policies = ClusteringPolicyLevels();
  const auto grid = StandardWorkloadGrid();
  ASSERT_EQ(cells.size(), policies.size() * grid.size());

  // Clustering-major, workload-minor — exactly RunClusteringGrid's batch
  // order, with FillDefaultLabels' labels.
  size_t i = 0;
  for (const auto& policy : policies) {
    for (const auto& w : grid) {
      SCOPED_TRACE(cells[i].cell_label);
      EXPECT_EQ(cells[i].policy, policy.Label());
      EXPECT_EQ(cells[i].workload, w.Label());
      EXPECT_EQ(cells[i].cell_label, policy.Label() + "/" + w.Label());
      EXPECT_EQ(cells[i].config.clustering.pool, policy.pool);
      EXPECT_EQ(cells[i].config.clustering.io_limit, policy.io_limit);
      EXPECT_EQ(cells[i].config.workload.density, w.density);
      EXPECT_EQ(cells[i].config.database.density, w.density);
      EXPECT_EQ(cells[i].config.workload.read_write_ratio,
                w.read_write_ratio);
      EXPECT_EQ(cells[i].config.warmup_transactions, 100);
      EXPECT_EQ(cells[i].config.measured_transactions, 500);
      EXPECT_EQ(cells[i].config.seed, 1u);
      ++i;
    }
  }
  EXPECT_EQ(cells.front().cell_label, "No_Clustering/low3-5");
  EXPECT_EQ(cells.back().cell_label, "No_limit/hi10-100");
}

TEST(ScenarioTest, ParseSerializeRoundTripIsStable) {
  const auto first = ParseScenario(R"json({
    "name": "roundtrip",
    "description": "every axis populated",
    "config": {
      "buffer_pages": 64,
      "replacement": "Context-sensitive",
      "prefetch": "p_DB",
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "measurement_epochs": 2,
      "rw_ratio_schedule": [5, 100],
      "seed": 9007199254740993,
      "workload": {"density": "hi10", "rw_ratio": 100},
      "clustering": {"pool": "With_IO_limit", "io_limit": 4,
                     "split": "Linear_Split", "use_hints": true,
                     "hint_kind": "version-history", "hint_boost": 2.5}
    },
    "sweep": {
      "clustering": ["No_Clustering", {"pool": "No_limit"}],
      "workload": [{"density": "low3", "rw_ratio": 5}],
      "replacement": ["LRU", "Random"],
      "prefetch": ["No_prefetch"],
      "buffer_pages": [64, "medium"]
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->base.seed, 9007199254740993ull);
  EXPECT_EQ(first->base.replacement,
            buffer::ReplacementPolicy::kContextSensitive);
  EXPECT_EQ(first->base.clustering.split, cluster::SplitPolicy::kLinearGreedy);
  EXPECT_TRUE(first->base.clustering.use_hints);
  ASSERT_EQ(first->clustering.size(), 2u);
  // Sweep entries inherit unset fields from the base clustering config.
  EXPECT_EQ(first->clustering[1].pool, cluster::CandidatePool::kWithinDb);
  EXPECT_EQ(first->clustering[1].split, cluster::SplitPolicy::kLinearGreedy);
  ASSERT_EQ(first->buffer_pages.size(), 2u);
  EXPECT_EQ(first->buffer_pages[1], first->base.BufferMedium());

  const std::string json = first->ToJson();
  const auto second = ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // Every committed scenario (read in place, never written) serializes to
  // a document that parses back to the same serialization.
  size_t files = 0;
  for (const char* dir : {"/bench/scenarios", "/perfbench/workloads"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(SEMCLUST_SOURCE_DIR) + dir)) {
      const std::string path = entry.path().string();
      if (!path.ends_with(".scenario.json")) continue;
      SCOPED_TRACE(path);
      ++files;
      const auto committed = LoadScenarioFile(path);
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      const std::string text = committed->ToJson();
      const auto reparsed = ParseScenario(text);
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
      EXPECT_EQ(text, reparsed->ToJson());
    }
  }
  EXPECT_GE(files, 9u);

  // Expansion order: replacement (outer) x prefetch x buffers x clustering
  // x workload (inner); multi-level axes prefix the policy label.
  const auto cells = first->Expand();
  ASSERT_EQ(cells.size(), 2u * 1u * 2u * 2u * 1u);
  EXPECT_EQ(cells.front().policy, "LRU_64buf_No_Clustering");
  EXPECT_EQ(cells.back().policy,
            "Random_" + std::to_string(first->base.BufferMedium()) +
                "buf_No_limit");
}

TEST(ScenarioTest, ActionableErrors) {
  const auto expect_error = [](const char* json, const std::string& needle) {
    const auto spec = ParseScenario(json);
    ASSERT_FALSE(spec.ok()) << json;
    EXPECT_NE(spec.status().message().find(needle), std::string::npos)
        << spec.status().ToString();
  };
  expect_error(R"({"name": "x", "bogus": 1})", "bogus");
  expect_error(R"({"config": {}})", "\"name\" is required");
  expect_error(R"({"name": "x", "config": {"replacement": "FIFO"}})",
               "known: LRU, Context-sensitive, Random");
  expect_error(R"({"name": "x", "config": {"warmup": 1}})",
               "unknown key \"warmup\"");
  expect_error(
      R"({"name": "x", "config": {"buffer_pages": 64, "buffer_level": "medium"}})",
      "not both");
  expect_error(R"({"name": "x", "config": {"buffer_level": "huge"}})",
               "small, medium, large");
  expect_error(R"({"name": "x", "config": {"measured_transactions": 0}})",
               "measured_transactions");
  expect_error(R"({"name": "x", "sweep": {"buffer_pages": [4]}})",
               "at least 8 frames");
  expect_error(R"({"name": "x", "sweep": {"clustering": "figure9"}})",
               "figure5_1");
  expect_error(R"({"name": "x", "config": {"seed": "one"}})",
               "config.seed");
  // OCB knobs are gated behind "kind": "ocb" so a typo can't silently
  // switch a scenario onto the generic benchmark.
  expect_error(
      R"({"name": "x", "config": {"workload": {"instances": 500}}})",
      "add \"kind\": \"ocb\"");
  expect_error(
      R"({"name": "x", "config": {"workload": {"kind": "osb"}}})",
      "known: oct, ocb");
  expect_error(
      R"({"name": "x", "config":
          {"workload": {"kind": "ocb", "locality": "pareto"}}})",
      "uniform, gaussian, zipf");
  expect_error(
      R"({"name": "x", "config": {"workload": {"kind": "ocb", "classes": 1}}})",
      "classes");
  // Dynamic re-clustering knobs are gated the same way: tuning a dyn_*
  // knob with the policy still off is a silent no-op, so it's an error.
  expect_error(
      R"({"name": "x", "config":
          {"clustering": {"dyn_observation_period": 64}}})",
      "is a dynamic re-clustering knob");
  expect_error(
      R"({"name": "x", "config": {"clustering": {"dynamic": "DBSCAN"}}})",
      "DSTC");
  // Integers are exact: no exponent, no fraction, no wrap, no narrowing.
  expect_error(R"({"name": "x", "config": {"measured_transactions": 1e12}})",
               "config.measured_transactions");
  expect_error(R"({"name": "x", "config": {"measured_transactions": 2.5}})",
               "config.measured_transactions");
  expect_error(R"({"name": "x", "config": {"seed": -1}})", "config.seed");
  expect_error(R"({"name": "x", "config": {"num_users": 4294967306}})",
               "config.num_users");
  expect_error(R"({"name": "x", "config": {"page_size_bytes": 4294971392}})",
               "config.page_size_bytes");
  expect_error(
      R"({"name": "x", "config":
          {"workload": {"kind": "ocb", "base_object_bytes": 4294967456}}})",
      "config.workload.base_object_bytes");
  // Every expanded cell is validated, not just the base: sweep levels can
  // meet in a cell the base never saw (here 4 shards with DSTC).
  expect_error(
      R"({"name": "x", "sweep": {"shards": [1, 4],
          "clustering": [{"pool": "No_limit", "dynamic": "DSTC"}]}})",
      "cell 4shard/");
}

// Renders a parsed value back to JSON text (strings unescaped, which the
// values here never need), so two documents' values compare.
std::string Render(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return v.bool_value() ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return v.number_text();
    case JsonValue::Kind::kString:
      return "\"" + v.string_value() + "\"";
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (const JsonValue& item : v.items()) {
        if (out.size() > 1) out += ",";
        out += Render(item);
      }
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (const auto& [key, value] : v.members()) {
        if (out.size() > 1) out += ",";
        out += "\"" + key + "\":";
        out += Render(value);
      }
      return out + "}";
    }
  }
  return "";
}

// Whether `written` carries the value `given` set: numbers by value, objects
// by the members `given` names (a sweep entry inherits the rest).
bool SameValue(const JsonValue& given, const JsonValue& written) {
  if (given.is_number() && written.is_number()) {
    return given.number_value() == written.number_value();
  }
  if (given.is_object() && written.is_object()) {
    for (const auto& [key, value] : given.members()) {
      const JsonValue* other = written.Find(key);
      if (other == nullptr || !SameValue(value, *other)) return false;
    }
    return true;
  }
  if (given.is_array() && written.is_array()) {
    if (given.items().size() != written.items().size()) return false;
    for (size_t i = 0; i < given.items().size(); ++i) {
      if (!SameValue(given.items()[i], written.items()[i])) return false;
    }
    return true;
  }
  return Render(given) == Render(written);
}

// The keys a section's "unknown key" error lists: its table's rows.
std::vector<std::string> KnownKeys(const std::string& json) {
  const auto spec = ParseScenario(json);
  EXPECT_FALSE(spec.ok()) << json;
  if (spec.ok()) return {};
  const std::string& message = spec.status().message();
  const size_t begin = message.find("(known: ");
  EXPECT_NE(begin, std::string::npos) << message;
  if (begin == std::string::npos) return {};
  std::istringstream list(
      message.substr(begin + 8, message.rfind(')') - begin - 8));
  std::vector<std::string> keys;
  for (std::string key; std::getline(list >> std::ws, key, ',');) {
    keys.push_back(key);
  }
  return keys;
}

// Each row of every section table set to a non-default in-range value,
// split over two scenarios because sharding excludes cc and dynamic
// clustering (policy names are canonical, so they compare as written).
// ToJson must write back every value set, and ParseScenario(ToJson())
// must serialize identically, i.e. restore every value. The "gates"
// documents open the same kind gates and set nothing else; every value
// set must differ from theirs except the gate openers'. The rows are the
// keys each section's error lists, so a new row without a value here
// fails the test. Finally, a config knob that ToJson leaves out at the
// defaults is gated: set alone, it must be rejected (the openers and the
// rw_ratio_schedule, left out while empty, excepted).
TEST(ScenarioTest, EveryKnobRoundTripsAtANonDefaultValue) {
  const std::vector<std::pair<const char*, const char*>> documents = {
      {R"json({
        "name": "every_knob_a", "bench": "Every knob A",
        "description": "the sharded half",
        "config": {
          "database_bytes": 2097152, "page_size_bytes": 8192,
          "append_fill_fraction": 0.7, "num_users": 12, "num_disks": 6,
          "think_time_s": 2.5, "buffer_pages": 48, "replacement": "Random",
          "prefetch": "Prefetch_within_DB", "warmup_transactions": 7,
          "measured_transactions": 33, "measurement_epochs": 3,
          "telemetry_interval_s": 0.5, "telemetry_audit_placement": false,
          "rw_ratio_schedule": [5, 50],
          "static_reorganize_after_build": true,
          "profile_spans": true, "span_exemplars": 5,
          "shards": 2, "shard_placement": "Structure_Shard",
          "shard_hop_latency_s": 0.004, "shard_group_cap": 16,
          "arrival": "Open", "arrival_rate_tps": 25,
          "seed": 9007199254740993,
          "workload": {"density": "hi10", "rw_ratio": 5},
          "clustering": {"pool": "With_IO_limit", "io_limit": 3,
                         "split": "Linear_Split", "use_hints": true,
                         "hint_kind": "version-history", "hint_boost": 2.5}
        },
        "sweep": {
          "clustering": [{"pool": "No_limit"}],
          "workload": [{"density": "low3", "rw_ratio": 100}],
          "replacement": ["LRU"], "prefetch": ["No_prefetch"],
          "buffer_pages": [64], "shards": [2, 4],
          "shard_placement": ["Hash_Shard"], "users": [3]
        }
      })json",
       R"json({
        "name": "gates",
        "config": {"profile_spans": true, "shards": 2, "arrival": "Open"}
      })json"},
      {R"json({
        "name": "every_knob_b",
        "config": {
          "concurrency": {"enabled": true, "cc_lock_timeout_s": 0.5,
                          "cc_max_retries": 3, "cc_backoff_base_s": 0.02,
                          "cc_backoff_cap_s": 1.0, "cc_page_latches": false},
          "workload": {"kind": "ocb", "rw_ratio": 20, "classes": 8,
                       "hierarchy_depth": 3, "instances": 600,
                       "refs_per_object": 2, "locality": "zipf",
                       "zipf_theta": 0.6, "gaussian_window": 0.1,
                       "base_object_bytes": 200,
                       "inheritance_fraction": 0.4,
                       "interleaved_read_probability": 0.5,
                       "partitions": 6, "set_lookup_size": 4,
                       "traversal_depth": 2,
                       "read_mix": [0.4, 0.3, 0.2, 0.1],
                       "churn_probability": 0.05, "churn_burst_length": 4,
                       "churn_cross_partition": 0.5},
          "clustering": {"dynamic": "DSTC", "dyn_observation_period": 64,
                         "dyn_heat_decay": 0.25,
                         "dyn_max_tracked_objects": 1000,
                         "dyn_max_tracked_links": 2000,
                         "dyn_trigger_threshold": 4.0,
                         "dyn_unit_size": 8, "dyn_max_moves": 32,
                         "opcf_watermark": 1.5, "opcf_batch": 2}
        }
      })json",
       R"json({
        "name": "gates",
        "config": {
          "concurrency": {"enabled": true},
          "workload": {"kind": "ocb", "churn_probability": 0.05},
          "clustering": {"dynamic": "DSTC"}
        }
      })json"},
  };
  const std::set<std::string> openers = {
      "profile_spans", "shards", "arrival", "enabled",
      "kind", "churn_probability", "dynamic"};
  const std::vector<std::pair<std::string, std::string>> sections = {
      {"", R"({"name": "x", "?": 0})"},
      {"config", R"({"name": "x", "config": {"?": 0}})"},
      {"config.workload", R"({"name": "x", "config": {"workload": {"?": 0}}})"},
      {"config.clustering",
       R"({"name": "x", "config": {"clustering": {"?": 0}}})"},
      {"config.concurrency",
       R"({"name": "x", "config": {"concurrency": {"?": 0}}})"},
      {"sweep", R"({"name": "x", "sweep": {"?": 0}})"},
  };
  // A section of a parsed document by dotted path, or nullptr.
  const auto section = [](const JsonValue& doc, const std::string& path) {
    const JsonValue* at = &doc;
    std::istringstream parts(path);
    for (std::string part; at != nullptr && std::getline(parts, part, '.');) {
      at = at->Find(part);
    }
    return at;
  };

  const auto defaults = ParseScenario(R"({"name": "defaults"})");
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  const auto defaults_doc = JsonValue::Parse(defaults->ToJson());
  ASSERT_TRUE(defaults_doc.ok());

  std::set<std::string> covered;  // "section/key"
  for (const auto& [full_json, gates_json] : documents) {
    const auto first = ParseScenario(full_json);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string json = first->ToJson();
    const auto second = ParseScenario(json);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(json, second->ToJson());

    const auto gates = ParseScenario(gates_json);
    ASSERT_TRUE(gates.ok()) << gates.status().ToString();
    const auto input_doc = JsonValue::Parse(full_json);
    const auto full_doc = JsonValue::Parse(json);
    const auto gates_doc = JsonValue::Parse(gates->ToJson());
    ASSERT_TRUE(input_doc.ok() && full_doc.ok() && gates_doc.ok());
    for (const auto& [path, probe] : sections) {
      const JsonValue* input = section(*input_doc, path);
      if (input == nullptr) continue;
      for (const auto& [key, given] : input->members()) {
        SCOPED_TRACE(path + "/" + key);
        const JsonValue* written = section(*full_doc, path)->Find(key);
        ASSERT_NE(written, nullptr) << "set but not serialized";
        covered.insert(path + "/" + key);
        if (written->is_object()) continue;  // a section, checked on its own
        EXPECT_TRUE(SameValue(given, *written))
            << Render(given) << " written as " << Render(*written);
        if (openers.count(key) != 0) continue;
        const JsonValue* at_defaults = section(*defaults_doc, path);
        if (path.starts_with("config") && key != "rw_ratio_schedule" &&
            (at_defaults == nullptr || at_defaults->Find(key) == nullptr)) {
          std::vector<std::string> parts;
          std::istringstream split(path);
          for (std::string part; std::getline(split, part, '.');) {
            parts.push_back(part);
          }
          std::string alone = "{\"" + key + "\": ";
          alone += Render(given);
          alone += "}";
          for (auto part = parts.rbegin(); part != parts.rend(); ++part) {
            alone = "{\"" + *part + "\": " + alone + "}";
          }
          std::string scenario = alone;
          scenario.replace(0, 1, "{\"name\": \"x\", ");
          EXPECT_FALSE(ParseScenario(scenario).ok())
              << "ungated: " << alone;
        }
        const JsonValue* baseline = section(*gates_doc, path);
        const JsonValue* other =
            baseline == nullptr ? nullptr : baseline->Find(key);
        if (other != nullptr) {
          EXPECT_NE(Render(*written), Render(*other));
        }
      }
    }
  }
  for (const auto& [path, probe] : sections) {
    const std::vector<std::string> keys = KnownKeys(probe);
    EXPECT_FALSE(keys.empty()) << path;
    for (const std::string& key : keys) {
      if (key == "buffer_level") continue;  // parse-only
      EXPECT_EQ(covered.count(path + "/" + key), 1u)
          << path << "/" << key << " is never written at a non-default value";
    }
  }
}

TEST(ScenarioTest, DynamicKnobsRoundTripAndExpand) {
  const auto first = ParseScenario(R"json({
    "name": "dyn_roundtrip",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "seed": 5,
      "clustering": {"pool": "No_Clustering", "dynamic": "OPCF",
                     "dyn_observation_period": 64,
                     "dyn_trigger_threshold": 4.0,
                     "dyn_unit_size": 8,
                     "opcf_watermark": 1.5, "opcf_batch": 2}
    },
    "sweep": {
      "clustering": [{"pool": "No_Clustering", "dynamic": "off"},
                     {"pool": "No_Clustering", "dynamic": "dstc_dynamic"}]
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->base.clustering.dynamic.policy, dyn::PolicyKind::kOpcf);
  EXPECT_EQ(first->base.clustering.dynamic.observation_period, 64);
  EXPECT_DOUBLE_EQ(first->base.clustering.dynamic.trigger_threshold, 4.0);
  EXPECT_EQ(first->base.clustering.dynamic.max_unit_size, 8);
  EXPECT_DOUBLE_EQ(first->base.clustering.dynamic.opcf_queue_watermark, 1.5);
  EXPECT_EQ(first->base.clustering.dynamic.opcf_batch, 2);

  const std::string json = first->ToJson();
  const auto second = ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // Sweep entries inherit the base's dyn tuning; the policy kind is the
  // per-entry override ("off" disables, "dstc_dynamic" is the registry
  // alias for DSTC) and lands in the cell label via LabelSuffix.
  ASSERT_EQ(first->clustering.size(), 2u);
  EXPECT_EQ(first->clustering[0].dynamic.policy, dyn::PolicyKind::kNone);
  EXPECT_EQ(first->clustering[1].dynamic.policy, dyn::PolicyKind::kDstc);
  EXPECT_EQ(first->clustering[1].dynamic.observation_period, 64);
  const auto cells = first->Expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].policy, "No_Clustering");
  EXPECT_EQ(cells[1].policy, "No_Clustering+DSTC");
}

TEST(ScenarioTest, SpanProfilerKnobsRoundTripAndGate) {
  const auto first = ParseScenario(R"json({
    "name": "span_roundtrip",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "seed": 5,
      "profile_spans": true,
      "span_exemplars": 7,
      "clustering": {"pool": "No_Clustering"}
    }
  })json");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->base.profile_spans);
  EXPECT_EQ(first->base.span_exemplars, 7);
  const std::string json = first->ToJson();
  const auto second = ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // span_exemplars without profile_spans is an authoring mistake, not a
  // silent no-op; the gate must not depend on key order (it is checked
  // after the whole config section is parsed).
  const auto bad = ParseScenario(R"json({
    "name": "span_bad",
    "config": {
      "buffer_pages": 64,
      "warmup_transactions": 10,
      "measured_transactions": 60,
      "span_exemplars": 7,
      "clustering": {"pool": "No_Clustering"}
    }
  })json");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("profile_spans"), std::string::npos)
      << bad.status().ToString();
}

TEST(PolicyRegistryTest, DynamicAxisResolvesCanonicalNamesAndAliases) {
  const PolicyRegistry& reg = PolicyRegistry::Global();
  using D = dyn::PolicyKind;
  for (D p : {D::kNone, D::kDstc, D::kOpcf}) {
    EXPECT_EQ(reg.Dynamic(dyn::PolicyKindName(p)), p);
  }
  EXPECT_EQ(reg.Dynamic("none"), D::kNone);
  EXPECT_EQ(reg.Dynamic("off"), D::kNone);
  EXPECT_EQ(reg.Dynamic("static"), D::kNone);
  EXPECT_EQ(reg.Dynamic("dstc"), D::kDstc);
  EXPECT_EQ(reg.Dynamic("opcf"), D::kOpcf);
  EXPECT_EQ(reg.Dynamic("opportunistic"), D::kOpcf);
  EXPECT_FALSE(reg.Dynamic("bogus").has_value());
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kDynamic).size(), 3u);
  EXPECT_EQ(reg.CanonicalNames(PolicyAxis::kDynamic)[0], "No_Dynamic");
}

TEST(ScenarioTest, LoadScenarioFileReadsAndReportsPath) {
  const std::string path = testing::TempDir() + "/t.scenario.json";
  {
    std::ofstream out(path);
    out << kFig51Scenario;
  }
  const auto spec = LoadScenarioFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "fig5_1_fast");
  std::remove(path.c_str());

  const auto missing = LoadScenarioFile(path + ".nope");
  EXPECT_FALSE(missing.ok());

  {
    std::ofstream out(path);
    out << "{ not json";
  }
  const auto bad = LoadScenarioFile(path);
  ASSERT_FALSE(bad.ok());
  // Parse failures name the file.
  EXPECT_NE(bad.status().message().find(path), std::string::npos)
      << bad.status().ToString();
  std::remove(path.c_str());
}

// The tentpole's behaviour-preservation check at unit scale: a scenario
// cell run through the ExperimentRunner (the semclust_run path) produces
// the identical RunResult as the facade driven directly with the same
// derived seed (the legacy path).
TEST(ScenarioTest, FacadeEquivalenceWithDirectModelRun) {
  const auto spec = ParseScenario(R"json({
    "name": "facade_equivalence",
    "config": {
      "database_bytes": 2097152,
      "buffer_pages": 64,
      "warmup_transactions": 50,
      "measured_transactions": 300,
      "seed": 7
    }
  })json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto cells = spec->Expand();
  ASSERT_EQ(cells.size(), 1u);

  const exec::ExperimentRunner runner(1);
  const auto outcomes = runner.Run({cells[0].config});
  ASSERT_EQ(outcomes.size(), 1u);

  ModelConfig direct = TestConfig();
  direct.seed = exec::ExperimentRunner::CellSeed(7, 0);
  direct.cell_index = 0;
  EngineeringDbModel model(direct);
  const RunResult expected = model.Run();

  const RunResult& got = outcomes[0].result;
  EXPECT_DOUBLE_EQ(got.response_time.Mean(), expected.response_time.Mean());
  EXPECT_EQ(got.transactions, expected.transactions);
  EXPECT_EQ(got.logical_reads, expected.logical_reads);
  EXPECT_EQ(got.logical_writes, expected.logical_writes);
  EXPECT_EQ(got.data_reads, expected.data_reads);
  EXPECT_EQ(got.total_physical_ios(), expected.total_physical_ios());
  EXPECT_EQ(got.buffer_hit_ratio, expected.buffer_hit_ratio);
}

}  // namespace
}  // namespace oodb::core
