#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "buffer/buffer_pool.h"
#include "cluster/affinity.h"
#include "cluster/cluster_manager.h"
#include "core/bench_report.h"
#include "core/engineering_db.h"
#include "core/experiment.h"
#include "core/model_config.h"
#include "dyn/dyn_config.h"
#include "exec/experiment_runner.h"
#include "ocb/ocb_builder.h"
#include "ocb/ocb_config.h"
#include "obs/metrics.h"
#include "obs/placement_auditor.h"
#include "obs/time_series.h"
#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"
#include "storage/storage_manager.h"
#include "util/random.h"

namespace oodb {
namespace {

// ------------------------------------------------------ sampler mechanics

TEST(TimeSeriesSamplerTest, DeltasBetweenSamplesNotCumulatives) {
  obs::MetricsRegistry reg(/*enabled=*/true);
  const obs::CounterHandle c = reg.Counter("c");
  obs::TimeSeriesSampler sampler(&reg, /*interval_s=*/0);

  reg.Add(c, 100);  // warmup activity lands in the baseline, not a sample
  sampler.StartMeasurement(10.0);
  reg.Add(c, 5);
  sampler.SampleEpochBoundary(20.0, 0);
  reg.Add(c, 7);
  sampler.SampleFinal(30.0, 1);

  const obs::TimeSeries& series = sampler.series();
  ASSERT_EQ(series.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(series.samples[0].sim_time_s, 20.0);
  EXPECT_EQ(series.samples[0].epoch, 0u);
  EXPECT_TRUE(series.samples[0].epoch_boundary);
  EXPECT_EQ(series.samples[0].counter_delta("c"), 5u);
  EXPECT_DOUBLE_EQ(series.samples[1].sim_time_s, 30.0);
  EXPECT_EQ(series.samples[1].epoch, 1u);
  EXPECT_TRUE(series.samples[1].epoch_boundary);
  EXPECT_EQ(series.samples[1].counter_delta("c"), 7u);
}

TEST(TimeSeriesSamplerTest, ZeroDeltasKeepTheKeySet) {
  obs::MetricsRegistry reg(/*enabled=*/true);
  reg.Counter("idle");
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.StartMeasurement(0.0);
  sampler.SampleFinal(1.0, 0);
  ASSERT_EQ(sampler.series().samples.size(), 1u);
  EXPECT_EQ(sampler.series().samples[0].counter_delta("idle"), 0u);
}

TEST(TimeSeriesSamplerTest, CounterRegisteredMidSeriesDeltasFromZero) {
  obs::MetricsRegistry reg(/*enabled=*/true);
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.StartMeasurement(0.0);
  const obs::CounterHandle late = reg.Counter("late");
  reg.Add(late, 3);
  sampler.SampleFinal(1.0, 0);
  EXPECT_EQ(sampler.series().samples[0].counter_delta("late"), 3u);
  EXPECT_EQ(sampler.series().samples[0].counter_delta("nonesuch"),
            std::nullopt);
}

TEST(TimeSeriesSamplerTest, PreSampleHookSyncsMirroredCounters) {
  // The model mirrors component-owned counters into the registry with
  // set-semantics right before each snapshot; deltas must still come out
  // as per-window flows.
  obs::MetricsRegistry reg(/*enabled=*/true);
  const obs::CounterHandle mirror = reg.Counter("mirror");
  uint64_t component_total = 0;
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.set_pre_sample_hook(
      [&] { reg.SetCounter(mirror, component_total); });

  sampler.StartMeasurement(0.0);
  component_total = 42;
  sampler.SampleEpochBoundary(1.0, 0);
  component_total = 50;
  sampler.SampleFinal(2.0, 1);

  const auto& samples = sampler.series().samples;
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].counter_delta("mirror"), 42u);
  EXPECT_EQ(samples[1].counter_delta("mirror"), 8u);
}

TEST(TimeSeriesSamplerTest, GaugesAreLevelsNotFlows) {
  obs::MetricsRegistry reg(/*enabled=*/true);
  const obs::GaugeHandle g = reg.Gauge("g");
  obs::TimeSeriesSampler sampler(&reg, 0);
  sampler.StartMeasurement(0.0);
  reg.Set(g, 2.5);
  sampler.SampleEpochBoundary(1.0, 0);
  reg.Set(g, 7.5);
  sampler.SampleFinal(2.0, 1);
  const auto& samples = sampler.series().samples;
  ASSERT_EQ(samples.size(), 2u);
  ASSERT_EQ(samples[0].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].gauges[0].second, 2.5);
  EXPECT_DOUBLE_EQ(samples[1].gauges[0].second, 7.5);
}

TEST(TimeSeriesSamplerTest, IntervalScheduleCatchesUpWithoutBackfill) {
  obs::MetricsRegistry reg(/*enabled=*/true);
  obs::TimeSeriesSampler sampler(&reg, /*interval_s=*/10.0);
  sampler.Poll(100.0, 0);  // before StartMeasurement: no-op
  EXPECT_TRUE(sampler.series().empty());

  sampler.StartMeasurement(0.0);
  sampler.Poll(5.0, 0);
  EXPECT_EQ(sampler.series().samples.size(), 0u);
  sampler.Poll(12.0, 0);  // crossed t=10
  ASSERT_EQ(sampler.series().samples.size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.series().samples[0].sim_time_s, 12.0);
  EXPECT_FALSE(sampler.series().samples[0].epoch_boundary);
  sampler.Poll(13.0, 0);  // next boundary is 20
  EXPECT_EQ(sampler.series().samples.size(), 1u);
  sampler.Poll(47.0, 0);  // skipped 20/30/40: ONE catch-up sample
  ASSERT_EQ(sampler.series().samples.size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.series().samples[1].sim_time_s, 47.0);
  sampler.Poll(50.0, 0);  // next boundary after 47 is 50
  EXPECT_EQ(sampler.series().samples.size(), 3u);
}

TEST(TimeSeriesTest, MergeFromSumsDeltasByIndex) {
  obs::MetricsRegistry reg_a(/*enabled=*/true);
  const obs::CounterHandle ca = reg_a.Counter("c");
  obs::TimeSeriesSampler a(&reg_a, 0);
  a.StartMeasurement(0.0);
  reg_a.Add(ca, 5);
  a.SampleFinal(10.0, 0);

  obs::MetricsRegistry reg_b(/*enabled=*/true);
  const obs::CounterHandle cb = reg_b.Counter("c");
  obs::TimeSeriesSampler b(&reg_b, 0);
  b.StartMeasurement(0.0);
  reg_b.Add(cb, 7);
  b.SampleFinal(20.0, 0);

  obs::TimeSeries merged = a.series();
  merged.MergeFrom(b.series());
  ASSERT_EQ(merged.samples.size(), 1u);
  EXPECT_EQ(merged.samples[0].counter_delta("c"), 12u);
  EXPECT_DOUBLE_EQ(merged.samples[0].sim_time_s, 20.0);  // max over cells
}

// ------------------------------------------------------ placement auditor

class PlacementAuditorTest : public ::testing::Test {
 protected:
  PlacementAuditorTest() : graph_(&lattice_), store_(100) {
    t_ = lattice_.DefineType("t", obj::kInvalidType, 0, {});
    u_ = lattice_.DefineType("u", obj::kInvalidType, 0, {});
    fam_ = graph_.NewFamily("f");
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager store_;
  obj::TypeId t_ = obj::kInvalidType;
  obj::TypeId u_ = obj::kInvalidType;
  obj::FamilyId fam_ = obj::kInvalidFamily;
};

TEST_F(PlacementAuditorTest, AuditsEdgesOccupancyAndConfigurations) {
  const obj::ObjectId a = graph_.Create(fam_, 0, t_, 40);
  const obj::ObjectId b = graph_.Create(fam_, 1, t_, 40);
  const obj::ObjectId c = graph_.Create(fam_, 2, u_, 40);
  const obj::ObjectId d = graph_.Create(fam_, 3, u_, 40);  // never placed

  const store::PageId p0 = store_.AllocatePage();
  const store::PageId p1 = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(a, 40, p0).ok());
  ASSERT_TRUE(store_.Place(b, 40, p0).ok());
  ASSERT_TRUE(store_.Place(c, 40, p1).ok());

  graph_.Relate(a, b, obj::RelKind::kConfiguration);   // co-located
  graph_.Relate(a, c, obj::RelKind::kConfiguration);   // cross-page
  graph_.Relate(b, c, obj::RelKind::kCorrespondence);  // symmetric: 2 edges
  graph_.Relate(a, d, obj::RelKind::kVersionHistory);  // target unplaced

  const obs::PlacementAuditor auditor(&graph_, &store_);
  const obs::PlacementSample s = auditor.Sample();

  EXPECT_EQ(s.live_objects, 4u);
  EXPECT_EQ(s.placed_objects, 3u);
  EXPECT_EQ(s.pages, 2u);
  EXPECT_EQ(s.nonempty_pages, 2u);

  const auto& config =
      s.by_kind[static_cast<size_t>(obj::RelKind::kConfiguration)];
  EXPECT_EQ(config.edges, 2u);
  EXPECT_EQ(config.colocated, 1u);
  const auto& corr =
      s.by_kind[static_cast<size_t>(obj::RelKind::kCorrespondence)];
  EXPECT_EQ(corr.edges, 2u);  // counted once per symmetric endpoint
  EXPECT_EQ(corr.colocated, 0u);
  const auto& vh =
      s.by_kind[static_cast<size_t>(obj::RelKind::kVersionHistory)];
  EXPECT_EQ(vh.edges, 0u);  // unplaced endpoint does not qualify
  EXPECT_EQ(s.edges, 4u);
  EXPECT_EQ(s.colocated, 1u);
  EXPECT_DOUBLE_EQ(*s.ColocatedFraction(), 0.25);

  // p0 is 80/100 full (decile 8), p1 is 40/100 full (decile 4).
  EXPECT_EQ(s.occupancy_histogram[8], 1u);
  EXPECT_EQ(s.occupancy_histogram[4], 1u);
  EXPECT_DOUBLE_EQ(s.mean_occupancy, 0.6);

  // Both types fit on one page and span exactly one: no fragmentation.
  EXPECT_EQ(s.types_audited, 2u);
  EXPECT_DOUBLE_EQ(s.mean_type_fragmentation, 1.0);

  // `a` is the sole configuration root; {a, b, c} spans two pages.
  EXPECT_EQ(s.configurations, 1u);
  EXPECT_DOUBLE_EQ(s.mean_pages_per_configuration, 2.0);
}

TEST_F(PlacementAuditorTest, DeletedObjectsAreExcluded) {
  const obj::ObjectId a = graph_.Create(fam_, 0, t_, 40);
  const obj::ObjectId b = graph_.Create(fam_, 1, t_, 40);
  const store::PageId p0 = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(a, 40, p0).ok());
  ASSERT_TRUE(store_.Place(b, 40, p0).ok());
  graph_.Relate(a, b, obj::RelKind::kConfiguration);
  graph_.Remove(b);

  const obs::PlacementAuditor auditor(&graph_, &store_);
  const obs::PlacementSample s = auditor.Sample();
  EXPECT_EQ(s.live_objects, 1u);
  EXPECT_EQ(s.edges, 0u);  // Remove detached the edge
  EXPECT_EQ(s.ColocatedFraction(), std::nullopt);
}

TEST_F(PlacementAuditorTest, ChurnEmptiedPagesKeepRatiosFinite) {
  // Structural churn can delete every object off a page; the page stays
  // allocated. The auditor must report it via empty_pages and keep every
  // mean finite (the NaN regression this guards: mean over zero non-empty
  // pages).
  const obj::ObjectId a = graph_.Create(fam_, 0, t_, 40);
  const obj::ObjectId b = graph_.Create(fam_, 1, t_, 40);
  const obj::ObjectId c = graph_.Create(fam_, 2, t_, 40);
  const store::PageId p0 = store_.AllocatePage();
  const store::PageId p1 = store_.AllocatePage();
  ASSERT_TRUE(store_.Place(a, 40, p0).ok());
  ASSERT_TRUE(store_.Place(b, 40, p0).ok());
  ASSERT_TRUE(store_.Place(c, 40, p1).ok());
  graph_.Relate(a, b, obj::RelKind::kConfiguration);

  // Churn empties p1.
  graph_.Remove(c);
  ASSERT_TRUE(store_.Erase(c).ok());

  const obs::PlacementAuditor auditor(&graph_, &store_);
  obs::PlacementSample s = auditor.Sample();
  EXPECT_EQ(s.pages, 2u);
  EXPECT_EQ(s.nonempty_pages, 1u);
  EXPECT_EQ(s.empty_pages, 1u);
  EXPECT_TRUE(std::isfinite(s.mean_occupancy));
  EXPECT_DOUBLE_EQ(s.mean_occupancy, 0.8);  // p1 excluded from the mean
  EXPECT_TRUE(std::isfinite(s.mean_type_fragmentation));

  // Extreme: churn empties the whole store. Every ratio degrades to a
  // well-defined zero / nullopt, never NaN, and the JSON stays parseable.
  graph_.Remove(a);
  graph_.Remove(b);
  ASSERT_TRUE(store_.Erase(a).ok());
  ASSERT_TRUE(store_.Erase(b).ok());
  s = auditor.Sample();
  EXPECT_EQ(s.live_objects, 0u);
  EXPECT_EQ(s.nonempty_pages, 0u);
  EXPECT_EQ(s.empty_pages, 2u);
  EXPECT_DOUBLE_EQ(s.mean_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_type_fragmentation, 0.0);
  EXPECT_EQ(s.ColocatedFraction(), std::nullopt);
  const std::string json = s.ToJson();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"empty_pages\":2"), std::string::npos) << json;
}

// ------------------------------------------- configuration walk exactness

// The auditor as it was before the configuration walk ran on a compact
// index, kept verbatim as the oracle: Sample() must reproduce it byte for
// byte, including where the walk cap makes the result order-dependent.
obs::PlacementSample OracleSample(const obj::ObjectGraph& graph,
                                  const store::StorageManager& storage) {
  constexpr size_t kMaxConfigurationWalk = 4096;
  obs::PlacementSample s;

  const size_t type_count = graph.lattice().size();
  const size_t page_count = storage.page_count();
  std::vector<uint64_t> type_bytes(type_count, 0);
  std::vector<uint64_t> type_pages(type_count, 0);
  std::vector<uint8_t> type_page_seen(type_count * page_count, 0);
  std::vector<obj::ObjectId> config_roots;

  const auto num_objects = static_cast<obj::ObjectId>(graph.size());
  for (obj::ObjectId id = 0; id < num_objects; ++id) {
    if (!graph.IsLive(id)) continue;
    ++s.live_objects;
    const obj::DesignObject& o = graph.object(id);
    const store::PageId my_page = storage.PageOf(id);
    if (my_page != store::kInvalidPage) {
      ++s.placed_objects;
      type_bytes[o.type] += storage.SizeOf(id);
      uint8_t& seen = type_page_seen[o.type * page_count + my_page];
      if (seen == 0) {
        seen = 1;
        ++type_pages[o.type];
      }
    }
    bool has_down_config = false;
    bool has_up_config = false;
    for (const obj::Edge e : graph.edges(id)) {
      if (e.kind == obj::RelKind::kConfiguration) {
        (e.dir == obj::Direction::kDown ? has_down_config : has_up_config) =
            true;
      }
      // Count each edge once, from its kDown side.
      if (e.dir != obj::Direction::kDown) continue;
      if (my_page == store::kInvalidPage || !graph.IsLive(e.target)) continue;
      const store::PageId target_page = storage.PageOf(e.target);
      if (target_page == store::kInvalidPage) continue;
      obs::EdgeLocality& kind = s.by_kind[static_cast<size_t>(e.kind)];
      ++kind.edges;
      ++s.edges;
      if (target_page == my_page) {
        ++kind.colocated;
        ++s.colocated;
      }
    }
    if (has_down_config && !has_up_config) config_roots.push_back(id);
  }

  s.pages = storage.page_count();
  double fill_sum = 0;
  for (store::PageId p = 0; p < storage.page_count(); ++p) {
    const store::Page& page = storage.page(p);
    if (page.object_count() == 0) {
      ++s.empty_pages;
      continue;
    }
    ++s.nonempty_pages;
    const double fill = static_cast<double>(page.used_bytes()) /
                        static_cast<double>(page.capacity_bytes());
    fill_sum += fill;
    size_t bucket = static_cast<size_t>(fill * obs::kOccupancyBuckets);
    if (bucket >= obs::kOccupancyBuckets) bucket = obs::kOccupancyBuckets - 1;
    ++s.occupancy_histogram[bucket];
  }
  if (s.nonempty_pages > 0) {
    s.mean_occupancy = fill_sum / static_cast<double>(s.nonempty_pages);
  }

  const uint64_t capacity = storage.page_size_bytes();
  double frag_sum = 0;
  for (size_t type = 0; type < type_count; ++type) {
    if (type_bytes[type] == 0) continue;  // no placed instances
    const uint64_t min_pages =
        std::max<uint64_t>(1, (type_bytes[type] + capacity - 1) / capacity);
    frag_sum += static_cast<double>(type_pages[type]) /
                static_cast<double>(min_pages);
    ++s.types_audited;
  }
  if (s.types_audited > 0) {
    s.mean_type_fragmentation =
        frag_sum / static_cast<double>(s.types_audited);
  }

  double config_pages_sum = 0;
  std::vector<obj::ObjectId> stack;
  std::vector<uint32_t> object_mark(graph.size(), 0);
  std::vector<uint32_t> page_mark(page_count, 0);
  uint32_t walk = 0;
  for (const obj::ObjectId root : config_roots) {
    ++walk;
    object_mark[root] = walk;
    size_t visited = 1;
    size_t distinct_pages = 0;
    stack.assign(1, root);
    while (!stack.empty() && visited < kMaxConfigurationWalk) {
      const obj::ObjectId o = stack.back();
      stack.pop_back();
      const store::PageId p = storage.PageOf(o);
      if (p != store::kInvalidPage && page_mark[p] != walk) {
        page_mark[p] = walk;
        ++distinct_pages;
      }
      graph.ForEachNeighbor(o, obj::RelKind::kConfiguration,
                            obj::Direction::kDown, [&](obj::ObjectId c) {
                              if (graph.IsLive(c) && object_mark[c] != walk) {
                                object_mark[c] = walk;
                                ++visited;
                                stack.push_back(c);
                              }
                            });
    }
    config_pages_sum += static_cast<double>(distinct_pages);
    ++s.configurations;
  }
  if (s.configurations > 0) {
    s.mean_pages_per_configuration =
        config_pages_sum / static_cast<double>(s.configurations);
  }
  return s;
}

/// An OCB database built and loaded outside the model (ocb_mix's shape:
/// 6000 instances of 16 classes, three references each). The classes are
/// registered before the affinity model sizes its per-type table.
struct OcbPlacement {
  OcbPlacement(ocb::RefLocality locality, cluster::CandidatePool pool)
      : config(ConfigFor(locality)),
        schema(ocb::RegisterOcbClasses(lattice, config, 7)),
        graph(&lattice),
        storage(4096, 0.8),
        buffer(64, buffer::ReplacementPolicy::kLru, 1),
        affinity(&lattice),
        cluster(&graph, &storage, &affinity, &buffer, ClusterFor(pool)) {
    ocb::OcbBuilder(&graph, &cluster, &buffer, config).Build(schema, 7);
  }

  static ocb::OcbConfig ConfigFor(ocb::RefLocality locality) {
    ocb::OcbConfig c;
    c.enabled = true;
    c.classes = 16;
    c.instances = 6000;
    c.refs_per_object = 3;
    c.locality = locality;
    return c;
  }
  static cluster::ClusterConfig ClusterFor(cluster::CandidatePool pool) {
    cluster::ClusterConfig c;
    c.pool = pool;
    return c;
  }

  ocb::OcbConfig config;
  obj::TypeLattice lattice;
  ocb::OcbSchema schema;
  obj::ObjectGraph graph;
  store::StorageManager storage;
  buffer::BufferPool buffer;
  cluster::AffinityModel affinity;
  cluster::ClusterManager cluster;
};

void ExpectSampleMatchesOracle(const obj::ObjectGraph& graph,
                               const store::StorageManager& storage) {
  const obs::PlacementSample fast =
      obs::PlacementAuditor(&graph, &storage).Sample();
  const obs::PlacementSample oracle = OracleSample(graph, storage);
  EXPECT_GT(oracle.configurations, 0u);
  EXPECT_EQ(fast.ToJson(), oracle.ToJson());
}

TEST(PlacementAuditorExactnessTest, OcbGraphsMatchTheOracle) {
  for (const ocb::RefLocality locality :
       {ocb::RefLocality::kUniform, ocb::RefLocality::kZipf,
        ocb::RefLocality::kGaussian}) {
    for (const cluster::CandidatePool pool :
         {cluster::CandidatePool::kNoClustering,
          cluster::CandidatePool::kWithinDb}) {
      SCOPED_TRACE(ocb::RefLocalityName(locality));
      SCOPED_TRACE(cluster::CandidatePoolName(pool));
      OcbPlacement db(locality, pool);
      ExpectSampleMatchesOracle(db.graph, db.storage);

      // Churn: delete every 5th object (dropping it from storage too) and
      // unplace every 7th survivor, then drain the first 20 pages. Walks
      // now meet removed children, unplaced objects and empty pages.
      const auto n = static_cast<obj::ObjectId>(db.graph.size());
      for (obj::ObjectId id = 0; id < n; ++id) {
        if (id % 5 == 0) {
          db.graph.Remove(id);
          ASSERT_TRUE(db.storage.Erase(id).ok());
        } else if (id % 7 == 0) {
          ASSERT_TRUE(db.storage.Erase(id).ok());
        }
      }
      for (obj::ObjectId id = 0; id < n; ++id) {
        const store::PageId p = db.storage.PageOf(id);
        if (p != store::kInvalidPage && p < 20) {
          ASSERT_TRUE(db.storage.Erase(id).ok());
        }
      }
      const obs::PlacementSample churned =
          obs::PlacementAuditor(&db.graph, &db.storage).Sample();
      EXPECT_GT(churned.empty_pages, 0u);
      EXPECT_LT(churned.placed_objects, churned.live_objects);
      ExpectSampleMatchesOracle(db.graph, db.storage);
    }
  }
}

TEST(PlacementAuditorExactnessTest, CyclicConfigurationsMatchTheOracle) {
  // Random configuration edges over 9000 objects: cycles, shared
  // components, repeated edges and walks long enough to reach the cap.
  // Objects [0, 300) only point down, so many of them are roots.
  obj::TypeLattice lattice;
  const obj::TypeId t = lattice.DefineType("t", obj::kInvalidType, 0, {});
  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(8000);
  const obj::FamilyId fam = graph.NewFamily("f");
  constexpr obj::ObjectId kObjects = 9000;
  SplitMix64 rng(42);
  for (obj::ObjectId i = 0; i < kObjects; ++i) {
    graph.Create(fam, 0, t, 40);
    if (i % 10 == 0) storage.AllocatePage();
    if (i % 13 != 0) {  // some objects stay unplaced
      ASSERT_TRUE(storage.Place(i, 40, rng.NextBelow(storage.page_count()))
                      .ok());
    }
  }
  for (obj::ObjectId i = 0; i < kObjects; ++i) {
    const uint64_t fanout = 1 + rng.NextBelow(3);
    for (uint64_t k = 0; k < fanout; ++k) {
      const auto j =
          static_cast<obj::ObjectId>(300 + rng.NextBelow(kObjects - 300));
      if (j != i) graph.Relate(i, j, obj::RelKind::kConfiguration);
    }
  }
  ExpectSampleMatchesOracle(graph, storage);
}

TEST(PlacementAuditorExactnessTest, WalkStopsAfterTheCapsLastPop) {
  // One root heading a 5000-object chain. Marking on push, the walk pops
  // objects 0..4094 (the 4095th pop marks the 4096th object and ends the
  // walk). Two objects per page, they span pages 0..2047; one per page,
  // which also catches a walk that pops one object too many, 4095 pages.
  for (const obj::ObjectId per_page : {2u, 1u}) {
    obj::TypeLattice lattice;
    const obj::TypeId t = lattice.DefineType("t", obj::kInvalidType, 0, {});
    obj::ObjectGraph graph(&lattice);
    store::StorageManager storage(100);
    const obj::FamilyId fam = graph.NewFamily("f");
    for (obj::ObjectId i = 0; i < 5000; ++i) {
      graph.Create(fam, 0, t, 40);
      if (i % per_page == 0) storage.AllocatePage();
      ASSERT_TRUE(storage.Place(i, 40, i / per_page).ok());
      if (i > 0) graph.Relate(i - 1, i, obj::RelKind::kConfiguration);
    }
    const obs::PlacementSample s =
        obs::PlacementAuditor(&graph, &storage).Sample();
    EXPECT_EQ(s.configurations, 1u);
    EXPECT_EQ(s.mean_pages_per_configuration, per_page == 2 ? 2048.0 : 4095.0);
    EXPECT_EQ(s.ToJson(), OracleSample(graph, storage).ToJson());
  }
}

// Hand-built configuration graphs for the shared-closure walk: the
// auditor walks the closure H of the largest strongly connected component
// S once per sample and adds each root's local walk to it (DESIGN.md §9).
// Objects are 40 bytes on 1000-byte pages; Add() gives each object a page
// of its own, so an uncapped walk spans one page per placed object.
class WalkGraph {
 public:
  WalkGraph() : graph_(&lattice_), storage_(1000) {
    type_ = lattice_.DefineType("t", obj::kInvalidType, 0, {});
    family_ = graph_.NewFamily("f");
  }

  /// A new object on a page of its own.
  obj::ObjectId Add() { return AddOn(storage_.AllocatePage()); }
  /// A new object on `page`, or unplaced for store::kInvalidPage.
  obj::ObjectId AddOn(store::PageId page) {
    const obj::ObjectId id = graph_.Create(family_, 0, type_, 40);
    if (page != store::kInvalidPage) {
      EXPECT_TRUE(storage_.Place(id, 40, page).ok());
    }
    return id;
  }
  /// `n` new objects, each on a page of its own, linked first to last.
  std::vector<obj::ObjectId> Chain(size_t n) {
    std::vector<obj::ObjectId> ids;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(Add());
      if (i > 0) Link(ids[i - 1], ids[i]);
    }
    return ids;
  }
  /// A chain closed back onto its first object.
  std::vector<obj::ObjectId> Cycle(size_t n) {
    std::vector<obj::ObjectId> ids = Chain(n);
    Link(ids.back(), ids.front());
    return ids;
  }
  void Link(obj::ObjectId parent, obj::ObjectId child) {
    graph_.Relate(parent, child, obj::RelKind::kConfiguration);
  }
  store::PageId PageOf(obj::ObjectId id) const { return storage_.PageOf(id); }

  obj::ObjectGraph& graph() { return graph_; }
  store::StorageManager& storage() { return storage_; }
  obs::PlacementSample Sample() const {
    return obs::PlacementAuditor(&graph_, &storage_).Sample();
  }

 private:
  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  obj::TypeId type_ = obj::kInvalidType;
  obj::FamilyId family_ = obj::kInvalidFamily;
};

TEST(PlacementAuditorExactnessTest, RootsInsideTheComponentMatchTheOracle) {
  // A root has no incoming configuration edge, so the only component it
  // can belong to is its own singleton, which is S when no component is
  // larger. Of equally large components the one completed last is S: the
  // component DFS starts at objects with children in id order, so here it
  // is `root`, created last. Its reach is then H itself, either under the
  // cap (H's pages) or over it (the capped walk).
  for (const size_t tree : {size_t{60}, size_t{5000}}) {
    SCOPED_TRACE(tree);
    WalkGraph g;
    const obj::ObjectId small_root = g.Add();
    const std::vector<obj::ObjectId> small = g.Chain(10);
    g.Link(small_root, small[0]);
    const std::vector<obj::ObjectId> body = g.Chain(tree);
    // A second root sharing part of the big root's configuration.
    const obj::ObjectId sharer = g.Add();
    g.Link(sharer, body[tree / 2]);
    g.Link(sharer, small[3]);
    const obj::ObjectId root = g.Add();
    g.Link(root, body[0]);
    g.Link(root, small[5]);
    ExpectSampleMatchesOracle(g.graph(), g.storage());
    const obs::PlacementSample s = g.Sample();
    EXPECT_EQ(s.configurations, 3u);
  }
}

TEST(PlacementAuditorExactnessTest, ReachingTheClosureButNotTheComponent) {
  // S is a 10-object cycle; its closure H adds a 20-object tail. `outside`
  // enters the tail only: reaching part of H proves nothing about the rest
  // of it. `inside` enters the cycle, so it reaches all of H. Their local
  // objects share pages with H's objects and with each other.
  WalkGraph g;
  const std::vector<obj::ObjectId> cycle = g.Cycle(10);
  const std::vector<obj::ObjectId> tail = g.Chain(20);
  g.Link(cycle[9], tail[0]);

  const obj::ObjectId outside = g.AddOn(g.PageOf(cycle[2]));
  const obj::ObjectId outside_part = g.AddOn(g.PageOf(tail[15]));
  g.Link(outside, outside_part);
  g.Link(outside_part, tail[12]);

  const obj::ObjectId inside = g.AddOn(g.PageOf(tail[19]));
  const obj::ObjectId inside_part = g.Add();
  const obj::ObjectId inside_shared = g.AddOn(g.PageOf(inside_part));
  g.Link(inside, inside_part);
  g.Link(inside_part, inside_shared);
  g.Link(inside_part, tail[3]);  // H outside S first, then S
  g.Link(inside_shared, cycle[4]);
  g.Link(inside, outside_part);

  ExpectSampleMatchesOracle(g.graph(), g.storage());
  // outside: cycle[2]'s page and tail[12..19]'s 8 (outside_part is on
  // tail[15]'s); inside: inside_part's page and all 30 of H.
  EXPECT_EQ(g.Sample().mean_pages_per_configuration, (9.0 + 31.0) / 2);
}

TEST(PlacementAuditorExactnessTest, ReachAroundTheCapNearAGiantComponent) {
  // One root whose local chain enters a 3000-object cycle; a 1000-object
  // tail leaves it, so |H| = 4000 and the root reaches 1 + chain + 4000
  // objects. Every object sits on its own page and every walk is a single
  // path: a reach of 4095 is walked in full (4095 pages), one of 4096 or
  // more is capped after 4095 pops (4095 pages), so counting a 4096 reach
  // uncapped would read 4096.
  for (const size_t reach : {size_t{4095}, size_t{4096}, size_t{4097}}) {
    SCOPED_TRACE(reach);
    WalkGraph g;
    const std::vector<obj::ObjectId> cycle = g.Cycle(3000);
    const std::vector<obj::ObjectId> tail = g.Chain(1000);
    g.Link(cycle.back(), tail.front());
    const obj::ObjectId root = g.Add();
    const std::vector<obj::ObjectId> local = g.Chain(reach - 1 - 4000);
    g.Link(root, local.front());
    g.Link(local.back(), cycle.front());
    ExpectSampleMatchesOracle(g.graph(), g.storage());
    EXPECT_EQ(g.Sample().mean_pages_per_configuration, 4095.0);
  }
  // The same sizes without a component: the chain alone, whose root is
  // then S (see RootsInsideTheComponentMatchTheOracle).
  for (const size_t reach : {size_t{4095}, size_t{4096}, size_t{4097}}) {
    SCOPED_TRACE(reach);
    WalkGraph g;
    g.Chain(reach);
    ExpectSampleMatchesOracle(g.graph(), g.storage());
    EXPECT_EQ(g.Sample().mean_pages_per_configuration, 4095.0);
  }
}

TEST(PlacementAuditorExactnessTest, TwoEquallyLargeComponentsMatchTheOracle) {
  // Two 50-object cycles, the first leading into the second. Which one is
  // S depends on creation order; both orders must give the oracle's count.
  // Roots enter the first, the second, both, or neither.
  for (const bool upstream_first : {true, false}) {
    SCOPED_TRACE(upstream_first);
    WalkGraph g;
    std::vector<obj::ObjectId> upstream;
    std::vector<obj::ObjectId> downstream;
    if (upstream_first) {
      upstream = g.Cycle(50);
      downstream = g.Cycle(50);
    } else {
      downstream = g.Cycle(50);
      upstream = g.Cycle(50);
    }
    g.Link(upstream[25], downstream[10]);
    const obj::ObjectId to_upstream = g.Add();
    g.Link(to_upstream, upstream[0]);
    const obj::ObjectId to_downstream = g.Add();
    g.Link(to_downstream, downstream[0]);
    const obj::ObjectId to_both = g.Add();
    g.Link(to_both, downstream[40]);
    g.Link(to_both, upstream[40]);
    const obj::ObjectId to_neither = g.Add();
    g.Chain(5);
    g.Link(to_neither, to_neither + 1);
    ExpectSampleMatchesOracle(g.graph(), g.storage());
    // 101, 51, 101 and 6 pages.
    EXPECT_EQ(g.Sample().mean_pages_per_configuration, 259.0 / 4);
  }
}

TEST(PlacementAuditorExactnessTest, DeadAndUnplacedObjectsInsideTheComponent) {
  // A 40-object cycle with every third member unplaced, and a placed
  // 30-object cycle it leads into. Roots enter each.
  WalkGraph g;
  std::vector<obj::ObjectId> big;
  for (size_t i = 0; i < 40; ++i) {
    big.push_back(i % 3 == 0 ? g.AddOn(store::kInvalidPage) : g.Add());
    if (i > 0) g.Link(big[i - 1], big[i]);
  }
  g.Link(big.back(), big.front());
  const std::vector<obj::ObjectId> small = g.Cycle(30);
  g.Link(big[7], small[0]);
  const obj::ObjectId to_big = g.Add();
  g.Link(to_big, big[1]);
  const obj::ObjectId to_small = g.AddOn(store::kInvalidPage);
  g.Link(to_small, small[29]);
  ExpectSampleMatchesOracle(g.graph(), g.storage());
  // to_big: itself, 26 placed big members and the small cycle.
  EXPECT_EQ(g.Sample().mean_pages_per_configuration, (57.0 + 30.0) / 2);

  // Deleting a member breaks the big cycle into a chain, so the small
  // cycle becomes S; deleting a member of it too leaves no cycle at all.
  g.graph().Remove(big[20]);
  ASSERT_TRUE(g.storage().Erase(big[20]).ok());
  ExpectSampleMatchesOracle(g.graph(), g.storage());
  g.graph().Remove(small[12]);
  ASSERT_TRUE(g.storage().Erase(small[12]).ok());
  ExpectSampleMatchesOracle(g.graph(), g.storage());
}

TEST(PlacementAuditorExactnessTest, AcyclicForestMatchesTheOracle) {
  // OCT-like: every component is a single object. Roots head trees of
  // fanout 3 and depth 4 whose leaves are shared with the next tree, some
  // objects unplaced, pages shared along each tree, and one tree of
  // fanout 4 and depth 6 (5461 objects) large enough for the cap.
  WalkGraph g;
  const auto tree = [&g](size_t fanout, size_t depth, size_t per_page) {
    std::vector<obj::ObjectId> level = {g.Add()};
    std::vector<obj::ObjectId> all = level;
    store::PageId page = g.PageOf(level[0]);
    size_t on_page = 1;
    for (size_t d = 1; d < depth; ++d) {
      std::vector<obj::ObjectId> next;
      for (const obj::ObjectId parent : level) {
        for (size_t k = 0; k < fanout; ++k) {
          if (on_page == per_page) {
            page = g.storage().AllocatePage();
            on_page = 0;
          }
          const bool unplaced = all.size() % 11 == 5;
          const obj::ObjectId c =
              g.AddOn(unplaced ? store::kInvalidPage : page);
          on_page += !unplaced;
          g.Link(parent, c);
          next.push_back(c);
          all.push_back(c);
        }
      }
      level = std::move(next);
    }
    return level;  // the leaves
  };
  std::vector<obj::ObjectId> previous_leaves;
  for (size_t t = 0; t < 8; ++t) {
    const std::vector<obj::ObjectId> leaves = tree(3, 4, 1 + t % 4);
    for (size_t i = 0; i < previous_leaves.size(); i += 4) {
      g.Link(leaves[i % leaves.size()], previous_leaves[i]);
    }
    previous_leaves = leaves;
  }
  tree(4, 6, 3);
  ExpectSampleMatchesOracle(g.graph(), g.storage());
  EXPECT_EQ(g.Sample().configurations, 9u);
}

TEST(PlacementSampleTest, MergeOfEmptySamplesStaysFinite) {
  // Cross-cell folds can merge samples from cells whose placement churned
  // down to nothing; the re-weighted means must not divide by zero.
  obs::PlacementSample empty_a, empty_b;
  empty_a.pages = 2;
  empty_a.empty_pages = 2;
  empty_a.MergeFrom(empty_b);
  EXPECT_DOUBLE_EQ(empty_a.mean_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(empty_a.mean_type_fragmentation, 0.0);
  EXPECT_EQ(empty_a.empty_pages, 2u);
  EXPECT_EQ(empty_a.ColocatedFraction(), std::nullopt);

  // Empty folded into populated leaves the populated means untouched.
  obs::PlacementSample full;
  full.nonempty_pages = 4;
  full.mean_occupancy = 0.75;
  full.types_audited = 2;
  full.mean_type_fragmentation = 1.5;
  full.MergeFrom(empty_a);
  EXPECT_DOUBLE_EQ(full.mean_occupancy, 0.75);
  EXPECT_DOUBLE_EQ(full.mean_type_fragmentation, 1.5);
  EXPECT_EQ(full.empty_pages, 2u);
  EXPECT_EQ(full.ToJson().find("nan"), std::string::npos);
}

TEST(PlacementSampleTest, MergeReweightsMeansByPopulation) {
  obs::PlacementSample x;
  x.nonempty_pages = 1;
  x.mean_occupancy = 0.5;
  x.edges = 4;
  x.colocated = 1;
  obs::PlacementSample y;
  y.nonempty_pages = 3;
  y.mean_occupancy = 0.9;
  y.edges = 4;
  y.colocated = 3;
  x.MergeFrom(y);
  EXPECT_EQ(x.nonempty_pages, 4u);
  EXPECT_DOUBLE_EQ(x.mean_occupancy, (0.5 * 1 + 0.9 * 3) / 4);
  EXPECT_DOUBLE_EQ(*x.ColocatedFraction(), 0.5);
}

// ------------------------------------------------- model-level sampling

core::ModelConfig SmallConfig() {
  core::ModelConfig cfg = core::TestConfig();
  cfg.warmup_transactions = 40;
  cfg.measured_transactions = 240;
  return cfg;
}

TEST(ModelTelemetryTest, EpochBoundariesAlignWithResponseEpochs) {
  core::ModelConfig cfg = SmallConfig();
  cfg.measurement_epochs = 3;
  core::EngineeringDbModel model(cfg);
  const core::RunResult r = model.Run();

  ASSERT_EQ(r.response_epochs.size(), 3u);
  ASSERT_EQ(r.series.samples.size(), 3u);  // interval sampling off
  uint64_t txns = 0;
  for (size_t i = 0; i < r.series.samples.size(); ++i) {
    const obs::TimeSeriesSample& s = r.series.samples[i];
    EXPECT_TRUE(s.epoch_boundary);
    EXPECT_EQ(s.epoch, static_cast<uint32_t>(i));
    if (i > 0) {
      EXPECT_GE(s.sim_time_s, r.series.samples[i - 1].sim_time_s);
    }
    // Each epoch window saw exactly its share of the measured phase.
    ASSERT_TRUE(s.counter_delta("core.txns").has_value());
    EXPECT_EQ(*s.counter_delta("core.txns"), r.response_epochs[i].count());
    txns += *s.counter_delta("core.txns");
    ASSERT_TRUE(s.placement.has_value());
    EXPECT_GT(s.placement->live_objects, 0u);
    EXPECT_GT(s.placement->edges, 0u);
  }
  EXPECT_EQ(txns, static_cast<uint64_t>(cfg.measured_transactions));
}

TEST(ModelTelemetryTest, IntervalSamplingAddsMidEpochSamples) {
  core::ModelConfig cfg = SmallConfig();
  cfg.telemetry_interval_s = 1.0;
  core::EngineeringDbModel model(cfg);
  const core::RunResult r = model.Run();

  ASSERT_GT(r.series.samples.size(), 1u);
  uint64_t interval_samples = 0;
  uint64_t txns = 0;
  for (const obs::TimeSeriesSample& s : r.series.samples) {
    if (!s.epoch_boundary) ++interval_samples;
    txns += s.counter_delta("core.txns").value_or(0);
  }
  EXPECT_GT(interval_samples, 0u);
  EXPECT_TRUE(r.series.samples.back().epoch_boundary);
  // Deltas partition the measured phase exactly.
  EXPECT_EQ(txns, static_cast<uint64_t>(cfg.measured_transactions));
}

TEST(ModelTelemetryTest, PlacementAuditCanBeDisabled) {
  core::ModelConfig cfg = SmallConfig();
  cfg.telemetry_audit_placement = false;
  core::EngineeringDbModel model(cfg);
  const core::RunResult r = model.Run();
  ASSERT_FALSE(r.series.empty());
  for (const obs::TimeSeriesSample& s : r.series.samples) {
    EXPECT_FALSE(s.placement.has_value());
  }
}

// ------------------------------------------------- determinism contract

TEST(ModelTelemetryTest, SeriesBitIdenticalAcrossJobCounts) {
  std::vector<core::ModelConfig> cells;
  for (int i = 0; i < 3; ++i) {
    core::ModelConfig cfg = SmallConfig();
    cfg.measurement_epochs = 2;
    cfg.telemetry_interval_s = 5.0;
    cells.push_back(cfg);
  }

  const exec::ExperimentRunner serial(1);
  const exec::ExperimentRunner threaded(4);
  const auto o1 = serial.Run(cells);
  const auto o4 = threaded.Run(cells);
  ASSERT_EQ(o1.size(), o4.size());
  for (size_t i = 0; i < o1.size(); ++i) {
    ASSERT_FALSE(o1[i].result.series.empty());
    EXPECT_EQ(o1[i].result.series.ToJson(), o4[i].result.series.ToJson());
  }
  EXPECT_EQ(exec::ExperimentRunner::MergeSeries(o1).ToJson(),
            exec::ExperimentRunner::MergeSeries(o4).ToJson());

  // The full JSONL record (wall-clock zeroed) is byte-identical too.
  const core::BenchReport report("telemetry_test");
  const core::BenchRecord r1 = core::BenchReport::FromResult(
      "cell", "p", "w", o1[0].result, /*elapsed_wall_s=*/0);
  const core::BenchRecord r4 = core::BenchReport::FromResult(
      "cell", "p", "w", o4[0].result, /*elapsed_wall_s=*/0);
  EXPECT_EQ(report.ToJsonLine(r1), report.ToJsonLine(r4));
}

// ------------------------------------------- dynamic re-clustering churn

/// A small OCB database under structural churn with DSTC reorganisation on
/// — the workload where mid-run object moves and page births/deaths stress
/// the sampler and auditor the hardest.
core::ModelConfig ChurnDynConfig() {
  core::ModelConfig cfg = core::TestConfig();
  ocb::OcbConfig ocb;
  ocb.enabled = true;
  ocb.classes = 8;
  ocb.hierarchy_depth = 3;
  ocb.instances = 600;
  ocb.refs_per_object = 3;
  ocb.partitions = 6;
  ocb.set_lookup_size = 4;
  ocb.traversal_depth = 2;
  ocb.churn_probability = 0.5;
  ocb.churn_burst_length = 6;
  cfg.ocb = ocb;
  cfg.warmup_transactions = 40;
  cfg.measured_transactions = 360;
  cfg.workload.read_write_ratio = 4.0;
  cfg.clustering.dynamic.policy = dyn::PolicyKind::kDstc;
  cfg.clustering.dynamic.observation_period = 32;
  cfg.clustering.dynamic.trigger_threshold = 2.0;
  return cfg;
}

TEST(ModelTelemetryTest, EpochDeltasPartitionTxnsExactlyAcrossReorgBurst) {
  // Reorganisation bursts interleave extra I/O and object moves with the
  // measured transactions; epoch windows must still partition the measured
  // phase exactly — no transaction double-counted or lost at a boundary
  // that lands mid-burst.
  core::ModelConfig cfg = ChurnDynConfig();
  cfg.measurement_epochs = 4;
  const core::RunResult r = core::RunCell(cfg);

  // The dyn subsystem actually fired (otherwise this test guards nothing).
  ASSERT_GT(r.metrics.counter("dyn.triggers").value_or(0), 0u);
  ASSERT_GT(r.metrics.counter("dyn.objects_moved").value_or(0), 0u);

  ASSERT_EQ(r.series.samples.size(), 4u);
  uint64_t txns = 0;
  uint64_t moved = 0;
  for (size_t i = 0; i < r.series.samples.size(); ++i) {
    const obs::TimeSeriesSample& s = r.series.samples[i];
    EXPECT_TRUE(s.epoch_boundary);
    EXPECT_EQ(s.epoch, static_cast<uint32_t>(i));
    ASSERT_TRUE(s.counter_delta("core.txns").has_value());
    EXPECT_EQ(*s.counter_delta("core.txns"), r.response_epochs[i].count());
    txns += *s.counter_delta("core.txns");
    // Move counts are per-window flows too: they sum to the run total.
    moved += s.counter_delta("dyn.objects_moved").value_or(0);
    ASSERT_TRUE(s.placement.has_value());
    EXPECT_GT(s.placement->live_objects, 0u);
  }
  EXPECT_EQ(txns, static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_EQ(moved, *r.metrics.counter("dyn.objects_moved"));
}

TEST(ModelTelemetryTest, ChurnWithDynPolicyBitIdenticalAcrossJobCounts) {
  std::vector<core::ModelConfig> cells;
  {
    core::ModelConfig cfg = ChurnDynConfig();  // DSTC
    cfg.measurement_epochs = 2;
    cells.push_back(cfg);
  }
  {
    core::ModelConfig cfg = ChurnDynConfig();
    cfg.measurement_epochs = 2;
    cfg.clustering.dynamic.policy = dyn::PolicyKind::kOpcf;
    cfg.clustering.dynamic.opcf_queue_watermark = 0.0;
    cells.push_back(cfg);
  }
  const auto o1 = exec::ExperimentRunner(1).Run(cells);
  const auto o4 = exec::ExperimentRunner(4).Run(cells);
  ASSERT_EQ(o1.size(), o4.size());
  for (size_t i = 0; i < o1.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(o1[i].result.response_time.Mean(),
              o4[i].result.response_time.Mean());
    EXPECT_EQ(o1[i].result.logical_reads, o4[i].result.logical_reads);
    EXPECT_EQ(o1[i].result.total_physical_ios(),
              o4[i].result.total_physical_ios());
    // Telemetry (including placement audits of the churned store) and the
    // dyn metric block match byte-for-byte.
    EXPECT_EQ(o1[i].result.series.ToJson(), o4[i].result.series.ToJson());
    EXPECT_EQ(o1[i].result.metrics.ToJson(), o4[i].result.metrics.ToJson());
  }
}

TEST(ModelTelemetryTest, BenchRecordEmbedsSeriesAndPercentiles) {
  core::ModelConfig cfg = SmallConfig();
  cfg.measurement_epochs = 2;
  core::EngineeringDbModel model(cfg);
  const core::RunResult result = model.Run();

  const core::BenchReport report("telemetry_test");
  const core::BenchRecord rec =
      core::BenchReport::FromResult("cell", "p", "w", result, 0.0);
  ASSERT_TRUE(rec.response_p50_s.has_value());
  ASSERT_TRUE(rec.response_p99_s.has_value());
  EXPECT_LE(*rec.response_p50_s, *rec.response_p99_s);
  ASSERT_EQ(rec.response_epochs.size(), 2u);
  EXPECT_EQ(rec.response_epochs[0].first + rec.response_epochs[1].first,
            static_cast<uint64_t>(cfg.measured_transactions));

  const std::string line = report.ToJsonLine(rec);
  EXPECT_NE(line.find("\"response_p50_s\":"), std::string::npos);
  EXPECT_NE(line.find("\"response_epochs\":["), std::string::npos);
  EXPECT_NE(line.find("\"series\":["), std::string::npos);
  EXPECT_NE(line.find("\"counter_deltas\":"), std::string::npos);
  EXPECT_NE(line.find("\"placement\":"), std::string::npos);
}

}  // namespace
}  // namespace oodb
