#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "dyn/access_tracker.h"
#include "dyn/dyn_config.h"
#include "dyn/recluster_policy.h"
#include "dyn/reorganizer.h"
#include "objmodel/object_graph.h"
#include "objmodel/type_system.h"
#include "storage/storage_manager.h"
#include "util/random.h"

namespace oodb {
namespace {

// ---------------------------------------------------------------- config

TEST(DynConfigTest, DisabledByDefaultWithEmptyLabelSuffix) {
  dyn::DynConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_EQ(cfg.LabelSuffix(), "");
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(DynConfigTest, LabelSuffixNamesThePolicy) {
  dyn::DynConfig cfg;
  cfg.policy = dyn::PolicyKind::kDstc;
  EXPECT_EQ(cfg.LabelSuffix(), "+DSTC");
  cfg.policy = dyn::PolicyKind::kOpcf;
  EXPECT_EQ(cfg.LabelSuffix(), "+OPCF");
}

TEST(DynConfigTest, ValidateNamesTheOffendingKnob) {
  const auto expect_error = [](dyn::DynConfig cfg, const char* needle) {
    const Status s = cfg.Validate();
    ASSERT_FALSE(s.ok()) << needle;
    EXPECT_NE(s.message().find(needle), std::string::npos) << s.ToString();
  };
  dyn::DynConfig bad;
  bad.observation_period = 0;
  expect_error(bad, "observation_period");
  bad = dyn::DynConfig{};
  bad.heat_decay = 1.0;  // 1.0 would never forget: tables grow unboundedly
  expect_error(bad, "heat_decay");
  bad = dyn::DynConfig{};
  bad.max_tracked_links = 0;
  expect_error(bad, "max_tracked_links");
  bad = dyn::DynConfig{};
  bad.trigger_threshold = 0.0;
  expect_error(bad, "trigger_threshold");
  bad = dyn::DynConfig{};
  bad.opcf_queue_watermark = -1.0;
  expect_error(bad, "opcf_queue_watermark");
  bad = dyn::DynConfig{};
  bad.opcf_batch = 0;
  expect_error(bad, "opcf_batch");
}

// --------------------------------------------------------- access tracker

dyn::DynConfig SmallTrackerConfig() {
  dyn::DynConfig cfg;
  cfg.policy = dyn::PolicyKind::kDstc;
  cfg.observation_period = 4;
  cfg.trigger_threshold = 3.0;
  cfg.max_unit_size = 2;
  cfg.max_tracked_objects = 64;
  cfg.max_tracked_links = 64;
  return cfg;
}

/// One transaction: root first (as TxnPipeline observes it), then reads.
void RunTxn(dyn::AccessTracker& t, obj::ObjectId root,
            std::initializer_list<obj::ObjectId> reads) {
  t.BeginTransaction(root);
  t.Observe(root);
  for (obj::ObjectId id : reads) t.Observe(id);
}

TEST(AccessTrackerTest, ConsolidationDueAfterObservationPeriod) {
  dyn::AccessTracker t(SmallTrackerConfig());
  for (int i = 0; i < 3; ++i) {
    RunTxn(t, 1, {2});
    EXPECT_FALSE(t.ConsolidationDue());
  }
  RunTxn(t, 1, {2});
  EXPECT_TRUE(t.ConsolidationDue());
  t.Consolidate();  // resets the period clock
  EXPECT_FALSE(t.ConsolidationDue());
}

TEST(AccessTrackerTest, ConsolidateBuildsUnitsFromHotCoAccess) {
  dyn::AccessTracker t(SmallTrackerConfig());
  // Root 1 reads {2, 3} four times: heat(1)=4, links 1-2 and 1-3 at 4.
  // Object 9 is touched once — too cold to anchor, never co-accessed
  // enough to matter.
  for (int i = 0; i < 4; ++i) RunTxn(t, 1, {2, 3});
  RunTxn(t, 9, {});

  const auto units = t.Consolidate();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].anchor, 1u);
  EXPECT_DOUBLE_EQ(units[0].heat, 4.0);
  // Equal link weights tie-break by ascending id; max_unit_size=2 caps
  // the member list.
  EXPECT_EQ(units[0].members, (std::vector<obj::ObjectId>{2, 3}));
}

TEST(AccessTrackerTest, AbsorbedMembersCannotAnchorASecondUnit) {
  auto cfg = SmallTrackerConfig();
  cfg.trigger_threshold = 2.0;
  dyn::AccessTracker t(cfg);
  // 1 and 2 co-access each other heavily; both clear the threshold, but
  // the hotter (1, via an extra solo txn) claims 2 as a member, so 2 must
  // not re-appear as an anchor.
  for (int i = 0; i < 3; ++i) RunTxn(t, 1, {2});
  RunTxn(t, 1, {});
  const auto units = t.Consolidate();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].anchor, 1u);
  EXPECT_EQ(units[0].members, (std::vector<obj::ObjectId>{2}));
}

TEST(AccessTrackerTest, DecayPrunesTablesAndSecondConsolidationIsQuiet) {
  dyn::AccessTracker t(SmallTrackerConfig());
  for (int i = 0; i < 4; ++i) RunTxn(t, 1, {2});
  EXPECT_EQ(t.tracked_objects(), 2u);
  EXPECT_EQ(t.tracked_links(), 1u);
  ASSERT_EQ(t.Consolidate().size(), 1u);
  // heat_decay=0.5: heat 4 -> 2 survives, link 4 -> 2 survives.
  EXPECT_EQ(t.tracked_objects(), 2u);
  EXPECT_EQ(t.tracked_links(), 1u);
  // With no fresh accesses the residue decays below the 0.5 floor and the
  // tables empty out (2 -> 1 -> 0.5 -> 0.25; the floor is strict, so the
  // exact-0.5 window still survives).
  t.Consolidate();
  t.Consolidate();
  t.Consolidate();
  EXPECT_EQ(t.tracked_objects(), 0u);
  EXPECT_EQ(t.tracked_links(), 0u);
  EXPECT_TRUE(t.Consolidate().empty());
}

TEST(AccessTrackerTest, TableCapsDropArrivalsInsteadOfEvicting) {
  auto cfg = SmallTrackerConfig();
  cfg.max_tracked_objects = 2;
  dyn::AccessTracker t(cfg);
  RunTxn(t, 1, {2, 3, 4});  // 3 and 4 arrive after the table is full
  EXPECT_EQ(t.tracked_objects(), 2u);
  EXPECT_EQ(t.dropped_objects(), 2u);
  // Tracked objects keep accumulating heat normally.
  RunTxn(t, 1, {2});
  EXPECT_EQ(t.tracked_objects(), 2u);
  EXPECT_EQ(t.observed_refs(), 6u);
}

TEST(AccessTrackerTest, SameSequenceYieldsIdenticalUnits) {
  dyn::AccessTracker a(SmallTrackerConfig());
  dyn::AccessTracker b(SmallTrackerConfig());
  for (dyn::AccessTracker* t : {&a, &b}) {
    for (int i = 0; i < 4; ++i) RunTxn(*t, 5, {7, 6, 8});
    for (int i = 0; i < 4; ++i) RunTxn(*t, 2, {3});
  }
  const auto ua = a.Consolidate();
  const auto ub = b.Consolidate();
  ASSERT_EQ(ua.size(), ub.size());
  for (size_t i = 0; i < ua.size(); ++i) {
    EXPECT_EQ(ua[i].anchor, ub[i].anchor);
    EXPECT_EQ(ua[i].heat, ub[i].heat);
    EXPECT_EQ(ua[i].members, ub[i].members);
  }
}

// ------------------------------------------- differential tracker oracle

/// The tracker as it was built on two std::map tables, kept as the oracle
/// for the flat-table AccessTracker: same public surface, same rules.
class OracleTracker {
 public:
  explicit OracleTracker(const dyn::DynConfig& config) : config_(config) {}

  void BeginTransaction(obj::ObjectId root) {
    current_root_ = root;
    ++txns_in_period_;
  }

  void Observe(obj::ObjectId id) {
    if (id == obj::kInvalidObject) return;
    ++observed_refs_;

    auto it = heat_.find(id);
    if (it != heat_.end()) {
      it->second += 1.0;
    } else if (heat_.size() <
               static_cast<size_t>(config_.max_tracked_objects)) {
      heat_.emplace(id, 1.0);
    } else {
      ++dropped_objects_;
      return;  // untracked objects also don't create links
    }

    if (current_root_ == obj::kInvalidObject || current_root_ == id) return;
    if (!heat_.contains(current_root_)) return;
    const uint64_t key = LinkKey(current_root_, id);
    auto lit = links_.find(key);
    if (lit != links_.end()) {
      lit->second += 1.0;
    } else if (links_.size() <
               static_cast<size_t>(config_.max_tracked_links)) {
      links_.emplace(key, 1.0);
    } else {
      ++dropped_links_;
    }
  }

  bool ConsolidationDue() const {
    return txns_in_period_ >= config_.observation_period;
  }

  std::vector<dyn::ClusterUnit> Consolidate() {
    std::vector<std::pair<double, obj::ObjectId>> anchors;
    for (const auto& [id, h] : heat_) {
      if (h >= config_.trigger_threshold) anchors.emplace_back(h, id);
    }
    std::sort(anchors.begin(), anchors.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    std::map<obj::ObjectId, std::vector<std::pair<double, obj::ObjectId>>>
        partners;
    for (const auto& [key, w] : links_) {
      const auto a = static_cast<obj::ObjectId>(key >> 32);
      const auto b = static_cast<obj::ObjectId>(key & 0xFFFFFFFFu);
      partners[a].emplace_back(w, b);
      partners[b].emplace_back(w, a);
    }

    std::vector<dyn::ClusterUnit> units;
    std::set<obj::ObjectId> absorbed;
    for (const auto& [h, anchor] : anchors) {
      if (absorbed.contains(anchor)) continue;
      auto pit = partners.find(anchor);
      if (pit == partners.end()) continue;  // hot but never co-accessed
      auto& list = pit->second;
      std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      for (size_t i = 1; i < list.size(); ++i) {
        if (list[i - 1].first == list[i].first) ++weight_ties_;
      }
      dyn::ClusterUnit unit;
      unit.anchor = anchor;
      unit.heat = h;
      for (const auto& [w, id] : list) {
        if (static_cast<int>(unit.members.size()) >= config_.max_unit_size)
          break;
        if (absorbed.contains(id)) continue;
        unit.members.push_back(id);
      }
      if (unit.members.empty()) continue;
      absorbed.insert(anchor);
      for (obj::ObjectId m : unit.members) absorbed.insert(m);
      units.push_back(std::move(unit));
    }

    for (auto it = heat_.begin(); it != heat_.end();) {
      it->second *= config_.heat_decay;
      it = it->second < 0.5 ? heat_.erase(it) : std::next(it);
    }
    for (auto it = links_.begin(); it != links_.end();) {
      it->second *= config_.heat_decay;
      it = it->second < 0.5 ? links_.erase(it) : std::next(it);
    }
    txns_in_period_ = 0;
    return units;
  }

  size_t tracked_objects() const { return heat_.size(); }
  size_t tracked_links() const { return links_.size(); }
  uint64_t dropped_objects() const { return dropped_objects_; }
  uint64_t dropped_links() const { return dropped_links_; }
  uint64_t observed_refs() const { return observed_refs_; }
  /// Test-only addition: tied link weights inside a consulted partner list.
  uint64_t weight_ties() const { return weight_ties_; }

 private:
  static uint64_t LinkKey(obj::ObjectId a, obj::ObjectId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  uint64_t weight_ties_ = 0;
  dyn::DynConfig config_;
  obj::ObjectId current_root_ = obj::kInvalidObject;
  std::map<obj::ObjectId, double> heat_;
  std::map<uint64_t, double> links_;
  int txns_in_period_ = 0;
  uint64_t observed_refs_ = 0;
  uint64_t dropped_objects_ = 0;
  uint64_t dropped_links_ = 0;
};

/// What a differential run went through, so the test can require that the
/// sequences reached the regimes that matter.
struct DifferentialCoverage {
  uint64_t heat_ties = 0;    ///< adjacent units with equal anchor heat
  uint64_t weight_ties = 0;  ///< equal link weights in a partner list
  uint64_t dropped = 0;      ///< arrivals refused by a full table
};

/// Drives AccessTracker and OracleTracker with one seeded random call
/// sequence and requires identical units and counters after every call.
/// Ids come from a small pool so heat and link weights tie often; a
/// sparse pool spreads them up to 2^31.
void RunDifferential(const dyn::DynConfig& cfg, uint64_t seed, bool sparse,
                     int calls, DifferentialCoverage& coverage) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " decay " +
               std::to_string(cfg.heat_decay) + " caps " +
               std::to_string(cfg.max_tracked_objects) + "/" +
               std::to_string(cfg.max_tracked_links) +
               (sparse ? " sparse" : " dense"));
  Rng rng(seed);
  std::vector<obj::ObjectId> pool(48);
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i] = sparse ? static_cast<obj::ObjectId>(rng.NextBelow(1ull << 31))
                     : static_cast<obj::ObjectId>(i);
  }
  if (sparse) pool.back() = static_cast<obj::ObjectId>(1ull << 31);
  const auto draw = [&] {
    // Skewed toward the pool's head so some objects turn hot.
    const uint64_t r = rng.NextBelow(pool.size());
    const obj::ObjectId id = pool[rng.Bernoulli(0.5) ? r / 4 : r];
    return rng.Bernoulli(0.02) ? obj::kInvalidObject : id;
  };

  dyn::AccessTracker tracker(cfg);
  OracleTracker oracle(cfg);
  int consolidations = 0;
  for (int call = 0; call < calls; ++call) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 12) {
      const obj::ObjectId root = draw();
      tracker.BeginTransaction(root);
      oracle.BeginTransaction(root);
    } else if (op < 96 && !oracle.ConsolidationDue()) {
      const obj::ObjectId id = draw();
      tracker.Observe(id);
      oracle.Observe(id);
    } else {
      const auto got = tracker.Consolidate();
      const auto want = oracle.Consolidate();
      ++consolidations;
      ASSERT_EQ(got.size(), want.size()) << "call " << call;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].anchor, want[i].anchor) << "call " << call;
        ASSERT_EQ(std::bit_cast<uint64_t>(got[i].heat),
                  std::bit_cast<uint64_t>(want[i].heat))
            << "call " << call;
        ASSERT_EQ(got[i].members, want[i].members) << "call " << call;
        if (i > 0 && want[i - 1].heat == want[i].heat) ++coverage.heat_ties;
      }
    }
    ASSERT_EQ(tracker.ConsolidationDue(), oracle.ConsolidationDue());
    ASSERT_EQ(tracker.tracked_objects(), oracle.tracked_objects())
        << "call " << call;
    ASSERT_EQ(tracker.tracked_links(), oracle.tracked_links())
        << "call " << call;
    ASSERT_EQ(tracker.dropped_objects(), oracle.dropped_objects());
    ASSERT_EQ(tracker.dropped_links(), oracle.dropped_links());
    ASSERT_EQ(tracker.observed_refs(), oracle.observed_refs());
  }
  EXPECT_GT(consolidations, 10);
  coverage.weight_ties += oracle.weight_ties();
  coverage.dropped += oracle.dropped_objects() + oracle.dropped_links();
}

TEST(AccessTrackerTest, MatchesMapOracleOnRandomSequences) {
  struct Caps {
    int objects;
    int links;
  };
  uint64_t seed = 1;
  DifferentialCoverage coverage;
  for (const double decay : {0.0, 0.5, 0.9}) {
    for (const Caps caps : {Caps{6, 10}, Caps{24, 40}, Caps{4096, 8192}}) {
      for (const bool sparse : {false, true}) {
        dyn::DynConfig cfg;
        cfg.policy = dyn::PolicyKind::kDstc;
        cfg.observation_period = 6;
        cfg.heat_decay = decay;
        cfg.max_tracked_objects = caps.objects;
        cfg.max_tracked_links = caps.links;
        cfg.trigger_threshold = 3.0;
        cfg.max_unit_size = 3;
        RunDifferential(cfg, seed++, sparse, 1500, coverage);
        cfg.trigger_threshold = 1.0;  // every tracked object anchors
        cfg.max_unit_size = 16;
        RunDifferential(cfg, seed++, sparse, 1500, coverage);
      }
    }
  }
  EXPECT_GT(coverage.heat_ties, 20u);
  EXPECT_GT(coverage.weight_ties, 1000u);
  EXPECT_GT(coverage.dropped, 1000u);
}

// ------------------------------------------------------ recluster policies

dyn::ClusterUnit Unit(obj::ObjectId anchor, double heat) {
  dyn::ClusterUnit u;
  u.anchor = anchor;
  u.heat = heat;
  u.members = {anchor + 100};
  return u;
}

TEST(ReclusterPolicyTest, FactoryMapsKindToPolicy) {
  dyn::DynConfig cfg;
  EXPECT_EQ(dyn::MakeReclusterPolicy(cfg), nullptr);
  cfg.policy = dyn::PolicyKind::kDstc;
  EXPECT_STREQ(dyn::MakeReclusterPolicy(cfg)->name(), "DSTC");
  cfg.policy = dyn::PolicyKind::kOpcf;
  EXPECT_STREQ(dyn::MakeReclusterPolicy(cfg)->name(), "OPCF");
}

TEST(ReclusterPolicyTest, DstcDrainsEverythingHottestFirstImmediately) {
  dyn::DstcPolicy p;
  p.Enqueue({Unit(10, 1.0), Unit(11, 5.0)}, /*now=*/0.0);
  p.Enqueue({Unit(12, 3.0)}, /*now=*/1.0);
  EXPECT_EQ(p.pending(), 3u);

  // Queue depth is irrelevant to DSTC: it never defers.
  const auto out = p.Drain(/*now=*/2.0, /*queue_depth=*/99.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].anchor, 11u);
  EXPECT_EQ(out[1].anchor, 12u);
  EXPECT_EQ(out[2].anchor, 10u);
  EXPECT_EQ(p.pending(), 0u);
  EXPECT_EQ(p.deferral_events(), 0u);
  EXPECT_DOUBLE_EQ(p.deferral_time_s(), 0.0);
}

TEST(ReclusterPolicyTest, EnqueueTieBreaksOnAnchorId) {
  dyn::DstcPolicy p;
  p.Enqueue({Unit(7, 2.0)}, 0.0);
  p.Enqueue({Unit(3, 2.0)}, 0.0);  // same heat, later arrival, smaller id
  const auto out = p.Drain(0.0, 0.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].anchor, 3u);
  EXPECT_EQ(out[1].anchor, 7u);
}

TEST(ReclusterPolicyTest, OpcfDefersAboveWatermarkAndAccountsTheWait) {
  dyn::OpcfPolicy p(/*queue_watermark=*/1.0, /*batch=*/2);
  p.Enqueue({Unit(1, 4.0), Unit(2, 3.0), Unit(3, 2.0)}, /*now=*/0.0);

  // Deep queue: nothing drains, one deferral window opens at t=10.
  EXPECT_TRUE(p.Drain(/*now=*/10.0, /*queue_depth=*/3.0).empty());
  EXPECT_EQ(p.deferral_events(), 1u);
  // Still deep: the window stays open — no second event.
  EXPECT_TRUE(p.Drain(20.0, 2.0).empty());
  EXPECT_EQ(p.deferral_events(), 1u);
  EXPECT_EQ(p.pending(), 3u);

  // Slack at t=30: the window closes (20 s deferred) and a prioritised
  // batch of 2 comes out.
  const auto batch = p.Drain(30.0, 0.5);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].anchor, 1u);
  EXPECT_EQ(batch[1].anchor, 2u);
  EXPECT_DOUBLE_EQ(p.deferral_time_s(), 20.0);
  EXPECT_EQ(p.pending(), 1u);

  // Remainder drains on the next opportunity.
  EXPECT_EQ(p.Drain(31.0, 0.0).size(), 1u);
  EXPECT_EQ(p.pending(), 0u);
  EXPECT_EQ(p.deferral_events(), 1u);
}

TEST(ReclusterPolicyTest, OpcfEmptyQueueNeverDefers) {
  dyn::OpcfPolicy p(1.0, 2);
  // A deep queue with nothing pending is not a deferral: there is no work
  // being delayed.
  EXPECT_TRUE(p.Drain(5.0, 10.0).empty());
  EXPECT_EQ(p.deferral_events(), 0u);
  EXPECT_DOUBLE_EQ(p.deferral_time_s(), 0.0);
}

TEST(ReclusterPolicyTest, OpcfAtExactWatermarkDrains) {
  dyn::OpcfPolicy p(2.0, 4);
  p.Enqueue({Unit(1, 1.0)}, 0.0);
  // Deferral requires depth strictly above the watermark.
  EXPECT_EQ(p.Drain(1.0, 2.0).size(), 1u);
  EXPECT_EQ(p.deferral_events(), 0u);
}

// ------------------------------------------------------------ reorganizer

class ReorganizerTest : public ::testing::Test {
 protected:
  ReorganizerTest() : graph_(&lattice_), store_(100) {
    t_ = lattice_.DefineType("t", obj::kInvalidType, 0, {});
    fam_ = graph_.NewFamily("f");
  }

  obj::ObjectId Make(store::PageId page) {
    const obj::ObjectId id = graph_.Create(fam_, next_ver_++, t_, 30);
    if (page != store::kInvalidPage) {
      EXPECT_TRUE(store_.Place(id, 30, page).ok());
    }
    return id;
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager store_;
  obj::TypeId t_ = obj::kInvalidType;
  obj::FamilyId fam_ = obj::kInvalidFamily;
  uint32_t next_ver_ = 0;
};

TEST_F(ReorganizerTest, PacksMembersOntoAnchorPageThenOverflows) {
  const store::PageId p0 = store_.AllocatePage();
  const store::PageId p1 = store_.AllocatePage();
  const obj::ObjectId anchor = Make(p0);     // p0: 60/100 with `near`
  const obj::ObjectId near = Make(p0);       // already co-located
  const obj::ObjectId far1 = Make(p1);       // p1: 90/100
  const obj::ObjectId far2 = Make(p1);
  const obj::ObjectId dead = Make(p1);
  graph_.Remove(dead);
  ASSERT_TRUE(store_.Erase(dead).ok());
  const obj::ObjectId unplaced = Make(store::kInvalidPage);

  dyn::ClusterUnit unit;
  unit.anchor = anchor;
  unit.heat = 5.0;
  unit.members = {near, far1, dead, unplaced, far2};

  dyn::Reorganizer reorg(&graph_, &store_);
  const dyn::ReorgResult r = reorg.Reorganize(unit, /*max_moves=*/8);

  // far1 fits next to the anchor (60+30), far2 would overflow p0
  // (90+30 > 100) and spills onto a fresh page; near/dead/unplaced are
  // skipped without consuming the move budget.
  ASSERT_EQ(r.moves.size(), 2u);
  EXPECT_EQ(r.moves[0].object, far1);
  EXPECT_EQ(r.moves[0].from, p1);
  EXPECT_EQ(r.moves[0].to, p0);
  EXPECT_EQ(r.moves[1].object, far2);
  const store::PageId overflow = r.moves[1].to;
  EXPECT_NE(overflow, p0);
  EXPECT_NE(overflow, p1);
  EXPECT_EQ(store_.PageOf(far1), p0);
  EXPECT_EQ(store_.PageOf(far2), overflow);
  EXPECT_EQ(store_.PageOf(near), p0);  // untouched

  // Touched pages: both sources and both destinations, sorted + deduped.
  EXPECT_EQ(r.pages_touched,
            (std::vector<store::PageId>{p0, p1, overflow}));
  EXPECT_EQ(reorg.objects_moved(), 2u);
  EXPECT_EQ(reorg.units_executed(), 1u);
}

TEST_F(ReorganizerTest, MoveBudgetTruncatesTheUnit) {
  const store::PageId p0 = store_.AllocatePage();
  const store::PageId p1 = store_.AllocatePage();
  const obj::ObjectId anchor = Make(p0);
  const obj::ObjectId m1 = Make(p1);
  const obj::ObjectId m2 = Make(p1);

  dyn::ClusterUnit unit;
  unit.anchor = anchor;
  unit.members = {m1, m2};
  dyn::Reorganizer reorg(&graph_, &store_);
  const dyn::ReorgResult r = reorg.Reorganize(unit, /*max_moves=*/1);
  ASSERT_EQ(r.moves.size(), 1u);
  EXPECT_EQ(r.moves[0].object, m1);
  EXPECT_EQ(store_.PageOf(m2), p1);  // budget exhausted before m2
}

TEST_F(ReorganizerTest, DeadOrUnplacedAnchorIsANoOp) {
  const store::PageId p0 = store_.AllocatePage();
  const obj::ObjectId anchor = Make(p0);
  const obj::ObjectId member = Make(p0);
  graph_.Remove(anchor);
  ASSERT_TRUE(store_.Erase(anchor).ok());

  dyn::ClusterUnit unit;
  unit.anchor = anchor;
  unit.members = {member};
  dyn::Reorganizer reorg(&graph_, &store_);
  const dyn::ReorgResult r = reorg.Reorganize(unit, 8);
  EXPECT_TRUE(r.moves.empty());
  EXPECT_TRUE(r.pages_touched.empty());
  EXPECT_EQ(reorg.units_executed(), 0u);
}

}  // namespace
}  // namespace oodb
