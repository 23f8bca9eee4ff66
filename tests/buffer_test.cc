#include "gtest/gtest.h"

#include <algorithm>
#include <bit>
#include <queue>

#include "buffer/buffer_pool.h"
#include "buffer/prefetcher.h"
#include "obs/trace_sink.h"
#include "util/random.h"

namespace oodb::buffer {
namespace {

using store::PageId;
using store::kInvalidPage;

// ---------------------------------------------------------------- basics

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(4, ReplacementPolicy::kLru);
  auto r1 = pool.Fix(10);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.evicted_page, kInvalidPage);
  auto r2 = pool.Fix(10);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_DOUBLE_EQ(pool.HitRatio(), 0.5);
}

TEST(BufferPoolTest, NoEvictionUntilFull) {
  BufferPool pool(3, ReplacementPolicy::kLru);
  for (PageId p = 0; p < 3; ++p) {
    EXPECT_EQ(pool.Fix(p).evicted_page, kInvalidPage);
  }
  EXPECT_EQ(pool.resident_count(), 3u);
  auto r = pool.Fix(99);
  EXPECT_NE(r.evicted_page, kInvalidPage);
  EXPECT_EQ(pool.resident_count(), 3u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(3, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.Fix(2);
  pool.Fix(3);
  pool.Fix(1);           // 2 is now least recent
  auto r = pool.Fix(4);  // evicts 2
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_FALSE(pool.Contains(2));
}

TEST(BufferPoolTest, DirtyEvictionReported) {
  BufferPool pool(2, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.MarkDirty(1);
  pool.Fix(2);
  auto r = pool.Fix(3);  // evicts 1, which is dirty
  EXPECT_EQ(r.evicted_page, 1u);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(pool.dirty_evictions(), 1u);
}

TEST(BufferPoolTest, MarkCleanClearsDirtyBit) {
  BufferPool pool(2, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.MarkDirty(1);
  EXPECT_TRUE(pool.IsDirty(1));
  pool.MarkClean(1);
  EXPECT_FALSE(pool.IsDirty(1));
  pool.Fix(2);
  auto r = pool.Fix(3);
  EXPECT_FALSE(r.evicted_dirty);
}

TEST(BufferPoolTest, PinPreventsEviction) {
  BufferPool pool(2, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.Pin(1);
  pool.Fix(2);
  auto r = pool.Fix(3);  // must evict 2, not pinned 1
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_TRUE(pool.Contains(1));
  pool.Unpin(1);
  auto r2 = pool.Fix(4);  // 1 is LRU and now evictable
  EXPECT_EQ(r2.evicted_page, 1u);
}

TEST(BufferPoolTest, TouchOnlyAffectsResidentPages) {
  BufferPool pool(3, ReplacementPolicy::kLru);
  pool.Fix(1);
  pool.Fix(2);
  pool.Fix(3);
  EXPECT_TRUE(pool.Touch(1));    // 2 becomes LRU
  EXPECT_FALSE(pool.Touch(42));  // not resident, no fault
  auto r = pool.Fix(4);
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_EQ(pool.misses(), 4u);  // Touch(42) did not count as a miss
}

TEST(BufferPoolTest, ResidentPagesListsEverything) {
  BufferPool pool(4, ReplacementPolicy::kLru);
  pool.Fix(5);
  pool.Fix(9);
  auto pages = pool.ResidentPages();
  std::sort(pages.begin(), pages.end());
  EXPECT_EQ(pages, (std::vector<PageId>{5, 9}));
}

// ---------------------------------------------------------------- random

TEST(BufferPoolTest, RandomPolicyEvictsSomethingUnpinned) {
  BufferPool pool(4, ReplacementPolicy::kRandom, /*seed=*/7);
  for (PageId p = 0; p < 4; ++p) pool.Fix(p);
  pool.Pin(0);
  pool.Pin(1);
  for (PageId p = 10; p < 30; ++p) {
    auto r = pool.Fix(p);
    EXPECT_NE(r.evicted_page, 0u);
    EXPECT_NE(r.evicted_page, 1u);
    // Keep the pool saturated with the pinned pages intact.
  }
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_TRUE(pool.Contains(1));
}

TEST(BufferPoolTest, RandomPolicyIsSeedDeterministic) {
  BufferPool a(8, ReplacementPolicy::kRandom, 42);
  BufferPool b(8, ReplacementPolicy::kRandom, 42);
  for (PageId p = 0; p < 100; ++p) {
    EXPECT_EQ(a.Fix(p).evicted_page, b.Fix(p).evicted_page);
  }
}

// ---------------------------------------------------------------- context

TEST(BufferPoolTest, ContextPolicyActsLikeRecencyWithoutBoosts) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Fix(2);
  pool.Fix(3);
  pool.Fix(1);           // 2 has the lowest access stamp
  auto r = pool.Fix(4);
  EXPECT_EQ(r.evicted_page, 2u);
}

TEST(BufferPoolTest, BoostProtectsRelatedPage) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Fix(2);
  pool.Fix(3);
  // Page 1 is oldest, but a structurally related object was just touched:
  pool.Boost(1, /*weight=*/10.0);
  auto r = pool.Fix(4);  // should evict 2 (oldest unboosted), not 1
  EXPECT_EQ(r.evicted_page, 2u);
  EXPECT_TRUE(pool.Contains(1));
}

TEST(BufferPoolTest, BoostAgesOutUnderNewAccesses) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Boost(1, 2.0);
  pool.Fix(2);
  pool.Fix(3);
  // Many accesses age the clock past the boost on page 1.
  for (int i = 0; i < 10; ++i) {
    pool.Touch(2);
    pool.Touch(3);
  }
  auto r = pool.Fix(4);
  EXPECT_EQ(r.evicted_page, 1u);
}

TEST(BufferPoolTest, BoostOnNonResidentPageIsNoop) {
  BufferPool pool(2, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Boost(77, 5.0);  // not resident; nothing should break
  EXPECT_FALSE(pool.Contains(77));
}

TEST(BufferPoolTest, ContextPinnedFramesSurviveSaturation) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Pin(1);
  pool.Fix(2);
  pool.Fix(3);
  for (PageId p = 10; p < 20; ++p) pool.Fix(p);
  EXPECT_TRUE(pool.Contains(1));
}

TEST(BufferPoolTest, ContextPinnedFramesLeaveTheVictimIndex) {
  BufferPool pool(3, ReplacementPolicy::kContextSensitive);
  pool.Fix(1);
  pool.Fix(2);
  EXPECT_EQ(pool.victim_index_size(), 2u);
  pool.Pin(1);
  pool.Pin(1);
  EXPECT_EQ(pool.victim_index_size(), 1u);
  pool.Unpin(1);
  EXPECT_EQ(pool.victim_index_size(), 1u);  // still pinned once
  pool.Unpin(1);
  EXPECT_EQ(pool.victim_index_size(), 2u);
  // The re-inserted entry carries page 1's key: it is still the oldest.
  pool.Fix(3);
  EXPECT_EQ(pool.Fix(4).evicted_page, 1u);
}

TEST(BufferPoolTest, VictimIndexIsContextSensitiveOnly) {
  BufferPool lru(8, ReplacementPolicy::kLru);
  BufferPool random(8, ReplacementPolicy::kRandom);
  for (PageId p = 0; p < 40; ++p) {
    lru.Fix(p % 11);
    random.Fix(p % 11);
    lru.Boost(p % 11, 2.0);
  }
  EXPECT_EQ(lru.victim_index_size(), 0u);
  EXPECT_EQ(random.victim_index_size(), 0u);
}

// A pool that never fills never evicts, so nothing ever pops a heap of
// per-update entries; the victim index must stay at one entry per frame
// however many accesses and boosts arrive.
TEST(BufferPoolTest, VictimIndexStaysBoundedWithoutEvictions) {
  constexpr size_t kCapacity = 64;
  BufferPool pool(kCapacity, ReplacementPolicy::kContextSensitive);
  for (PageId p = 0; p < kCapacity; ++p) pool.Fix(p);
  Rng rng(5);
  size_t largest = 0;
  for (int i = 0; i < 1000000; ++i) {
    const auto page = static_cast<PageId>(rng.NextBelow(kCapacity));
    if (rng.Bernoulli(0.6)) {
      pool.Boost(page, 1.0 + 8.0 * rng.NextDouble());
    } else {
      pool.Touch(page);
    }
    if (i % 1024 == 0) largest = std::max(largest, pool.victim_index_size());
  }
  largest = std::max(largest, pool.victim_index_size());
  EXPECT_EQ(largest, kCapacity);
  EXPECT_EQ(pool.evictions(), 0u);
}

// ------------------------------------------- context-sensitive oracle

// The context-sensitive pool as it was before the victim index: a lazy
// std::priority_queue that receives one entry per key update and drops
// stale ones only when they surface, with pinned entries stashed and
// restored around each victim hunt. Copied verbatim for that policy
// (LRU and Random branches dropped); BufferPool must match it call for
// call, eviction trace records included.
class OraclePool {
 public:
  using FixResult = BufferPool::FixResult;

  explicit OraclePool(size_t capacity) {
    frames_.resize(capacity);
    free_frames_.reserve(capacity);
    for (size_t i = capacity; i-- > 0;) {
      free_frames_.push_back(static_cast<FrameId>(i));
    }
  }

  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  FixResult Fix(PageId page) {
    FixResult result;
    const FrameId resident = FrameOf(page);
    if (resident != kNoFrame) {
      result.hit = true;
      RecordAccess(resident);
      return result;
    }
    FrameId f;
    if (!free_frames_.empty()) {
      f = free_frames_.back();
      free_frames_.pop_back();
    } else {
      f = PickVictim();
      OODB_CHECK_NE(f, kNoFrame);
      Frame& victim = frames_[f];
      result.evicted_page = victim.page;
      result.evicted_dirty = victim.dirty;
      if (trace_ != nullptr) {
        const obs::EvictionClass cls =
            victim.boosted ? obs::EvictionClass::kContextBoosted
                           : obs::EvictionClass::kPlainRecency;
        trace_->Record(obs::Subsystem::kBuffer,
                       obs::TraceEventType::kEviction, victim.page,
                       static_cast<uint64_t>(cls), victim.dirty ? 1 : 0,
                       victim.priority);
      }
      frame_of_[victim.page] = kNoFrame;
    }
    Frame& fr = frames_[f];
    fr.page = page;
    fr.dirty = false;
    fr.boosted = false;
    fr.pin_count = 0;
    fr.priority = 0;
    fr.heap_stamp = 0;
    if (page >= frame_of_.size()) {
      frame_of_.resize(std::max<size_t>(page + 1, frame_of_.size() * 2),
                       kNoFrame);
    }
    frame_of_[page] = f;
    RecordAccess(f);
    return result;
  }

  bool Touch(PageId page) {
    const FrameId f = FrameOf(page);
    if (f == kNoFrame) return false;
    RecordAccess(f);
    return true;
  }

  void Boost(PageId page, double weight) {
    const FrameId f = FrameOf(page);
    if (f == kNoFrame) return;
    Frame& fr = frames_[f];
    const double base = std::max(fr.priority, access_clock_);
    SetPriority(f, base + weight);
    fr.boosted = true;
  }

  void MarkDirty(PageId page) { frames_[FrameOf(page)].dirty = true; }
  void Pin(PageId page) { ++frames_[FrameOf(page)].pin_count; }
  void Unpin(PageId page) { --frames_[FrameOf(page)].pin_count; }

 private:
  using FrameId = uint32_t;
  static constexpr FrameId kNoFrame = UINT32_MAX;

  struct Frame {
    PageId page = kInvalidPage;
    bool dirty = false;
    bool boosted = false;
    uint32_t pin_count = 0;
    double priority = 0;
    uint64_t heap_stamp = 0;
  };

  struct HeapEntry {
    double priority;
    uint64_t stamp;
    FrameId frame;
    bool operator>(const HeapEntry& o) const {
      if (priority != o.priority) return priority > o.priority;
      return stamp > o.stamp;
    }
  };

  FrameId FrameOf(PageId page) const {
    return page < frame_of_.size() ? frame_of_[page] : kNoFrame;
  }

  void SetPriority(FrameId f, double priority) {
    Frame& fr = frames_[f];
    fr.priority = priority;
    fr.heap_stamp = next_stamp_++;
    heap_.push(HeapEntry{fr.priority, fr.heap_stamp, f});
  }

  void RecordAccess(FrameId f) {
    access_clock_ += 1.0;
    SetPriority(f, access_clock_);
    frames_[f].boosted = false;
  }

  FrameId PickVictim() {
    pinned_stash_.clear();
    FrameId victim = kNoFrame;
    while (!heap_.empty()) {
      HeapEntry e = heap_.top();
      heap_.pop();
      const Frame& fr = frames_[e.frame];
      if (fr.page == kInvalidPage || fr.heap_stamp != e.stamp) {
        continue;  // stale entry
      }
      if (fr.pin_count > 0) {
        pinned_stash_.push_back(e);
        continue;
      }
      victim = e.frame;
      break;
    }
    for (const HeapEntry& e : pinned_stash_) heap_.push(e);
    return victim;
  }

  std::vector<Frame> frames_;
  std::vector<FrameId> free_frames_;
  std::vector<FrameId> frame_of_;
  double access_clock_ = 0;
  uint64_t next_stamp_ = 1;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
  std::vector<HeapEntry> pinned_stash_;
  obs::TraceSink* trace_ = nullptr;
};

// Drives a BufferPool and the oracle with the same calls and checks every
// FixResult and, at the end, every eviction trace record bit for bit.
class ContextDifferential {
 public:
  // Ring size of both trace sinks: more than any sequence here evicts.
  static constexpr size_t kMaxEvictions = 1 << 16;

  explicit ContextDifferential(size_t capacity)
      : pool_(capacity, ReplacementPolicy::kContextSensitive),
        oracle_(capacity),
        pool_trace_(nullptr, kMaxEvictions),
        oracle_trace_(nullptr, kMaxEvictions) {
    pool_.set_trace(&pool_trace_);
    oracle_.set_trace(&oracle_trace_);
  }

  BufferPool::FixResult Fix(PageId page) {
    const BufferPool::FixResult got = pool_.Fix(page);
    const BufferPool::FixResult want = oracle_.Fix(page);
    EXPECT_EQ(got.hit, want.hit) << "Fix(" << page << ") #" << fixes_;
    EXPECT_EQ(got.evicted_page, want.evicted_page)
        << "Fix(" << page << ") #" << fixes_;
    EXPECT_EQ(got.evicted_dirty, want.evicted_dirty)
        << "Fix(" << page << ") #" << fixes_;
    ++fixes_;
    return got;
  }
  void Touch(PageId page) { EXPECT_EQ(pool_.Touch(page), oracle_.Touch(page)); }
  void Boost(PageId page, double weight) {
    pool_.Boost(page, weight);
    oracle_.Boost(page, weight);
  }
  void MarkDirty(PageId page) {
    pool_.MarkDirty(page);
    oracle_.MarkDirty(page);
  }
  void Pin(PageId page) {
    pool_.Pin(page);
    oracle_.Pin(page);
  }
  void Unpin(PageId page) {
    pool_.Unpin(page);
    oracle_.Unpin(page);
  }

  /// The eviction trace records, compared field by field at the bit level
  /// (the priority is a double; a rounding difference must not hide).
  void ExpectSameTrace() const {
    const std::vector<obs::TraceEvent> got = pool_trace_.Events();
    const std::vector<obs::TraceEvent> want = oracle_trace_.Events();
    ASSERT_EQ(pool_trace_.dropped(), 0u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, obs::TraceEventType::kEviction);
      EXPECT_EQ(got[i].a, want[i].a) << "eviction #" << i;
      EXPECT_EQ(got[i].b, want[i].b) << "eviction #" << i;
      EXPECT_EQ(got[i].c, want[i].c) << "eviction #" << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].v),
                std::bit_cast<uint64_t>(want[i].v))
          << "eviction #" << i;
    }
  }

  const BufferPool& pool() const { return pool_; }
  size_t evictions() const { return pool_trace_.Events().size(); }

 private:
  BufferPool pool_;
  OraclePool oracle_;
  obs::TraceSink pool_trace_;
  obs::TraceSink oracle_trace_;
  uint64_t fixes_ = 0;
};

// The case that breaks an index treating every update as a raise: a plain
// access gives a boosted frame priority = clock, below the boosted key the
// index already holds for it.
TEST(BufferPoolTest, PlainAccessLowersABoostedKey) {
  ContextDifferential d(3);
  d.Fix(1);
  d.Fix(2);
  d.Fix(3);             // keys 1, 2, 3
  d.Boost(1, 10.0);     // page 1: 13
  EXPECT_EQ(d.Fix(4).evicted_page, 2u);  // surfaces page 1's key 13
  d.Touch(1);           // page 1 falls from 13 to 5
  d.Touch(3);           // 6
  d.Touch(4);           // 7
  EXPECT_EQ(d.Fix(5).evicted_page, 1u);
  d.ExpectSameTrace();
}

// Equal priorities go to the earlier key update.
TEST(BufferPoolTest, PriorityTiesGoToTheEarlierUpdate) {
  ContextDifferential d(4);
  for (PageId p = 1; p <= 4; ++p) d.Fix(p);  // clock 4
  d.Boost(3, 6.0);      // 10, stamped first
  d.Boost(1, 6.0);      // 10
  d.Boost(4, 6.0);      // 10
  d.Boost(2, 7.0);      // 11
  EXPECT_EQ(d.Fix(5).evicted_page, 3u);
  d.Boost(5, 20.0);     // keep the newcomer out of the way: 25
  EXPECT_EQ(d.Fix(6).evicted_page, 1u);  // pages 1 and 4 tie at 10
  d.Boost(6, 20.0);
  EXPECT_EQ(d.Fix(7).evicted_page, 4u);
  d.ExpectSameTrace();
}

// Seeded random call sequences in the transaction pipeline's shape: zipf
// Fix over several times the capacity, bursts of structural boosts at
// 1 + 8w and prefetch boosts at 6 (w on a coarse grid, so equal
// priorities, and with them stamp tie-breaks, are common), plain Touches
// that lower boosted keys, nested Pin/Unpin and dirty pages.
void RunContextDifferential(size_t capacity, uint64_t seed, int steps) {
  ContextDifferential d(capacity);
  Rng rng(seed);
  const uint64_t pages = 4 * capacity + 3;
  std::vector<PageId> recent;
  std::vector<PageId> pinned;
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 35) {
      const auto page = static_cast<PageId>(rng.Zipf(pages, 0.6));
      d.Fix(page);
      recent.push_back(page);
      if (recent.size() > 16) recent.erase(recent.begin());
    } else if (op < 70) {
      const int burst = 1 + static_cast<int>(rng.NextBelow(6));
      for (int b = 0; b < burst; ++b) {
        const PageId page =
            !recent.empty() && rng.Bernoulli(0.8)
                ? recent[rng.NextBelow(recent.size())]
                : static_cast<PageId>(rng.NextBelow(pages));
        const double weight =
            rng.Bernoulli(0.3)
                ? 6.0
                : 1.0 + 8.0 * static_cast<double>(rng.NextBelow(5)) / 4.0;
        d.Boost(page, weight);
      }
    } else if (op < 85) {
      d.Touch(!recent.empty() ? recent[rng.NextBelow(recent.size())]
                              : static_cast<PageId>(rng.NextBelow(pages)));
    } else if (op < 91) {
      if (!recent.empty() && d.pool().Contains(recent.back())) {
        d.MarkDirty(recent.back());
      }
    } else if (op < 96) {
      // Keep at least one frame unpinned so every Fix has a victim.
      if (pinned.size() + 1 < capacity && !recent.empty() &&
          d.pool().Contains(recent.back())) {
        d.Pin(recent.back());
        pinned.push_back(recent.back());
      }
    } else if (!pinned.empty()) {
      const size_t i = rng.NextBelow(pinned.size());
      d.Unpin(pinned[i]);
      pinned.erase(pinned.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_LE(d.pool().victim_index_size(), capacity);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(d.evictions(), static_cast<size_t>(steps) / 10);
  d.ExpectSameTrace();
}

class ContextDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ContextDifferentialTest, MatchesTheLazyHeapCallForCall) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    RunContextDifferential(GetParam(), seed, 40000);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, ContextDifferentialTest,
                         ::testing::Values(3, 8, 156));

// Replacement-policy behaviour that must hold for every policy.
class AllPoliciesTest
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(AllPoliciesTest, CapacityNeverExceeded) {
  BufferPool pool(16, GetParam(), 3);
  for (PageId p = 0; p < 500; ++p) {
    pool.Fix(p % 37);
    EXPECT_LE(pool.resident_count(), 16u);
  }
}

TEST_P(AllPoliciesTest, WorkingSetSmallerThanPoolAlwaysHitsAfterWarmup) {
  BufferPool pool(16, GetParam(), 3);
  for (PageId p = 0; p < 8; ++p) pool.Fix(p);
  pool.ResetCounters();
  for (int round = 0; round < 10; ++round) {
    for (PageId p = 0; p < 8; ++p) pool.Fix(p);
  }
  EXPECT_DOUBLE_EQ(pool.HitRatio(), 1.0);
}

TEST_P(AllPoliciesTest, EvictedPageIsReallyGone) {
  BufferPool pool(4, GetParam(), 11);
  for (PageId p = 0; p < 100; ++p) {
    auto r = pool.Fix(p);
    if (r.evicted_page != kInvalidPage) {
      EXPECT_FALSE(pool.Contains(r.evicted_page));
    }
  }
}

TEST_P(AllPoliciesTest, CountersAddUp) {
  BufferPool pool(8, GetParam(), 5);
  for (PageId p = 0; p < 300; ++p) pool.Fix(p % 21);
  EXPECT_EQ(pool.hits() + pool.misses(), 300u);
  EXPECT_GE(pool.misses(), 21u);  // each distinct page missed at least once
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPoliciesTest,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kRandom,
                                           ReplacementPolicy::kContextSensitive),
                         [](const auto& param_info) {
                           std::string name =
                               ReplacementPolicyName(param_info.param);
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(static_cast<unsigned char>(c));
                           });
                           return name;
                         });

// ------------------------------------------------------------- prefetcher

class PrefetcherTest : public ::testing::Test {
 protected:
  PrefetcherTest() : graph_(&lattice_), storage_(256) {
    // Configuration-dominant type and a version-dominant type.
    config_type_ = lattice_.DefineType("cell", obj::kInvalidType, 32,
                                       {8.0, 1.0, 0.5, 0.2});
    version_type_ = lattice_.DefineType("draft", obj::kInvalidType, 32,
                                        {0.5, 8.0, 0.5, 0.2});
    fam_ = graph_.NewFamily("X");
  }

  obj::ObjectId MakePlaced(obj::TypeId type, store::PageId page) {
    obj::ObjectId id = graph_.Create(fam_, 1, type, 32);
    if (page != kInvalidPage) {
      if (page >= storage_.page_count()) {
        while (storage_.page_count() <= page) storage_.AllocatePage();
      }
      OODB_CHECK(storage_.Place(id, 32, page).ok());
    }
    return id;
  }

  obj::TypeLattice lattice_;
  obj::ObjectGraph graph_;
  store::StorageManager storage_;
  obj::TypeId config_type_ = 0, version_type_ = 0;
  obj::FamilyId fam_ = 0;
};

TEST_F(PrefetcherTest, DominantKindComesFromTypeProfile) {
  obj::ObjectId c = MakePlaced(config_type_, 0);
  obj::ObjectId v = MakePlaced(version_type_, 0);
  EXPECT_EQ(DominantKind(graph_, c), obj::RelKind::kConfiguration);
  EXPECT_EQ(DominantKind(graph_, v), obj::RelKind::kVersionHistory);
}

TEST_F(PrefetcherTest, ConfigurationGroupIsComponentPages) {
  obj::ObjectId parent = MakePlaced(config_type_, 0);
  obj::ObjectId c1 = MakePlaced(config_type_, 1);
  obj::ObjectId c2 = MakePlaced(config_type_, 2);
  obj::ObjectId c3 = MakePlaced(config_type_, 1);  // same page as c1
  graph_.Relate(parent, c1, obj::RelKind::kConfiguration);
  graph_.Relate(parent, c2, obj::RelKind::kConfiguration);
  graph_.Relate(parent, c3, obj::RelKind::kConfiguration);

  auto group =
      PrefetchGrouper().Compute(graph_, storage_, parent, AccessHint::None());
  EXPECT_EQ(group.kind, obj::RelKind::kConfiguration);
  std::sort(group.pages.begin(), group.pages.end());
  EXPECT_EQ(group.pages, (std::vector<PageId>{1, 2}));  // deduplicated
}

TEST_F(PrefetcherTest, OwnPageExcluded) {
  obj::ObjectId parent = MakePlaced(config_type_, 0);
  obj::ObjectId c1 = MakePlaced(config_type_, 0);  // co-located
  graph_.Relate(parent, c1, obj::RelKind::kConfiguration);
  auto group =
      PrefetchGrouper().Compute(graph_, storage_, parent, AccessHint::None());
  EXPECT_TRUE(group.pages.empty());
}

TEST_F(PrefetcherTest, HintOverridesTypeProfile) {
  obj::ObjectId o = MakePlaced(config_type_, 0);
  obj::ObjectId anc = MakePlaced(config_type_, 3);
  graph_.Relate(anc, o, obj::RelKind::kVersionHistory);
  auto group = PrefetchGrouper().Compute(
      graph_, storage_, o, AccessHint::For(obj::RelKind::kVersionHistory));
  EXPECT_EQ(group.kind, obj::RelKind::kVersionHistory);
  EXPECT_EQ(group.pages, (std::vector<PageId>{3}));  // immediate ancestor
}

TEST_F(PrefetcherTest, VersionGroupHasAncestorAndDescendants) {
  obj::ObjectId v2 = MakePlaced(version_type_, 0);
  obj::ObjectId v1 = MakePlaced(version_type_, 1);
  obj::ObjectId v3 = MakePlaced(version_type_, 2);
  graph_.Relate(v1, v2, obj::RelKind::kVersionHistory);
  graph_.Relate(v2, v3, obj::RelKind::kVersionHistory);
  auto group =
      PrefetchGrouper().Compute(graph_, storage_, v2, AccessHint::None());
  std::sort(group.pages.begin(), group.pages.end());
  EXPECT_EQ(group.pages, (std::vector<PageId>{1, 2}));
}

TEST_F(PrefetcherTest, CorrespondenceGroupSeesAllRepresentations) {
  obj::ObjectId lay = MakePlaced(config_type_, 0);
  obj::ObjectId net = MakePlaced(config_type_, 4);
  obj::ObjectId tr = MakePlaced(config_type_, 5);
  graph_.Relate(lay, net, obj::RelKind::kCorrespondence);
  graph_.Relate(lay, tr, obj::RelKind::kCorrespondence);
  auto group = PrefetchGrouper().Compute(
      graph_, storage_, lay, AccessHint::For(obj::RelKind::kCorrespondence));
  std::sort(group.pages.begin(), group.pages.end());
  EXPECT_EQ(group.pages, (std::vector<PageId>{4, 5}));
}

TEST_F(PrefetcherTest, UnplacedNeighboursIgnored) {
  obj::ObjectId parent = MakePlaced(config_type_, 0);
  obj::ObjectId ghost = MakePlaced(config_type_, kInvalidPage);  // unplaced
  graph_.Relate(parent, ghost, obj::RelKind::kConfiguration);
  auto group =
      PrefetchGrouper().Compute(graph_, storage_, parent, AccessHint::None());
  EXPECT_TRUE(group.pages.empty());
}

TEST_F(PrefetcherTest, ReusedGrouperMatchesFreshOne) {
  // One grouper serves every access in TxnPipeline: a group must not keep
  // pages or walk state from the previous call.
  obj::ObjectId parent = MakePlaced(config_type_, 0);
  obj::ObjectId c1 = MakePlaced(config_type_, 1);
  obj::ObjectId c2 = MakePlaced(config_type_, 2);
  obj::ObjectId g1 = MakePlaced(config_type_, 3);
  graph_.Relate(parent, c1, obj::RelKind::kConfiguration);
  graph_.Relate(parent, c2, obj::RelKind::kConfiguration);
  graph_.Relate(c1, g1, obj::RelKind::kConfiguration);
  obj::ObjectId v1 = MakePlaced(version_type_, 4);
  obj::ObjectId v2 = MakePlaced(version_type_, 5);
  graph_.Relate(v1, v2, obj::RelKind::kVersionHistory);

  PrefetchGrouper reused;
  for (obj::ObjectId o : {parent, v2, c1, parent, c2, v1}) {
    const PrefetchGroup want =
        PrefetchGrouper().Compute(graph_, storage_, o, AccessHint::None());
    const PrefetchGroup& got =
        reused.Compute(graph_, storage_, o, AccessHint::None());
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.pages, want.pages);
  }
  EXPECT_EQ(reused.Compute(graph_, storage_, parent, AccessHint::None()).pages,
            (std::vector<PageId>{1, 2, 3}));
}

}  // namespace
}  // namespace oodb::buffer
