#include "gtest/gtest.h"

#include <algorithm>
#include <string>
#include <vector>

#include "cc/cc_config.h"
#include "cc/lock_manager.h"
#include "core/engineering_db.h"
#include "core/model_config.h"
#include "core/policy_registry.h"
#include "core/scenario.h"
#include "exec/experiment_runner.h"
#include "obs/span_profiler.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace oodb {
namespace {

using cc::CcConfig;
using cc::LockManager;
using cc::LockMode;

// ----------------------------------------------------------- lock manager
//
// The unit tests drive the manager with bare coroutines on a Simulator,
// the same way TxnPipeline does, and record grant/deny outcomes in
// arrival order.

CcConfig FastCc() {
  CcConfig cfg;
  cfg.enabled = true;
  cfg.lock_timeout_s = 1.0;
  return cfg;
}

struct LockProbe {
  bool done = false;
  bool granted = false;
  double at = 0;
};

sim::Task AcquireAndHold(sim::Simulator& sim, LockManager& lm, cc::TxnId txn,
                         cc::LockKey key, LockMode mode, LockProbe& probe) {
  probe.granted = co_await lm.Acquire(txn, key, mode);
  probe.done = true;
  probe.at = sim.now();
}

TEST(LockManagerTest, SharedLocksCoexistExclusiveConflicts) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe s1, s2, x1;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 42, LockMode::kShared, s1));
  sim::Spawn(AcquireAndHold(sim, lm, 2, 42, LockMode::kShared, s2));
  // Spawn runs eagerly: both shared grants are immediate.
  EXPECT_TRUE(s1.done && s1.granted);
  EXPECT_TRUE(s2.done && s2.granted);
  EXPECT_TRUE(lm.Holds(1, 42, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, 42, LockMode::kShared));
  EXPECT_FALSE(lm.Holds(1, 42, LockMode::kExclusive));

  sim::Spawn(AcquireAndHold(sim, lm, 3, 42, LockMode::kExclusive, x1));
  EXPECT_FALSE(x1.done);  // queued behind the two shared holders
  EXPECT_EQ(lm.queue_length(42), 1u);

  lm.ReleaseAll(1);
  EXPECT_FALSE(x1.done);  // txn 2 still holds shared
  lm.ReleaseAll(2);
  EXPECT_TRUE(x1.done && x1.granted);  // granted synchronously on release
  EXPECT_TRUE(lm.Holds(3, 42, LockMode::kExclusive));

  sim.Run();  // drain the (resolved, no-op) timeout event
  EXPECT_EQ(lm.stats().lock_grants, 3u);
  EXPECT_EQ(lm.stats().lock_waits, 1u);
  EXPECT_EQ(lm.stats().lock_timeouts, 0u);
}

TEST(LockManagerTest, ReentrantAndCoveringGrants) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe x, s;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 7, LockMode::kExclusive, x));
  ASSERT_TRUE(x.done && x.granted);
  // Exclusive covers shared, and re-requests do not double-book.
  sim::Spawn(AcquireAndHold(sim, lm, 1, 7, LockMode::kShared, s));
  EXPECT_TRUE(s.done && s.granted);
  EXPECT_EQ(lm.held_count(1), 1u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.held_count(1), 0u);
  sim.Run();
}

TEST(LockManagerTest, FifoWaitersGrantInArrivalOrderNoQueueJumping) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe holder;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 9, LockMode::kExclusive, holder));
  ASSERT_TRUE(holder.granted);

  // A shared waiter queued behind an exclusive waiter must NOT jump the
  // queue even while the current holder is shared-compatible-after-X.
  std::vector<int> grant_order;
  LockProbe w[3];
  const LockMode modes[3] = {LockMode::kExclusive, LockMode::kShared,
                             LockMode::kShared};
  for (int i = 0; i < 3; ++i) {
    sim::Spawn([](LockManager& m, int idx, LockMode mode, LockProbe& p,
                  std::vector<int>& order) -> sim::Task {
      p.granted = co_await m.Acquire(static_cast<cc::TxnId>(10 + idx), 9, mode);
      p.done = true;
      order.push_back(idx);
    }(lm, i, modes[i], w[i], grant_order));
  }
  EXPECT_EQ(lm.queue_length(9), 3u);

  lm.ReleaseAll(1);
  // The exclusive waiter at the front gets the lock alone...
  EXPECT_TRUE(w[0].done && w[0].granted);
  EXPECT_FALSE(w[1].done);
  EXPECT_FALSE(w[2].done);
  lm.ReleaseAll(10);
  // ...then both shared waiters are granted together, in FIFO order.
  EXPECT_TRUE(w[1].done && w[1].granted);
  EXPECT_TRUE(w[2].done && w[2].granted);
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
  sim.Run();
}

TEST(LockManagerTest, SoleSharedHolderUpgradesInPlace) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe s, up;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 5, LockMode::kShared, s));
  ASSERT_TRUE(s.granted);
  sim::Spawn(AcquireAndHold(sim, lm, 1, 5, LockMode::kExclusive, up));
  EXPECT_TRUE(up.done && up.granted);  // immediate: no other holder
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kExclusive));
  EXPECT_EQ(lm.held_count(1), 1u);
  lm.ReleaseAll(1);
  sim.Run();
  EXPECT_EQ(lm.stats().lock_timeouts, 0u);
}

sim::Task UpgradeThenRelease(sim::Simulator& sim, LockManager& lm,
                             cc::TxnId txn, cc::LockKey key, LockProbe& probe) {
  probe.granted = co_await lm.Acquire(txn, key, LockMode::kExclusive);
  probe.done = true;
  probe.at = sim.now();
  if (!probe.granted) lm.ReleaseAll(txn);  // abort: drop the shared hold
}

TEST(LockManagerTest, UpgradeDeadlockResolvedByTimeoutVictimRetreats) {
  // The classic upgrade deadlock: two shared holders both request
  // exclusive. Neither can proceed; the first-queued waiter times out,
  // aborts (releasing its shared hold), and the survivor upgrades.
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe s1, s2, u1, u2;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 3, LockMode::kShared, s1));
  sim::Spawn(AcquireAndHold(sim, lm, 2, 3, LockMode::kShared, s2));
  sim::Spawn(UpgradeThenRelease(sim, lm, 1, 3, u1));
  sim::Spawn(UpgradeThenRelease(sim, lm, 2, 3, u2));
  EXPECT_FALSE(u1.done);
  EXPECT_FALSE(u2.done);
  sim.Run();
  // Txn 1 queued first, so its timeout fires first and it is the victim.
  EXPECT_TRUE(u1.done);
  EXPECT_FALSE(u1.granted);
  EXPECT_DOUBLE_EQ(u1.at, 1.0);  // exactly lock_timeout_s on the clock
  EXPECT_TRUE(u2.done);
  EXPECT_TRUE(u2.granted);
  EXPECT_TRUE(lm.Holds(2, 3, LockMode::kExclusive));
  EXPECT_EQ(lm.stats().lock_timeouts, 1u);
  EXPECT_GT(lm.stats().lock_wait_time_s, 0.0);
}

TEST(LockManagerTest, CrossObjectDeadlockVictimIsFirstEnqueued) {
  // txn 1 holds A and wants B; txn 2 holds B and wants A. The wait-for
  // cycle cannot resolve by releases, so the first-enqueued waiter times
  // out deterministically and the other grants on its ReleaseAll.
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  LockProbe a1, b2, want_b, want_a;
  sim::Spawn(AcquireAndHold(sim, lm, 1, 100, LockMode::kExclusive, a1));
  sim::Spawn(AcquireAndHold(sim, lm, 2, 200, LockMode::kExclusive, b2));
  ASSERT_TRUE(a1.granted && b2.granted);

  sim::Spawn([](sim::Simulator& s, LockManager& m, LockProbe& p) -> sim::Task {
    p.granted = co_await m.Acquire(1, 200, LockMode::kExclusive);
    p.done = true;
    p.at = s.now();
    if (!p.granted) m.ReleaseAll(1);
  }(sim, lm, want_b));
  sim::Spawn([](sim::Simulator& s, LockManager& m, LockProbe& p) -> sim::Task {
    p.granted = co_await m.Acquire(2, 100, LockMode::kExclusive);
    p.done = true;
    p.at = s.now();
    if (!p.granted) m.ReleaseAll(2);
  }(sim, lm, want_a));

  sim.Run();
  EXPECT_TRUE(want_b.done);
  EXPECT_FALSE(want_b.granted);  // txn 1 enqueued first: the victim
  EXPECT_TRUE(want_a.done);
  EXPECT_TRUE(want_a.granted);  // granted by the victim's ReleaseAll
  EXPECT_EQ(lm.stats().lock_timeouts, 1u);
  EXPECT_TRUE(lm.Holds(2, 100, LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(2, 200, LockMode::kExclusive));
}

sim::Task LatchHold(sim::Simulator& sim, LockManager& lm, cc::LockKey key,
                    double hold_s, std::vector<double>& acquired_at) {
  co_await lm.AcquireLatch(key);
  acquired_at.push_back(sim.now());
  co_await sim::Delay(sim, hold_s);
  lm.ReleaseLatch(key);
}

TEST(LockManagerTest, PageLatchesAreExclusiveFifoWithoutTimeout) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  std::vector<double> acquired_at;
  for (int i = 0; i < 4; ++i) {
    sim::Spawn(LatchHold(sim, lm, 77, 2.0, acquired_at));
  }
  sim.Run();
  // Strictly serialised FIFO, and no waiter timed out even though every
  // wait exceeded lock_timeout_s (latches have no timeout).
  EXPECT_EQ(acquired_at, (std::vector<double>{0.0, 2.0, 4.0, 6.0}));
  EXPECT_EQ(lm.stats().latch_grants, 4u);
  EXPECT_EQ(lm.stats().latch_waits, 3u);
  EXPECT_EQ(lm.stats().lock_timeouts, 0u);
  EXPECT_DOUBLE_EQ(lm.stats().latch_wait_time_s, 2.0 + 4.0 + 6.0);
}

/// Tracks the lock manager's table sizes across a run: each table's peak
/// of live entries, and whether its spare nodes ever outnumbered it.
struct TableWatch {
  size_t peak_live[3] = {};
  bool spare_over_peak = false;

  void Sample(const LockManager& lm) {
    const LockManager::TableSizes t = lm.table_sizes();
    const LockManager::TableSize tables[3] = {t.locks, t.latches, t.held};
    for (int i = 0; i < 3; ++i) {
      peak_live[i] = std::max(peak_live[i], tables[i].live);
      if (tables[i].spare > peak_live[i]) spare_over_peak = true;
    }
  }
};

/// One transaction of the churn test: a latch held briefly, then locks on
/// random keys (some shared-then-exclusive upgrades) with delays between
/// them; a timed-out request aborts and releases everything.
sim::Task ChurnTxn(sim::Simulator& sim, LockManager& lm, cc::TxnId txn,
                   uint64_t seed, TableWatch& watch) {
  Rng rng(seed);
  co_await sim::Delay(sim, rng.UniformDouble(0.0, 20.0));
  const cc::LockKey page = 1000 + rng.NextBelow(3);
  co_await lm.AcquireLatch(page);
  watch.Sample(lm);
  co_await sim::Delay(sim, 0.01);
  lm.ReleaseLatch(page);
  watch.Sample(lm);
  for (int i = 0; i < 4; ++i) {
    const cc::LockKey key = rng.NextBelow(8);
    const bool upgrade = rng.Bernoulli(0.3);
    const LockMode mode = upgrade || rng.Bernoulli(0.5) ? LockMode::kShared
                                                        : LockMode::kExclusive;
    bool granted = co_await lm.Acquire(txn, key, mode);
    watch.Sample(lm);
    if (granted && upgrade) {
      co_await sim::Delay(sim, 0.05);
      granted = co_await lm.Acquire(txn, key, LockMode::kExclusive);
      watch.Sample(lm);
    }
    if (!granted) break;  // presumed abort
    co_await sim::Delay(sim, rng.UniformDouble(0.0, 0.3));
  }
  lm.ReleaseAll(txn);
  watch.Sample(lm);
}

TEST(LockManagerTest, RecycledTableNodesStayBoundedUnderChurn) {
  sim::Simulator sim;
  LockManager lm(sim, FastCc());
  TableWatch watch;
  for (cc::TxnId txn = 1; txn <= 400; ++txn) {
    sim::Spawn(ChurnTxn(sim, lm, txn, 7 * txn, watch));
  }
  sim.Run();
  watch.Sample(lm);
  EXPECT_FALSE(watch.spare_over_peak);
  const LockManager::TableSizes t = lm.table_sizes();
  EXPECT_EQ(t.locks.live, 0u);
  EXPECT_EQ(t.latches.live, 0u);
  EXPECT_EQ(t.held.live, 0u);
  // Emptied nodes were recycled rather than freed...
  EXPECT_GT(t.locks.spare, 0u);
  EXPECT_GT(t.latches.spare, 0u);
  EXPECT_GT(t.held.spare, 0u);
  // ...through every path that empties an entry.
  EXPECT_GT(lm.stats().lock_waits, 0u);
  EXPECT_GT(lm.stats().lock_timeouts, 0u);
  EXPECT_GT(lm.stats().latch_waits, 0u);
  EXPECT_EQ(lm.stats().latch_grants, 400u);
}

// ------------------------------------------------------------------ model
//
// End-to-end contract on the engineering-database model: the cc layer off
// is byte-invisible, on it is deterministic at any job count.

core::ModelConfig ContentionConfig() {
  core::ModelConfig cfg = core::TestConfig();
  cfg.num_users = 20;
  cfg.think_time_s = 0.1;               // hot closed loop: real overlap
  cfg.workload.read_write_ratio = 2.0;  // write-heavy: exclusive locks
  cfg.cc.enabled = true;
  cfg.cc.lock_timeout_s = 0.25;
  cfg.seed = 11;
  return cfg;
}

TEST(CcModelTest, DisabledCcKnobsAreBitInvisible) {
  // With enabled == false every other cc knob is inert: not one event,
  // RNG draw, or metric may differ from the plain config.
  core::ModelConfig a = core::TestConfig();
  core::ModelConfig b = core::TestConfig();
  b.cc.lock_timeout_s = 0.01;
  b.cc.max_retries = 0;
  b.cc.backoff_base_s = 1.0;
  b.cc.backoff_cap_s = 2.0;
  b.cc.page_latches = false;
  const core::RunResult ra = core::EngineeringDbModel(a).Run();
  const core::RunResult rb = core::EngineeringDbModel(b).Run();
  EXPECT_EQ(ra.response_time.Mean(), rb.response_time.Mean());
  EXPECT_EQ(ra.transactions, rb.transactions);
  EXPECT_EQ(ra.logical_reads, rb.logical_reads);
  EXPECT_EQ(ra.total_physical_ios(), rb.total_physical_ios());
  EXPECT_FALSE(ra.cc_enabled);
  EXPECT_FALSE(rb.cc_enabled);
  EXPECT_EQ(rb.cc_lock_grants, 0u);
  EXPECT_EQ(rb.cc_txn_aborts, 0u);
}

TEST(CcModelTest, EnabledCcRunsLocksAndCompletes) {
  const core::RunResult r = core::EngineeringDbModel(ContentionConfig()).Run();
  EXPECT_TRUE(r.cc_enabled);
  EXPECT_GT(r.transactions, 0u);
  EXPECT_GT(r.cc_lock_grants, 0u);
  // 20 users on a hot write-heavy loop with per-page latches: some
  // request must have queued somewhere.
  EXPECT_GT(r.cc_lock_waits + r.cc_latch_waits, 0u);
  // Every abort is either retried or given up, never lost.
  EXPECT_EQ(r.cc_txn_aborts, r.cc_txn_retries + r.cc_txn_giveups);
  EXPECT_GE(r.cc_abort_rate, 0.0);
  EXPECT_LE(r.cc_abort_rate, 1.0);
}

TEST(CcModelTest, CcRunsAreIdenticalAcrossJobCounts) {
  core::ModelConfig open = ContentionConfig();
  open.arrival = core::ArrivalProcess::kOpen;
  open.arrival_rate_tps = 50.0;
  std::vector<core::ModelConfig> cells = {ContentionConfig(), open};
  const auto serial = exec::ExperimentRunner(1).Run(cells);
  const auto parallel = exec::ExperimentRunner(4).Run(cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    const core::RunResult& a = serial[i].result;
    const core::RunResult& b = parallel[i].result;
    EXPECT_EQ(a.response_time.Mean(), b.response_time.Mean());
    EXPECT_EQ(a.transactions, b.transactions);
    EXPECT_EQ(a.total_physical_ios(), b.total_physical_ios());
    EXPECT_EQ(a.cc_lock_grants, b.cc_lock_grants);
    EXPECT_EQ(a.cc_lock_waits, b.cc_lock_waits);
    EXPECT_EQ(a.cc_deadlock_timeouts, b.cc_deadlock_timeouts);
    EXPECT_EQ(a.cc_txn_aborts, b.cc_txn_aborts);
    EXPECT_EQ(a.cc_txn_retries, b.cc_txn_retries);
    EXPECT_EQ(a.cc_txn_giveups, b.cc_txn_giveups);
    EXPECT_EQ(a.cc_rollback_pages, b.cc_rollback_pages);
    EXPECT_EQ(a.cc_lock_wait_time_s, b.cc_lock_wait_time_s);
  }
}

TEST(CcModelTest, OpenArrivalsCompleteAndCount) {
  core::ModelConfig cfg = core::TestConfig();
  cfg.arrival = core::ArrivalProcess::kOpen;
  cfg.arrival_rate_tps = 100.0;
  const core::RunResult r = core::EngineeringDbModel(cfg).Run();
  EXPECT_EQ(r.transactions,
            static_cast<uint64_t>(cfg.measured_transactions));
  EXPECT_GT(r.response_time.Mean(), 0.0);
}

TEST(CcModelTest, SpanAdditivityHoldsWithLockWaitPhase) {
  // DESIGN.md §14 extended by §16: with the lock_wait phase in the
  // taxonomy, per-kind phase ticks still sum exactly to response ticks.
  core::ModelConfig cfg = ContentionConfig();
  cfg.profile_spans = true;
  const core::RunResult r = core::EngineeringDbModel(cfg).Run();
  ASSERT_FALSE(r.span_breakdown.empty());
  for (const obs::SpanKindBreakdown& b : r.span_breakdown) {
    SCOPED_TRACE(b.kind);
    uint64_t sum = 0;
    for (const uint64_t t : b.phase_ticks) sum += t;
    EXPECT_EQ(sum, b.response_ticks);
  }
}

// --------------------------------------------------------------- scenario

TEST(CcScenarioTest, ConcurrencySectionRoundTripsAndGates) {
  const auto spec = core::ParseScenario(R"json({
    "name": "cc_roundtrip",
    "config": {
      "buffer_pages": 64,
      "concurrency": {"enabled": true, "cc_lock_timeout_s": 0.5,
                      "cc_max_retries": 3, "cc_backoff_base_s": 0.02,
                      "cc_backoff_cap_s": 1.0, "cc_page_latches": false},
      "arrival": "Open", "arrival_rate_tps": 40,
      "clustering": {"pool": "No_Clustering"}
    },
    "sweep": {"users": [10, 20]}
  })json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->base.cc.enabled);
  EXPECT_DOUBLE_EQ(spec->base.cc.lock_timeout_s, 0.5);
  EXPECT_EQ(spec->base.cc.max_retries, 3);
  EXPECT_FALSE(spec->base.cc.page_latches);
  EXPECT_EQ(spec->base.arrival, core::ArrivalProcess::kOpen);
  EXPECT_DOUBLE_EQ(spec->base.arrival_rate_tps, 40.0);

  const std::string json = spec->ToJson();
  const auto second = core::ParseScenario(json);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(json, second->ToJson());

  // The users axis is outermost and prefixes the policy label.
  const auto cells = spec->Expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].config.num_users, 10);
  EXPECT_EQ(cells[1].config.num_users, 20);
  EXPECT_EQ(cells[0].policy.rfind("10users", 0), 0u) << cells[0].policy;
}

TEST(CcScenarioTest, InertCcKnobsAreErrors) {
  const auto expect_error = [](const char* json, const std::string& needle) {
    const auto spec = core::ParseScenario(json);
    ASSERT_FALSE(spec.ok()) << json;
    EXPECT_NE(spec.status().message().find(needle), std::string::npos)
        << spec.status().ToString();
  };
  // A cc_* knob with the lock manager off is a silent no-op, so it is an
  // error — regardless of key order within the section.
  expect_error(
      R"({"name": "x", "config": {"concurrency": {"cc_max_retries": 3}}})",
      "add \"enabled\": true");
  // arrival_rate_tps only matters under open arrivals.
  expect_error(R"({"name": "x", "config": {"arrival_rate_tps": 40}})",
               "arrival");
  // Order-independent: enabled after the knob is fine.
  EXPECT_TRUE(core::ParseScenario(
                  R"({"name": "x",
                      "config": {"concurrency": {"cc_max_retries": 3,
                                                 "enabled": true}}})")
                  .ok());
}

TEST(CcScenarioTest, ArrivalAxisResolvesThroughRegistry) {
  const core::PolicyRegistry& reg = core::PolicyRegistry::Global();
  EXPECT_EQ(reg.Arrival("Closed"), core::ArrivalProcess::kClosed);
  EXPECT_EQ(reg.Arrival("Open"), core::ArrivalProcess::kOpen);
  EXPECT_EQ(reg.Arrival("poisson"), core::ArrivalProcess::kOpen);
  EXPECT_EQ(reg.Arrival("closed_loop"), core::ArrivalProcess::kClosed);
  EXPECT_FALSE(reg.Arrival("batch").has_value());
}

}  // namespace
}  // namespace oodb
