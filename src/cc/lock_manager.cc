#include "cc/lock_manager.h"

#include <algorithm>

#include "util/check.h"

namespace oodb::cc {

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kShared:
      return "S";
    case LockMode::kExclusive:
      return "X";
  }
  return "?";
}

LockManager::LockManager(sim::Simulator& sim, const CcConfig& config)
    : sim_(sim), config_(config) {}

LockManager::~LockManager() = default;

bool LockManager::CompatibleWithHolders(const LockEntry& entry, TxnId txn,
                                        LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) continue;  // own hold never conflicts (upgrade case)
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

bool LockManager::Covers(const LockEntry& entry, TxnId txn, LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn != txn) continue;
    return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
  }
  return false;
}

bool LockManager::Holds(TxnId txn, LockKey key, LockMode mode) const {
  auto it = locks_.map.find(key);
  return it != locks_.map.end() && Covers(it->second, txn, mode);
}

void LockManager::ApplyGrant(LockEntry& entry, TxnId txn, LockKey key,
                             LockMode mode) {
  for (Holder& h : entry.holders) {
    if (h.txn != txn) continue;
    // Re-grant or S -> X upgrade on the existing hold: the key is
    // already in held_[txn], so ReleaseAll stays single-shot.
    if (mode == LockMode::kExclusive) h.mode = LockMode::kExclusive;
    return;
  }
  entry.holders.push_back(Holder{txn, mode});
  held_[txn].push_back(key);
}

bool LockManager::TryImmediateGrant(TxnId txn, LockKey key, LockMode mode) {
  LockEntry& entry = locks_[key];
  if (Covers(entry, txn, mode)) {
    ++stats_.lock_grants;
    return true;  // already covered; no queue fairness question arises
  }
  // FIFO fairness: a newcomer only bypasses the queue when there is no
  // queue — otherwise a stream of shared requests would starve a queued
  // exclusive one forever.
  if (!entry.queue.empty() || !CompatibleWithHolders(entry, txn, mode)) {
    return false;
  }
  ApplyGrant(entry, txn, key, mode);
  ++stats_.lock_grants;
  return true;
}

void LockManager::GrantWaiters(LockKey key) {
  auto it = locks_.map.find(key);
  if (it == locks_.map.end()) return;
  // Collect the grantable prefix first, then resume: a resumed waiter
  // runs synchronously and may re-enter the manager (release this very
  // key, even erase the entry), so no iterator may live across a resume.
  std::vector<std::shared_ptr<Waiter>> resumable;
  {
    LockEntry& entry = it->second;
    while (!entry.queue.empty()) {
      const std::shared_ptr<Waiter>& w = entry.queue.front();
      if (!CompatibleWithHolders(entry, w->txn, w->mode)) break;
      ApplyGrant(entry, w->txn, key, w->mode);
      w->granted = true;
      w->resolved = true;
      ++stats_.lock_grants;
      stats_.lock_wait_time_s += sim_.now() - w->enqueued_s;
      resumable.push_back(w);
      entry.queue.pop_front();
    }
    if (entry.holders.empty() && entry.queue.empty()) locks_.Retire(it);
  }
  for (const std::shared_ptr<Waiter>& w : resumable) w->handle.resume();
}

void LockManager::OnTimeout(LockKey key,
                            const std::shared_ptr<Waiter>& waiter) {
  // Events cannot be cancelled in the calendar queue; a grant that beat
  // this timeout left the waiter resolved and this event is a no-op.
  if (waiter->resolved) return;
  auto it = locks_.map.find(key);
  OODB_CHECK(it != locks_.map.end());
  LockEntry& entry = it->second;
  auto pos = std::find(entry.queue.begin(), entry.queue.end(), waiter);
  OODB_CHECK(pos != entry.queue.end());
  entry.queue.erase(pos);
  waiter->granted = false;
  waiter->resolved = true;
  ++stats_.lock_timeouts;
  stats_.lock_wait_time_s += sim_.now() - waiter->enqueued_s;
  // Removing a queued request can unblock those behind it (e.g. a
  // timed-out X request that was fencing compatible S requests). Grant
  // them before resuming the victim so the victim's rollback/retry runs
  // after the survivors are on their way — deterministic either way, but
  // this ordering keeps the queue state canonical when the victim
  // re-requests the same key during its retry.
  GrantWaiters(key);
  waiter->handle.resume();
}

// ---------------------------------------------------------------------------
// LockAwait
// ---------------------------------------------------------------------------

bool LockManager::LockAwait::await_ready() {
  return lm_.TryImmediateGrant(txn_, key_, mode_);
}

void LockManager::LockAwait::await_suspend(std::coroutine_handle<> h) {
  waiter_ = std::make_shared<Waiter>();
  waiter_->txn = txn_;
  waiter_->mode = mode_;
  waiter_->handle = h;
  waiter_->enqueued_s = lm_.sim_.now();
  lm_.locks_[key_].queue.push_back(waiter_);
  ++lm_.stats_.lock_waits;
  // One timeout event per queued waiter, scheduled up front (no
  // cancellation): whichever of grant/timeout fires second sees
  // `resolved` and no-ops.
  const LockKey key = key_;
  std::shared_ptr<Waiter> w = waiter_;
  LockManager* lm = &lm_;
  lm_.sim_.Schedule(lm_.config_.lock_timeout_s,
                    [lm, key, w] { lm->OnTimeout(key, w); });
}

bool LockManager::LockAwait::await_resume() {
  if (waiter_ == nullptr) return true;  // immediate grant via await_ready
  OODB_CHECK(waiter_->resolved);
  return waiter_->granted;
}

// ---------------------------------------------------------------------------
// Release
// ---------------------------------------------------------------------------

void LockManager::ReleaseAll(TxnId txn) {
  auto held_it = held_.map.find(txn);
  if (held_it == held_.map.end()) return;
  // Take the key list's node out of the table: GrantWaiters resumes
  // waiters synchronously and a resumed transaction may mutate held_
  // (its own acquisitions).
  auto held = held_.map.extract(held_it);
  ++held_in_release_;
  for (const LockKey key : held.mapped()) {
    auto it = locks_.map.find(key);
    if (it == locks_.map.end()) continue;
    LockEntry& entry = it->second;
    entry.holders.erase(
        std::remove_if(entry.holders.begin(), entry.holders.end(),
                       [txn](const Holder& h) { return h.txn == txn; }),
        entry.holders.end());
    if (entry.holders.empty() && entry.queue.empty()) {
      locks_.Retire(it);
      continue;
    }
    GrantWaiters(key);
  }
  held.mapped().clear();
  held_.spare.push_back(std::move(held));
  --held_in_release_;
}

// ---------------------------------------------------------------------------
// Latches
// ---------------------------------------------------------------------------

bool LockManager::LatchAwait::await_ready() {
  LatchEntry& entry = lm_.latches_[key_];
  if (entry.held) return false;
  entry.held = true;
  ++lm_.stats_.latch_grants;
  return true;
}

void LockManager::LatchAwait::await_suspend(std::coroutine_handle<> h) {
  LatchEntry& entry = lm_.latches_[key_];
  entry.queue.emplace_back(h, lm_.sim_.now());
  ++lm_.stats_.latch_waits;
}

void LockManager::ReleaseLatch(LockKey key) {
  auto it = latches_.map.find(key);
  OODB_CHECK(it != latches_.map.end());
  LatchEntry& entry = it->second;
  OODB_CHECK(entry.held);
  if (entry.queue.empty()) {
    entry.held = false;
    latches_.Retire(it);
    return;
  }
  // Hand the latch to the FIFO head; it stays held across the transfer.
  auto [handle, enqueued_s] = entry.queue.front();
  entry.queue.pop_front();
  ++stats_.latch_grants;
  stats_.latch_wait_time_s += sim_.now() - enqueued_s;
  handle.resume();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t LockManager::held_count(TxnId txn) const {
  auto it = held_.map.find(txn);
  return it == held_.map.end() ? 0 : it->second.size();
}

size_t LockManager::queue_length(LockKey key) const {
  auto it = locks_.map.find(key);
  return it == locks_.map.end() ? 0 : it->second.queue.size();
}

LockManager::TableSizes LockManager::table_sizes() const {
  return TableSizes{
      {locks_.map.size(), locks_.spare.size()},
      {latches_.map.size(), latches_.spare.size()},
      {held_.map.size() + held_in_release_, held_.spare.size()}};
}

}  // namespace oodb::cc
