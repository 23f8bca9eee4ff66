#include "dyn/access_tracker.h"

#include <algorithm>

namespace oodb::dyn {

// ---------------------------------------------------------------------------
// AccessTracker::FlatTable
// ---------------------------------------------------------------------------

void AccessTracker::FlatTable::Insert(uint64_t key, double value) {
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  Slot& s = slots_[Probe(key)];
  s.key = key;
  s.stamp = epoch_;
  s.value = value;
  ++size_;
}

void AccessTracker::FlatTable::Clear() {
  size_ = 0;
  if (++epoch_ != 0) return;
  // The stamp wrapped: wipe it, so no slot of an old epoch reads as live.
  for (Slot& s : slots_) s.stamp = 0;
  epoch_ = 1;
}

void AccessTracker::FlatTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const uint32_t old_epoch = epoch_;
  slots_.assign(old.size() * 2, Slot{});
  --shift_;
  epoch_ = 1;
  for (const Slot& s : old) {
    if (s.stamp == old_epoch) slots_[Probe(s.key)] = Slot{s.key, 1, s.value};
  }
}

// ---------------------------------------------------------------------------
// AccessTracker
// ---------------------------------------------------------------------------

void AccessTracker::BeginTransaction(obj::ObjectId root) {
  current_root_ = root;
  ++txns_in_period_;
}

void AccessTracker::Observe(obj::ObjectId id) {
  if (id == obj::kInvalidObject) return;
  ++observed_refs_;

  if (double* h = heat_.Find(id)) {
    *h += 1.0;
  } else if (heat_.size() < static_cast<size_t>(config_.max_tracked_objects)) {
    heat_.Insert(id, 1.0);
  } else {
    ++dropped_objects_;
    return;  // untracked objects also don't create links
  }

  if (current_root_ == obj::kInvalidObject || current_root_ == id) return;
  if (!heat_.Contains(current_root_)) return;
  const uint64_t key = LinkKey(current_root_, id);
  if (double* w = links_.Find(key)) {
    *w += 1.0;
  } else if (links_.size() < static_cast<size_t>(config_.max_tracked_links)) {
    links_.Insert(key, 1.0);
  } else {
    ++dropped_links_;
  }
}

std::vector<ClusterUnit> AccessTracker::Consolidate() {
  // Anchor candidates: heat >= threshold, ordered by (heat desc, id asc) so
  // the hottest objects claim their co-access partners first.
  const double threshold = config_.trigger_threshold;
  anchors_.clear();
  heat_.ForEach([&](uint64_t id, double h) {
    if (h >= threshold) {
      anchors_.emplace_back(h, static_cast<obj::ObjectId>(id));
    }
  });
  std::sort(anchors_.begin(), anchors_.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });

  // Partner lists from the link table (both endpoints), kept only for the
  // endpoints that can anchor: one vector grouped by anchor, each group by
  // (weight desc, id asc).
  partners_.clear();
  const auto is_candidate = [&](obj::ObjectId id) {
    const double* h = heat_.Find(id);
    return h != nullptr && *h >= threshold;
  };
  links_.ForEach([&](uint64_t key, double w) {
    const auto a = static_cast<obj::ObjectId>(key >> 32);
    const auto b = static_cast<obj::ObjectId>(key & 0xFFFFFFFFu);
    if (is_candidate(a)) partners_.push_back(Partner{a, b, w});
    if (is_candidate(b)) partners_.push_back(Partner{b, a, w});
  });
  std::sort(partners_.begin(), partners_.end(),
            [](const Partner& x, const Partner& y) {
              if (x.anchor != y.anchor) return x.anchor < y.anchor;
              if (x.weight != y.weight) return x.weight > y.weight;
              return x.id < y.id;
            });

  std::vector<ClusterUnit> units;
  absorbed_.Clear();
  for (const auto& [h, anchor] : anchors_) {
    if (absorbed_.Contains(anchor)) continue;
    auto first = std::lower_bound(
        partners_.begin(), partners_.end(), anchor,
        [](const Partner& p, obj::ObjectId a) { return p.anchor < a; });
    if (first == partners_.end() || first->anchor != anchor) {
      continue;  // hot but never co-accessed
    }
    ClusterUnit unit;
    unit.anchor = anchor;
    unit.heat = h;
    for (auto it = first; it != partners_.end() && it->anchor == anchor;
         ++it) {
      if (static_cast<int>(unit.members.size()) >= config_.max_unit_size)
        break;
      if (absorbed_.Contains(it->id)) continue;
      unit.members.push_back(it->id);
    }
    if (unit.members.empty()) continue;
    absorbed_.Insert(anchor, 0);
    for (obj::ObjectId m : unit.members) absorbed_.Insert(m, 0);
    units.push_back(std::move(unit));
  }

  // Decay + prune: the observation window forgets, bounding both tables to
  // the recently-hot working set.
  DecayAndPrune(heat_);
  DecayAndPrune(links_);
  txns_in_period_ = 0;
  return units;
}

void AccessTracker::DecayAndPrune(FlatTable& table) {
  survivors_.clear();
  table.ForEach([&](uint64_t key, double& v) {
    v *= config_.heat_decay;
    if (!(v < 0.5)) survivors_.emplace_back(key, v);
  });
  table.Clear();
  for (const auto& [key, v] : survivors_) table.Insert(key, v);
}

}  // namespace oodb::dyn
