#include "buffer/buffer_pool.h"

#include <algorithm>

namespace oodb::buffer {

const char* ReplacementPolicyName(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru:
      return "LRU";
    case ReplacementPolicy::kContextSensitive:
      return "Context-sensitive";
    case ReplacementPolicy::kRandom:
      return "Random";
  }
  return "unknown";
}

const char* PrefetchPolicyName(PrefetchPolicy p) {
  switch (p) {
    case PrefetchPolicy::kNone:
      return "No_prefetch";
    case PrefetchPolicy::kWithinBuffer:
      return "Prefetch_within_buffer";
    case PrefetchPolicy::kWithinDb:
      return "Prefetch_within_DB";
  }
  return "unknown";
}

BufferPool::BufferPool(size_t capacity, ReplacementPolicy policy,
                       uint64_t seed)
    : capacity_(capacity), policy_(policy), rng_(seed) {
  OODB_CHECK_GE(capacity, 1u);
  frames_.resize(capacity);
  free_frames_.reserve(capacity);
  if (policy_ == ReplacementPolicy::kContextSensitive) {
    index_.reserve(capacity);
    index_pos_.assign(capacity, kNotIndexed);
  }
  // Hand out frame 0 first for determinism.
  for (size_t i = capacity; i-- > 0;) {
    free_frames_.push_back(static_cast<FrameId>(i));
  }
}

void BufferPool::LruUnlink(FrameId f) {
  Frame& fr = frames_[f];
  if (fr.lru_prev != kNoFrame) {
    frames_[fr.lru_prev].lru_next = fr.lru_next;
  } else if (lru_head_ == f) {
    lru_head_ = fr.lru_next;
  }
  if (fr.lru_next != kNoFrame) {
    frames_[fr.lru_next].lru_prev = fr.lru_prev;
  } else if (lru_tail_ == f) {
    lru_tail_ = fr.lru_prev;
  }
  fr.lru_prev = fr.lru_next = kNoFrame;
}

void BufferPool::LruPushMru(FrameId f) {
  Frame& fr = frames_[f];
  fr.lru_prev = lru_tail_;
  fr.lru_next = kNoFrame;
  if (lru_tail_ != kNoFrame) frames_[lru_tail_].lru_next = f;
  lru_tail_ = f;
  if (lru_head_ == kNoFrame) lru_head_ = f;
}

void BufferPool::SiftUp(uint32_t pos, IndexEntry e) {
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!(e < index_[parent])) break;
    index_[pos] = index_[parent];
    index_pos_[index_[pos].frame] = pos;
    pos = parent;
  }
  index_[pos] = e;
  index_pos_[e.frame] = pos;
}

void BufferPool::SiftDown(uint32_t pos, IndexEntry e) {
  const auto n = static_cast<uint32_t>(index_.size());
  for (;;) {
    uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && index_[child + 1] < index_[child]) ++child;
    if (!(index_[child] < e)) break;
    index_[pos] = index_[child];
    index_pos_[index_[pos].frame] = pos;
    pos = child;
  }
  index_[pos] = e;
  index_pos_[e.frame] = pos;
}

void BufferPool::IndexInsert(FrameId f) {
  index_.push_back(ExactEntry(f));
  SiftUp(static_cast<uint32_t>(index_.size() - 1), ExactEntry(f));
}

void BufferPool::IndexErase(FrameId f) {
  const uint32_t pos = index_pos_[f];
  index_pos_[f] = kNotIndexed;
  const IndexEntry last = index_.back();
  index_.pop_back();
  if (pos == index_.size()) return;  // f held the last slot
  if (pos > 0 && last < index_[(pos - 1) / 2]) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void BufferPool::RecordAccess(FrameId f) {
  switch (policy_) {
    case ReplacementPolicy::kLru:
      LruUnlink(f);
      LruPushMru(f);
      break;
    case ReplacementPolicy::kContextSensitive: {
      Frame& fr = frames_[f];
      access_clock_ += 1.0;
      fr.priority = access_clock_;
      fr.heap_stamp = next_stamp_++;
      fr.boosted = false;  // plain recency from here on
      // The new stamp is the largest yet, so the key falls below the
      // entry's only on a lower priority: when the index holds a boosted
      // key above the clock. Then the entry moves up in place; otherwise
      // it stays a lower bound.
      const uint32_t pos = index_pos_[f];
      if (pos != kNotIndexed && fr.priority < index_[pos].priority) {
        SiftUp(pos, ExactEntry(f));
      }
      break;
    }
    case ReplacementPolicy::kRandom:
      break;
  }
}

BufferPool::FixResult BufferPool::Fix(store::PageId page) {
  OODB_CHECK_NE(page, store::kInvalidPage);
  FixResult result;
  const FrameId resident = FrameOf(page);
  if (resident != kNoFrame) {
    ++hits_;
    result.hit = true;
    RecordAccess(resident);
    return result;
  }

  ++misses_;
  FrameId f;
  const bool fresh = !free_frames_.empty();
  if (fresh) {
    f = free_frames_.back();
    free_frames_.pop_back();
  } else {
    f = PickVictim();
    OODB_CHECK_NE(f, kNoFrame);  // capacity must exceed pinned pages
    Frame& victim = frames_[f];
    result.evicted_page = victim.page;
    result.evicted_dirty = victim.dirty;
    ++evictions_;
    if (victim.dirty) ++dirty_evictions_;
    if (trace_ != nullptr) {
      obs::EvictionClass cls = obs::EvictionClass::kPlainRecency;
      switch (policy_) {
        case ReplacementPolicy::kLru:
          cls = obs::EvictionClass::kLru;
          break;
        case ReplacementPolicy::kRandom:
          cls = obs::EvictionClass::kRandom;
          break;
        case ReplacementPolicy::kContextSensitive:
          cls = victim.boosted ? obs::EvictionClass::kContextBoosted
                               : obs::EvictionClass::kPlainRecency;
          break;
      }
      trace_->Record(obs::Subsystem::kBuffer,
                     obs::TraceEventType::kEviction, victim.page,
                     static_cast<uint64_t>(cls), victim.dirty ? 1 : 0,
                     victim.priority);
    }
    frame_of_[victim.page] = kNoFrame;
    --resident_;
    if (policy_ == ReplacementPolicy::kLru) LruUnlink(f);
  }

  Frame& fr = frames_[f];
  fr.page = page;
  fr.dirty = false;
  fr.boosted = false;
  fr.pin_count = 0;
  fr.priority = 0;
  fr.heap_stamp = 0;
  if (page >= frame_of_.size()) {
    // Geometric growth: pages are allocated one at a time while the
    // database builds, so growing to exactly page+1 would resize per page.
    frame_of_.resize(std::max<size_t>(page + 1, frame_of_.size() * 2),
                     kNoFrame);
  }
  frame_of_[page] = f;
  ++resident_;
  // RecordAccess links the frame into the LRU chain (LruUnlink is a no-op
  // on a frame that is not yet linked). A reused victim frame keeps its
  // index entry, the old page's key: the least key, so a lower bound on
  // the new one unless RecordAccess moved it.
  RecordAccess(f);
  if (fresh && policy_ == ReplacementPolicy::kContextSensitive) {
    IndexInsert(f);
  }
  return result;
}

BufferPool::FrameId BufferPool::PickVictim() {
  switch (policy_) {
    case ReplacementPolicy::kLru: {
      for (FrameId f = lru_head_; f != kNoFrame; f = frames_[f].lru_next) {
        if (frames_[f].pin_count == 0) return f;
      }
      return kNoFrame;
    }
    case ReplacementPolicy::kContextSensitive: {
      // Re-key raised entries as they surface (one replace-top sift
      // each) until the top entry is exact: then no frame's key is
      // below it. Pinned frames are not in the index.
      while (!index_.empty()) {
        const FrameId top = index_[0].frame;
        if (index_[0].stamp == frames_[top].heap_stamp) return top;
        SiftDown(0, ExactEntry(top));
      }
      return kNoFrame;
    }
    case ReplacementPolicy::kRandom: {
      // All frames are occupied when PickVictim is called.
      for (int attempts = 0; attempts < 1024; ++attempts) {
        const FrameId f =
            static_cast<FrameId>(rng_.NextBelow(frames_.size()));
        if (frames_[f].pin_count == 0) return f;
      }
      // Degenerate: nearly everything pinned; fall back to a scan.
      for (FrameId f = 0; f < frames_.size(); ++f) {
        if (frames_[f].pin_count == 0) return f;
      }
      return kNoFrame;
    }
  }
  return kNoFrame;
}

bool BufferPool::Touch(store::PageId page) {
  const FrameId f = FrameOf(page);
  if (f == kNoFrame) return false;
  RecordAccess(f);
  return true;
}

void BufferPool::Boost(store::PageId page, double weight) {
  OODB_CHECK_GT(weight, 0.0);
  const FrameId f = FrameOf(page);
  if (f == kNoFrame) return;
  switch (policy_) {
    case ReplacementPolicy::kContextSensitive: {
      // Lift the frame above the current clock: it outlives plain-recency
      // pages proportionally to the relationship weight. A raise, so the
      // frame's index entry stays a lower bound untouched.
      Frame& fr = frames_[f];
      fr.priority = std::max(fr.priority, access_clock_) + weight;
      fr.heap_stamp = next_stamp_++;
      fr.boosted = true;
      break;
    }
    case ReplacementPolicy::kLru:
      RecordAccess(f);  // best LRU can do: treat as an access
      break;
    case ReplacementPolicy::kRandom:
      break;  // random replacement has no priority to adjust
  }
}

void BufferPool::MarkDirty(store::PageId page) {
  const FrameId f = FrameOf(page);
  OODB_CHECK_NE(f, kNoFrame);
  frames_[f].dirty = true;
}

void BufferPool::MarkClean(store::PageId page) {
  const FrameId f = FrameOf(page);
  if (f == kNoFrame) return;
  frames_[f].dirty = false;
}

bool BufferPool::IsDirty(store::PageId page) const {
  const FrameId f = FrameOf(page);
  return f != kNoFrame && frames_[f].dirty;
}

void BufferPool::Pin(store::PageId page) {
  const FrameId f = FrameOf(page);
  OODB_CHECK_NE(f, kNoFrame);
  if (frames_[f].pin_count++ == 0 &&
      policy_ == ReplacementPolicy::kContextSensitive) {
    IndexErase(f);
  }
}

void BufferPool::Unpin(store::PageId page) {
  const FrameId f = FrameOf(page);
  OODB_CHECK_NE(f, kNoFrame);
  OODB_CHECK_GT(frames_[f].pin_count, 0u);
  if (--frames_[f].pin_count == 0 &&
      policy_ == ReplacementPolicy::kContextSensitive) {
    IndexInsert(f);
  }
}

std::vector<store::PageId> BufferPool::ResidentPages() const {
  std::vector<store::PageId> pages;
  pages.reserve(resident_);
  for (store::PageId p = 0; p < frame_of_.size(); ++p) {
    if (frame_of_[p] != kNoFrame) pages.push_back(p);
  }
  return pages;
}

void BufferPool::ResetCounters() {
  hits_ = misses_ = evictions_ = dirty_evictions_ = 0;
}

}  // namespace oodb::buffer
