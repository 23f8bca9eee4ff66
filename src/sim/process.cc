#include "sim/process.h"

#include <new>

namespace oodb::sim {
namespace {

constexpr std::size_t kGranule = 64;
constexpr std::size_t kClasses = 16;  // pooled frames: up to 1 KiB

/// Size class of a frame, or kClasses when it is too large to pool.
std::size_t ClassOf(std::size_t size) {
  return size == 0 ? 0 : (size - 1) / kGranule;
}

/// The block size the global heap is asked for: the class size for a
/// pooled frame, so a block fits every frame of its class.
std::size_t BlockSize(std::size_t size) {
  const std::size_t c = ClassOf(size);
  return c < kClasses ? (c + 1) * kGranule : size;
}

struct FreeBlock {
  FreeBlock* next;
};

struct FreeLists {
  FreeBlock* head[kClasses] = {};
  uint64_t spare[kClasses] = {};
  int64_t live[kClasses] = {};  ///< allocated here minus freed here
  int64_t peak[kClasses] = {};
  uint64_t fresh = 0;
  uint64_t reused = 0;

  ~FreeLists();
};

// Trivially destructible, so it stays readable after `lists` is gone.
thread_local bool lists_gone = false;
thread_local FreeLists lists;

FreeLists::~FreeLists() {
  for (std::size_t c = 0; c < kClasses; ++c) {
    while (FreeBlock* b = head[c]) {
      head[c] = b->next;
      ::operator delete(b, (c + 1) * kGranule);
    }
  }
  lists_gone = true;
}

}  // namespace

namespace internal {

void* AllocateFrame(std::size_t size) {
  const std::size_t c = ClassOf(size);
  if (c >= kClasses || lists_gone) return ::operator new(BlockSize(size));
  FreeLists& l = lists;
  if (++l.live[c] > l.peak[c]) l.peak[c] = l.live[c];
  if (FreeBlock* b = l.head[c]) {
    l.head[c] = b->next;
    --l.spare[c];
    ++l.reused;
    return b;
  }
  ++l.fresh;
  return ::operator new((c + 1) * kGranule);
}

void FreeFrame(void* frame, std::size_t size) noexcept {
  const std::size_t c = ClassOf(size);
  if (c >= kClasses || lists_gone) {
    ::operator delete(frame, BlockSize(size));
    return;
  }
  FreeLists& l = lists;
  --l.live[c];
  // A frame allocated on another thread counts against this thread's
  // peak too: the list never outgrows what this thread had live.
  if (l.spare[c] >= static_cast<uint64_t>(l.peak[c])) {
    ::operator delete(frame, (c + 1) * kGranule);
    return;
  }
  auto* b = static_cast<FreeBlock*>(frame);
  b->next = l.head[c];
  l.head[c] = b;
  ++l.spare[c];
}

}  // namespace internal

FramePoolStats ThisThreadFramePoolStats() {
  if (lists_gone) return {};
  const FreeLists& l = lists;
  FramePoolStats s;
  s.fresh = l.fresh;
  s.reused = l.reused;
  for (std::size_t c = 0; c < kClasses; ++c) s.spare += l.spare[c];
  return s;
}

}  // namespace oodb::sim
