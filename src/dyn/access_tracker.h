#ifndef SEMCLUST_DYN_ACCESS_TRACKER_H_
#define SEMCLUST_DYN_ACCESS_TRACKER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "dyn/dyn_config.h"
#include "objmodel/object_id.h"

/// \file
/// DSTC-style access statistics (Bullat & Schneider): the tracker observes
/// the object reference sequence from the transaction pipeline's read path
/// and maintains bounded per-object heat and per-link co-access weights.
/// At the end of each observation period the raw statistics are
/// consolidated into clustering units — an anchor object plus the
/// co-accessed members worth placing on its page.
///
/// Determinism: both tables are open-addressing hash tables whose slot
/// order is never observed — every order Consolidate produces comes from
/// a sort with a total tie-break on ObjectId, decay and prune act entry by
/// entry, and the caps compare counts — and no randomness or wall-clock
/// input is used, so a given reference sequence always produces the same
/// units. Memory is bounded by max_tracked_objects / max_tracked_links (a
/// table holds at most its cap, in fewer than four slots per allowed
/// entry, 16 at least); arrivals while the tables are full are counted in
/// dropped_*() rather than evicting (evicting would make hot-set
/// membership depend on arrival order noise; decay at consolidation is
/// the eviction mechanism).

namespace oodb::dyn {

/// One consolidated clustering unit: `members` are worth co-locating with
/// `anchor`, ordered by descending co-access weight.
struct ClusterUnit {
  obj::ObjectId anchor = obj::kInvalidObject;
  double heat = 0.0;
  std::vector<obj::ObjectId> members;
};

class AccessTracker {
 public:
  explicit AccessTracker(const DynConfig& config) : config_(config) {}

  /// Marks the root of the transaction now executing; subsequent Observe
  /// calls record co-access links against it. Also advances the
  /// observation-period clock.
  void BeginTransaction(obj::ObjectId root);

  /// Records one logical object reference.
  void Observe(obj::ObjectId id);

  /// True once observation_period transactions have been observed since
  /// the last consolidation.
  bool ConsolidationDue() const {
    return txns_in_period_ >= config_.observation_period;
  }

  /// Builds clustering units from the current statistics (anchors are
  /// objects whose heat reached trigger_threshold, by descending heat),
  /// then decays and prunes both tables and resets the period clock.
  std::vector<ClusterUnit> Consolidate();

  size_t tracked_objects() const { return heat_.size(); }
  size_t tracked_links() const { return links_.size(); }
  uint64_t dropped_objects() const { return dropped_objects_; }
  uint64_t dropped_links() const { return dropped_links_; }
  uint64_t observed_refs() const { return observed_refs_; }

 private:
  /// Open-addressing map from a 64-bit key to a double (linear probing,
  /// Fibonacci hashing). A slot is occupied when its stamp equals the
  /// table's epoch, so Clear() is one increment and never touches the
  /// slots. The capacity is a power of two that doubles when the table
  /// would pass half full; nothing is ever erased singly (callers rebuild).
  class FlatTable {
   public:
    FlatTable() : slots_(kMinCapacity), shift_(64 - kMinLog2) {}

    size_t size() const { return size_; }

    /// The value stored under `key`, or nullptr.
    double* Find(uint64_t key) {
      Slot& s = slots_[Probe(key)];
      return s.stamp == epoch_ ? &s.value : nullptr;
    }
    bool Contains(uint64_t key) const {
      return slots_[Probe(key)].stamp == epoch_;
    }

    /// Stores `value` under `key`, which must be absent.
    void Insert(uint64_t key, double value);

    /// Empties the table, keeping its capacity.
    void Clear();

    /// Calls f(key, value&) once per entry, in slot order.
    template <typename F>
    void ForEach(F&& f) {
      for (Slot& s : slots_) {
        if (s.stamp == epoch_) f(s.key, s.value);
      }
    }

   private:
    static constexpr int kMinLog2 = 4;
    static constexpr size_t kMinCapacity = size_t{1} << kMinLog2;

    struct Slot {
      uint64_t key = 0;
      uint32_t stamp = 0;
      double value = 0;
    };

    /// Index of `key`'s slot, or of the free slot that ends its chain.
    size_t Probe(uint64_t key) const {
      const size_t mask = slots_.size() - 1;
      size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
      while (slots_[i].stamp == epoch_ && slots_[i].key != key) {
        i = (i + 1) & mask;
      }
      return i;
    }
    void Grow();

    std::vector<Slot> slots_;
    int shift_;
    size_t size_ = 0;
    uint32_t epoch_ = 1;
  };

  static uint64_t LinkKey(obj::ObjectId a, obj::ObjectId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  /// One side of a link as seen from an anchor candidate.
  struct Partner {
    obj::ObjectId anchor;
    obj::ObjectId id;
    double weight;
  };

  /// Multiplies every entry of `table` by heat_decay and rebuilds it from
  /// the entries still at or above 0.5.
  void DecayAndPrune(FlatTable& table);

  DynConfig config_;
  obj::ObjectId current_root_ = obj::kInvalidObject;
  FlatTable heat_;
  FlatTable links_;
  int txns_in_period_ = 0;
  uint64_t observed_refs_ = 0;
  uint64_t dropped_objects_ = 0;
  uint64_t dropped_links_ = 0;

  // Consolidate's working storage, kept so steady-state periods reuse it.
  std::vector<std::pair<double, obj::ObjectId>> anchors_;
  std::vector<Partner> partners_;
  FlatTable absorbed_;  ///< keys only; cleared per consolidation
  std::vector<std::pair<uint64_t, double>> survivors_;
};

}  // namespace oodb::dyn

#endif  // SEMCLUST_DYN_ACCESS_TRACKER_H_
