#ifndef SEMCLUST_UTIL_RECYCLING_TABLE_H_
#define SEMCLUST_UTIL_RECYCLING_TABLE_H_

#include <unordered_map>
#include <utility>
#include <vector>

/// \file
/// A hash table for short-lived per-key state (a lock's holders, a
/// transaction's pages) whose steady state allocates nothing.

namespace oodb {

/// A hash table whose emptied entries are not erased but extracted into a
/// spare list, then re-keyed and re-inserted on the next miss. An entry
/// keeps what its containers allocated (a deque's map and chunk, a
/// vector's capacity), so steady-state use allocates nothing. Callers
/// must not iterate the table: node reuse would then change the order.
template <typename K, typename V>
struct RecyclingTable {
  using Map = std::unordered_map<K, V>;
  Map map;
  std::vector<typename Map::node_type> spare;

  /// The entry for `key`, created empty (from a spare when one is left)
  /// if absent.
  V& operator[](K key) {
    auto it = map.find(key);
    if (it != map.end()) return it->second;
    if (spare.empty()) return map.try_emplace(key).first->second;
    typename Map::node_type node = std::move(spare.back());
    spare.pop_back();
    node.key() = key;
    return map.insert(std::move(node)).position->second;
  }

  /// Moves the entry at `it`, which the caller has emptied, to the spare
  /// list.
  void Retire(typename Map::iterator it) {
    spare.push_back(map.extract(it));
  }
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_RECYCLING_TABLE_H_
