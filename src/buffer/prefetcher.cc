#include "buffer/prefetcher.h"

#include <algorithm>

namespace oodb::buffer {

obj::RelKind DominantKind(const obj::ObjectGraph& graph,
                          obj::ObjectId object) {
  const auto profile =
      graph.lattice().EffectiveTraversal(graph.object(object).type);
  size_t best = 0;
  for (size_t k = 1; k < profile.size(); ++k) {
    if (profile[k] > profile[best]) best = k;
  }
  return static_cast<obj::RelKind>(best);
}

const PrefetchGroup& PrefetchGrouper::Compute(
    const obj::ObjectGraph& graph, const store::StorageManager& storage,
    obj::ObjectId object, AccessHint hint, int config_depth,
    size_t max_pages, obs::TraceSink* trace) {
  PrefetchGroup& group = group_;
  group.pages.clear();
  group.kind = hint.active ? hint.kind : DominantKind(graph, object);

  const store::PageId own_page = storage.PageOf(object);
  auto add_object = [&](obj::ObjectId neighbor) {
    if (group.pages.size() >= max_pages) return;
    const store::PageId p = storage.PageOf(neighbor);
    if (p == store::kInvalidPage || p == own_page) return;
    if (std::find(group.pages.begin(), group.pages.end(), p) ==
        group.pages.end()) {
      group.pages.push_back(p);
    }
  };

  switch (group.kind) {
    case obj::RelKind::kConfiguration: {
      // The subcomponents a configuration walk is about to touch:
      // breadth-first down the composition hierarchy, a bounded number of
      // levels and pages. One buffer holds every level: [begin, end) is
      // the current frontier, and the last level's children are never
      // expanded, so they are not collected.
      std::vector<obj::ObjectId>& walk = walk_;
      walk.assign(1, object);
      size_t begin = 0;
      for (int level = 0;
           level < config_depth && begin < walk.size() &&
           group.pages.size() < max_pages;
           ++level) {
        const size_t end = walk.size();
        const bool expand = level + 1 < config_depth;
        for (size_t i = begin; i < end; ++i) {
          graph.ForEachNeighbor(walk[i], obj::RelKind::kConfiguration,
                                obj::Direction::kDown,
                                [&](obj::ObjectId c) {
                                  add_object(c);
                                  if (expand) walk.push_back(c);
                                });
        }
        begin = end;
      }
      break;
    }
    case obj::RelKind::kVersionHistory:
      // Immediate ancestor and immediate descendants.
      graph.ForEachNeighbor(object, obj::RelKind::kVersionHistory,
                            obj::Direction::kUp, add_object);
      graph.ForEachNeighbor(object, obj::RelKind::kVersionHistory,
                            obj::Direction::kDown, add_object);
      break;
    case obj::RelKind::kCorrespondence:
      // All objects corresponding to the one being accessed.
      graph.ForEachNeighbor(object, obj::RelKind::kCorrespondence,
                            obj::Direction::kDown, add_object);
      break;
    case obj::RelKind::kInstanceInheritance:
      // The sources a by-reference inherited attribute dereferences into.
      graph.ForEachNeighbor(object, obj::RelKind::kInstanceInheritance,
                            obj::Direction::kUp, add_object);
      break;
  }
  if (trace != nullptr && !group.pages.empty()) {
    trace->Record(obs::Subsystem::kBuffer,
                  obs::TraceEventType::kPrefetchGroup,
                  static_cast<uint64_t>(group.kind), group.pages.size());
  }
  return group;
}

}  // namespace oodb::buffer
