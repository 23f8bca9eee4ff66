#include "obs/placement_auditor.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/json_writer.h"

namespace oodb::obs {

namespace {

/// Cycle/size guard for the configuration walk (attachments are
/// unvalidated, as in OCT, so the configuration graph may contain cycles):
/// a walk stops once this many objects are marked.
constexpr size_t kMaxConfigurationWalk = 4096;

/// One object of the configuration walk's compact index: its page slot and
/// the start of its run in the CSR of its live kConfiguration/kDown
/// children (the run ends where the next object's starts).
struct WalkNode {
  uint32_t first_child;
  store::PageId page;
};

/// The largest strongly connected component of the children graph: one of
/// its members, its id in the marks FindLargestComponent leaves, and its
/// size (0 when no object has a child).
struct Component {
  obj::ObjectId member = 0;
  uint32_t id = 0;
  size_t size = 0;
};

/// Tarjan's algorithm in Pearce's iterative, space-saving form. `mark`,
/// all zero on entry, holds a visited object's DFS index, lowered to the
/// smallest index it reaches among unfinished objects, and once its
/// component is complete that component's id. Ids count down from
/// UINT32_MAX, so they stay above every index and a finished component
/// never lowers a mark: no on-stack flags and no lowlink array. Objects
/// without children are left unmarked: each is a component of its own. A
/// DFS starts at each unvisited object with children, in id order; of
/// equally large components the one completed last wins.
Component FindLargestComponent(const std::vector<WalkNode>& nodes,
                               const std::vector<obj::ObjectId>& children,
                               std::vector<uint32_t>& mark) {
  struct Frame {
    obj::ObjectId object;
    uint32_t next_child;
    uint32_t index;  ///< the object's own DFS index
  };
  std::vector<Frame> calls;
  std::vector<obj::ObjectId> pending;  // visited, component still open
  Component largest;
  uint32_t next_index = 1;
  uint32_t next_id = UINT32_MAX;
  const auto num_objects = static_cast<obj::ObjectId>(nodes.size() - 1);
  for (obj::ObjectId start = 0; start < num_objects; ++start) {
    if (mark[start] != 0 ||
        nodes[start].first_child == nodes[start + 1].first_child) {
      continue;
    }
    mark[start] = next_index;
    calls.push_back({start, nodes[start].first_child, next_index++});
    while (!calls.empty()) {
      Frame& frame = calls.back();
      const obj::ObjectId v = frame.object;
      const uint32_t end = nodes[v + 1].first_child;
      bool descended = false;
      while (frame.next_child < end) {
        const obj::ObjectId w = children[frame.next_child++];
        // A leaf is a component of its own and can lower no mark: skip it.
        if (nodes[w].first_child == nodes[w + 1].first_child) continue;
        if (mark[w] == 0) {
          mark[w] = next_index;
          calls.push_back({w, nodes[w].first_child, next_index++});
          descended = true;  // `frame` is stale from here on
          break;
        }
        mark[v] = std::min(mark[v], mark[w]);
      }
      if (descended) continue;
      const uint32_t index = frame.index;
      calls.pop_back();
      if (mark[v] == index) {
        // v heads a component: itself and the pending objects after it.
        size_t size = 1;
        while (!pending.empty() && mark[pending.back()] >= index) {
          mark[pending.back()] = next_id;
          pending.pop_back();
          ++size;
        }
        mark[v] = next_id;
        if (size >= largest.size) largest = {v, next_id, size};
        --next_id;
      } else {
        pending.push_back(v);
      }
      if (!calls.empty()) {
        uint32_t& parent = mark[calls.back().object];
        parent = std::min(parent, mark[v]);
      }
    }
  }
  return largest;
}

}  // namespace

void PlacementSample::MergeFrom(const PlacementSample& other) {
  live_objects += other.live_objects;
  placed_objects += other.placed_objects;
  pages += other.pages;
  empty_pages += other.empty_pages;
  for (size_t k = 0; k < by_kind.size(); ++k) {
    by_kind[k].edges += other.by_kind[k].edges;
    by_kind[k].colocated += other.by_kind[k].colocated;
  }
  edges += other.edges;
  colocated += other.colocated;
  for (size_t b = 0; b < occupancy_histogram.size(); ++b) {
    occupancy_histogram[b] += other.occupancy_histogram[b];
  }
  // Means re-weight by the populations they were taken over.
  const auto reweight = [](double& mine, uint64_t my_n, double theirs,
                           uint64_t their_n) {
    const uint64_t n = my_n + their_n;
    if (n == 0) return;
    mine = (mine * static_cast<double>(my_n) +
            theirs * static_cast<double>(their_n)) /
           static_cast<double>(n);
  };
  reweight(mean_occupancy, nonempty_pages, other.mean_occupancy,
           other.nonempty_pages);
  reweight(mean_type_fragmentation, types_audited,
           other.mean_type_fragmentation, other.types_audited);
  reweight(mean_pages_per_configuration, configurations,
           other.mean_pages_per_configuration, other.configurations);
  nonempty_pages += other.nonempty_pages;
  types_audited += other.types_audited;
  configurations += other.configurations;
}

std::string PlacementSample::ToJson() const {
  JsonObjectWriter kinds;
  for (size_t k = 0; k < by_kind.size(); ++k) {
    JsonObjectWriter kind;
    kind.Add("edges", by_kind[k].edges)
        .Add("colocated", by_kind[k].colocated);
    kinds.AddRaw(obj::RelKindName(static_cast<obj::RelKind>(k)), kind.str());
  }
  JsonArrayWriter occupancy;
  for (uint64_t b : occupancy_histogram) occupancy.Add(b);
  JsonObjectWriter out;
  out.Add("live_objects", live_objects)
      .Add("placed_objects", placed_objects)
      .Add("pages", pages)
      .Add("nonempty_pages", nonempty_pages)
      .Add("empty_pages", empty_pages)
      .Add("edges", edges)
      .Add("colocated", colocated)
      .Add("colocated_fraction", ColocatedFraction())
      .AddRaw("by_kind", kinds.str())
      .AddRaw("occupancy_histogram", occupancy.str())
      .Add("mean_occupancy", mean_occupancy)
      .Add("mean_type_fragmentation", mean_type_fragmentation)
      .Add("types_audited", types_audited)
      .Add("mean_pages_per_configuration", mean_pages_per_configuration)
      .Add("configurations", configurations);
  return out.str();
}

PlacementSample PlacementAuditor::Sample() const {
  PlacementSample s;
  const obj::ObjectGraph& graph = *graph_;
  const store::StorageManager& storage = *storage_;

  // ---- edges, per-type extents, configuration roots and index: one pass ----
  // Types and pages are dense ids, so per-type byte totals and
  // distinct-page counts live in flat arrays with a types-by-pages seen
  // matrix instead of a map of hash sets (the audit runs once per cell but
  // over every object; hashing dominated the old implementation).
  const size_t type_count = graph.lattice().size();
  const size_t page_count = storage.page_count();
  std::vector<uint64_t> type_bytes(type_count, 0);
  std::vector<uint64_t> type_pages(type_count, 0);
  std::vector<uint8_t> type_page_seen(type_count * page_count, 0);
  std::vector<obj::ObjectId> config_roots;

  // The configuration walk's compact index (WalkNode): this pass counts
  // each object's live children; the runs are filled once their total is
  // known. Unplaced objects share the extra page slot `unplaced`, which
  // the walk never counts.
  const auto unplaced = static_cast<store::PageId>(page_count);
  const auto num_objects = static_cast<obj::ObjectId>(graph.size());
  std::vector<WalkNode> nodes(num_objects + size_t{1});
  uint32_t child_count = 0;
  uint32_t max_children = 0;

  for (obj::ObjectId id = 0; id < num_objects; ++id) {
    const uint32_t first_child = child_count;
    nodes[id] = {first_child, unplaced};
    if (!graph.IsLive(id)) continue;
    ++s.live_objects;
    const obj::DesignObject& o = graph.object(id);
    const store::PageId my_page = storage.PageOf(id);
    if (my_page != store::kInvalidPage) {
      nodes[id].page = my_page;
      ++s.placed_objects;
      type_bytes[o.type] += storage.SizeOf(id);
      uint8_t& seen = type_page_seen[o.type * page_count + my_page];
      if (seen == 0) {
        seen = 1;
        ++type_pages[o.type];
      }
    }
    bool has_down_config = false;
    bool has_up_config = false;
    for (const obj::Edge e : graph.edges(id)) {
      if (e.kind == obj::RelKind::kConfiguration) {
        if (e.dir == obj::Direction::kDown) {
          has_down_config = true;
          child_count += graph.IsLive(e.target);
        } else {
          has_up_config = true;
        }
      }
      // Count each edge once, from its kDown side.
      if (e.dir != obj::Direction::kDown) continue;
      if (my_page == store::kInvalidPage || !graph.IsLive(e.target)) continue;
      const store::PageId target_page = storage.PageOf(e.target);
      if (target_page == store::kInvalidPage) continue;
      EdgeLocality& kind = s.by_kind[static_cast<size_t>(e.kind)];
      ++kind.edges;
      ++s.edges;
      if (target_page == my_page) {
        ++kind.colocated;
        ++s.colocated;
      }
    }
    max_children = std::max(max_children, child_count - first_child);
    if (has_down_config && !has_up_config) config_roots.push_back(id);
  }
  nodes[num_objects].first_child = child_count;
  // The types-by-pages matrix is done with: release it before the
  // configuration walks allocate theirs.
  std::vector<uint8_t>().swap(type_page_seen);
  // Each run in ForEachNeighbor order, which is the walk's push order.
  std::vector<obj::ObjectId> children(child_count);
  for (obj::ObjectId id = 0; id < num_objects; ++id) {
    uint32_t next = nodes[id].first_child;
    if (next == nodes[id + 1].first_child) continue;
    graph.ForEachNeighbor(id, obj::RelKind::kConfiguration,
                          obj::Direction::kDown, [&](obj::ObjectId c) {
                            if (graph.IsLive(c)) children[next++] = c;
                          });
  }

  // ---- page occupancy ----
  s.pages = storage.page_count();
  double fill_sum = 0;
  for (store::PageId p = 0; p < storage.page_count(); ++p) {
    const store::Page& page = storage.page(p);
    if (page.object_count() == 0) {
      // Churn deletes can drain a page completely; it stays allocated but
      // must not enter the occupancy mean (a zero-page mean would divide
      // by zero when churn empties the whole store).
      ++s.empty_pages;
      continue;
    }
    ++s.nonempty_pages;
    const double fill = static_cast<double>(page.used_bytes()) /
                        static_cast<double>(page.capacity_bytes());
    fill_sum += fill;
    size_t bucket = static_cast<size_t>(fill * kOccupancyBuckets);
    if (bucket >= kOccupancyBuckets) bucket = kOccupancyBuckets - 1;
    ++s.occupancy_histogram[bucket];
  }
  if (s.nonempty_pages > 0) {
    s.mean_occupancy = fill_sum / static_cast<double>(s.nonempty_pages);
  }

  // ---- per-type fragmentation ----
  // Ascending TypeId, matching the former std::map iteration order, so the
  // floating-point sum is bit-identical.
  const uint64_t capacity = storage.page_size_bytes();
  double frag_sum = 0;
  for (size_t type = 0; type < type_count; ++type) {
    if (type_bytes[type] == 0) continue;  // no placed instances
    const uint64_t min_pages =
        std::max<uint64_t>(1, (type_bytes[type] + capacity - 1) / capacity);
    frag_sum += static_cast<double>(type_pages[type]) /
                static_cast<double>(min_pages);
    ++s.types_audited;
  }
  if (s.types_audited > 0) {
    s.mean_type_fragmentation =
        frag_sum / static_cast<double>(s.types_audited);
  }

  // ---- pages per configuration ----
  // A configuration spans the distinct pages, the unplaced slot aside, of
  // the objects its root's walk pops. The walk marks on push and stops
  // once kMaxConfigurationWalk objects are marked, so one that stays under
  // the cap pops exactly the objects reachable from the root, and its page
  // count depends on that set alone, not on the visit order. Roots of a
  // cyclic graph (OCB) share most of that set, so it is walked once:
  //   S  the largest strongly connected component of the children graph;
  //   H  everything reachable from S (S included): its size and its
  //      distinct pages are counted once per sample.
  // Every object of S reaches all of H. A root's local walk therefore
  // stops at S objects, noting that it met one, and expands the rest (an
  // object of H outside S proves nothing: it need not lead back to S).
  // If it met S, its reach is H plus the local objects outside H, and its
  // pages are H's plus the local pages outside them; otherwise its reach
  // is the local walk. Only a reach of kMaxConfigurationWalk or more
  // makes the count order-dependent: then the root is walked again with
  // the capped walk below, and the local walk stops as soon as the reach
  // is known to be that large, so such a root pays for at most two capped
  // walks.
  constexpr uint8_t kInS = 1;
  constexpr uint8_t kInH = 2;
  std::vector<uint32_t> object_mark(num_objects, 0);
  std::vector<uint8_t> h_flags(num_objects, 0);  // kInS | kInH
  std::vector<uint8_t> page_in_h(page_count + 1, 0);
  page_in_h[unplaced] = 1;  // never counted, in H or outside it
  size_t h_objects = 0;
  size_t h_pages = 0;
  {
    const Component s_component =
        FindLargestComponent(nodes, children, object_mark);
    std::vector<obj::ObjectId> h_stack;
    if (s_component.size > 0) {
      h_flags[s_component.member] = kInS | kInH;
      h_stack.push_back(s_component.member);
    }
    while (!h_stack.empty()) {
      const obj::ObjectId o = h_stack.back();
      h_stack.pop_back();
      ++h_objects;
      const store::PageId p = nodes[o].page;
      h_pages += page_in_h[p] == 0;
      page_in_h[p] = 1;
      const uint32_t end = nodes[o + 1].first_child;
      for (uint32_t i = nodes[o].first_child; i < end; ++i) {
        const obj::ObjectId c = children[i];
        if (h_flags[c] != 0) continue;
        h_flags[c] = object_mark[c] == s_component.id ? kInS | kInH : kInH;
        h_stack.push_back(c);
      }
    }
    std::fill(object_mark.begin(), object_mark.end(), 0);
  }

  // Stamped marks (equal to the current walk number means "seen by this
  // walk") need no clearing between walks. Neither walk holds more than
  // the cap plus one object's children, so the stack is sized once.
  double config_pages_sum = 0;
  std::vector<uint32_t> page_mark(page_count + 1, 0);
  std::vector<obj::ObjectId> stack(kMaxConfigurationWalk + max_children);
  uint32_t walk = 0;

  // The capped walk: depth-first from `root`, stopping once
  // kMaxConfigurationWalk objects are marked (the last pop may push past
  // the cap). Marked-but-unpopped objects add no pages, so the count
  // depends on the LIFO order, which is why the index keeps
  // ForEachNeighbor's order. A push always writes the slot above the top
  // and only advances past it when the child is fresh.
  const auto capped_walk = [&](obj::ObjectId root) {
    ++walk;
    object_mark[root] = walk;
    stack[0] = root;
    size_t top = 1;
    size_t visited = 1;
    size_t distinct_pages = 0;
    while (top > 0 && visited < kMaxConfigurationWalk) {
      const obj::ObjectId o = stack[--top];
      const store::PageId p = nodes[o].page;
      distinct_pages += page_mark[p] != walk;
      page_mark[p] = walk;
      const uint32_t end = nodes[o + 1].first_child;
      for (uint32_t i = nodes[o].first_child; i < end; ++i) {
        const obj::ObjectId c = children[i];
        // The last fresh child is the next pop: start loading its run.
        __builtin_prefetch(children.data() + nodes[c].first_child);
        const bool fresh = object_mark[c] != walk;
        object_mark[c] = walk;
        stack[top] = c;
        top += fresh;
        visited += fresh;
      }
    }
    return distinct_pages - (page_mark[unplaced] == walk);
  };

  for (const obj::ObjectId root : config_roots) {
    ++walk;
    object_mark[root] = walk;
    bool met_s = (h_flags[root] & kInS) != 0;
    size_t marked = 1;
    size_t marked_outside_h = (h_flags[root] & kInH) == 0;
    size_t pages = 0;             // distinct pages popped
    size_t pages_outside_h = 0;   // ... of them not among H's pages
    size_t top = 0;
    if (!met_s) stack[top++] = root;
    const auto reach = [&] {
      return met_s ? h_objects + marked_outside_h : marked;
    };
    while (top > 0 && reach() < kMaxConfigurationWalk) {
      const obj::ObjectId o = stack[--top];
      const store::PageId p = nodes[o].page;
      const bool fresh_page = page_mark[p] != walk;
      page_mark[p] = walk;
      pages += fresh_page;
      pages_outside_h += fresh_page && page_in_h[p] == 0;
      const uint32_t end = nodes[o + 1].first_child;
      for (uint32_t i = nodes[o].first_child; i < end; ++i) {
        const obj::ObjectId c = children[i];
        if (object_mark[c] == walk) continue;
        object_mark[c] = walk;
        ++marked;
        marked_outside_h += (h_flags[c] & kInH) == 0;
        if ((h_flags[c] & kInS) != 0) {
          met_s = true;  // H is counted as a whole: do not expand
          continue;
        }
        stack[top++] = c;
      }
    }
    size_t distinct_pages;
    if (reach() >= kMaxConfigurationWalk) {
      distinct_pages = capped_walk(root);
    } else if (met_s) {
      distinct_pages = h_pages + pages_outside_h;
    } else {
      distinct_pages = pages - (page_mark[unplaced] == walk);
    }
    config_pages_sum += static_cast<double>(distinct_pages);
    ++s.configurations;
  }
  if (s.configurations > 0) {
    s.mean_pages_per_configuration =
        config_pages_sum / static_cast<double>(s.configurations);
  }
  return s;
}

}  // namespace oodb::obs
