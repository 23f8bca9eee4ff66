#include "core/sharding.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/model_config.h"
#include "core/server_context.h"
#include "util/check.h"
#include "util/random.h"

namespace oodb::core {

namespace {

/// Stateless hash of an object id onto [0, shards): the Hash_Shard
/// placement and the routing function for hash-placed inserts. SplitMix64
/// is a full-avalanche mixer, so consecutive ids spread uniformly.
int HashOwner(obj::ObjectId id, int shards) {
  return static_cast<int>(SplitMix64(id).Next() %
                          static_cast<uint64_t>(shards));
}

}  // namespace

const char* ShardPlacementName(ShardPlacement p) {
  switch (p) {
    case ShardPlacement::kHashShard:
      return "Hash_Shard";
    case ShardPlacement::kStructureShard:
      return "Structure_Shard";
  }
  return "unknown";
}

Shard::Shard(int shard_index, const ModelConfig& config,
             sim::Simulator& sim, obj::ObjectGraph* graph,
             cluster::AffinityModel* affinity)
    : index(shard_index) {
  const std::string prefix = "shard" + std::to_string(index) + ".";
  storage = std::make_unique<store::StorageManager>(
      config.page_size_bytes, config.append_fill_fraction);
  buffer = std::make_unique<buffer::BufferPool>(
      config.buffer_pages, config.replacement,
      (config.seed ^ 0xB0FFEB0FF) +
          static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ull);
  cluster = std::make_unique<cluster::ClusterManager>(
      graph, storage.get(), affinity, buffer.get(), config.clustering);
  io = std::make_unique<io::IoSubsystem>(sim, config.num_disks,
                                         config.page_size_bytes, config.disk);
  log = std::make_unique<txlog::LogManager>(config.log_buffer_bytes,
                                            config.page_size_bytes);
  cpu = std::make_unique<sim::Resource>(sim, prefix + "cpu", 1);
  if (config.shards > 1) {
    nic = std::make_unique<sim::Resource>(sim, prefix + "nic", 1);
  }
}

ShardedContext::ShardedContext(ServerContext& ctx, Shard shard0)
    : ctx_(ctx),
      placement_(ctx.config.shard_placement),
      hop_latency_s_(ctx.config.shard_hop_latency_s),
      group_cap_(ctx.config.shard_group_cap) {
  const ModelConfig& config = ctx.config;
  const int n = config.shards;
  OODB_CHECK_GE(n, 1);
  OODB_CHECK_EQ(shard0.index, 0);

  shards_.reserve(static_cast<size_t>(n));
  shards_.push_back(std::move(shard0));
  for (int s = 1; s < n; ++s) {
    shards_.emplace_back(s, config, ctx.sim, ctx.graph.get(),
                         ctx.affinity.get());
  }
  if (n > 1) {
    assigned_bytes_.assign(static_cast<size_t>(n), 0);
    ComputeOwners();
    MigrateToOwners();
  }

  // Same after-the-build attachment rule as the rest of the ServerContext's
  // observability: migration is part of database construction, not the
  // run, and nothing touches shard 0's traced components in between.
  for (Shard& shard : shards_) {
    shard.buffer->set_trace(&ctx.trace);
    shard.io->set_trace(&ctx.trace);
    shard.log->set_trace(&ctx.trace);
    shard.cluster->set_trace(&ctx.trace);
  }
}

ShardedContext::~ShardedContext() = default;

int ShardedContext::LeastLoadedShard() const {
  int best = 0;
  for (int s = 1; s < num_shards(); ++s) {
    if (assigned_bytes_[static_cast<size_t>(s)] <
        assigned_bytes_[static_cast<size_t>(best)]) {
      best = s;
    }
  }
  return best;
}

void ShardedContext::ComputeOwners() {
  const obj::ObjectGraph& graph = *ctx_.graph;
  const int n = num_shards();
  owner_.assign(graph.size(), 0);

  if (placement_ == ShardPlacement::kHashShard) {
    for (obj::ObjectId id = 0; id < owner_.size(); ++id) {
      if (!graph.IsLive(id)) continue;
      const int s = HashOwner(id, n);
      owner_[id] = static_cast<uint8_t>(s);
      assigned_bytes_[static_cast<size_t>(s)] +=
          graph.object(id).size_bytes;
    }
    return;
  }

  // Structure_Shard: grow bounded groups over the structural edges —
  // configuration, version-history, and instance-inheritance in both
  // directions; correspondence crosses representation types (schematic vs
  // layout) and is the one relationship the paper's traversals rarely
  // follow, so it is the natural cut edge. Expansion is breadth-first
  // from each unvisited object in id order, neighbours taken heaviest
  // affinity first, so when the group cap binds the closest structural
  // relatives made it in. Each finished group lands whole on the
  // least-loaded shard. Deterministic and RNG-free throughout.
  std::vector<uint8_t> visited(graph.size(), 0);
  std::vector<obj::ObjectId> group;
  struct Neighbour {
    double weight;
    obj::ObjectId id;
  };
  std::vector<Neighbour> frontier;
  for (obj::ObjectId seed = 0; seed < graph.size(); ++seed) {
    if (!graph.IsLive(seed) || visited[seed]) continue;
    group.clear();
    group.push_back(seed);
    visited[seed] = 1;
    for (size_t at = 0;
         at < group.size() &&
         group.size() < static_cast<size_t>(group_cap_);
         ++at) {
      const obj::ObjectId from = group[at];
      frontier.clear();
      for (const obj::Edge e : graph.edges(from)) {
        if (e.kind == obj::RelKind::kCorrespondence) continue;
        if (!graph.IsLive(e.target) || visited[e.target]) continue;
        frontier.push_back(
            Neighbour{ctx_.affinity->EdgeWeight(graph, from, e), e.target});
      }
      std::sort(frontier.begin(), frontier.end(),
                [](const Neighbour& a, const Neighbour& b) {
                  if (a.weight != b.weight) return a.weight > b.weight;
                  return a.id < b.id;
                });
      for (const Neighbour& nb : frontier) {
        if (group.size() >= static_cast<size_t>(group_cap_)) break;
        if (visited[nb.id]) continue;  // reachable twice within `frontier`
        visited[nb.id] = 1;
        group.push_back(nb.id);
      }
    }
    const int s = LeastLoadedShard();
    for (const obj::ObjectId id : group) {
      owner_[id] = static_cast<uint8_t>(s);
      assigned_bytes_[static_cast<size_t>(s)] +=
          graph.object(id).size_bytes;
    }
  }
}

void ShardedContext::MigrateToOwners() {
  // Objects owned by shards 1..N-1 leave the build-time storage and are
  // re-placed by their owner's cluster manager in id order, so the
  // clustering policy under test shapes each shard's page layout just as
  // it shaped the single server's. Build-phase placement carries no
  // simulated cost (the DbBuilder's placements don't either); the reports
  // are dropped. Shard 0 keeps its build-time pages untouched.
  const obj::ObjectGraph& graph = *ctx_.graph;
  store::StorageManager& build_storage = *shards_[0].storage;
  for (obj::ObjectId id = 0; id < owner_.size(); ++id) {
    if (!graph.IsLive(id) || owner_[id] == 0) continue;
    if (!build_storage.IsPlaced(id)) continue;
    OODB_CHECK(build_storage.Erase(id).ok());
    const cluster::PlacementReport report =
        shards_[owner_[id]].cluster->PlaceNew(id);
    OODB_CHECK(report.page != store::kInvalidPage);
  }
  for (int s = 1; s < num_shards(); ++s) {
    shards_[static_cast<size_t>(s)].cluster->ResetStats();
  }
}

const Shard& ShardedContext::AssignNew(obj::ObjectId id,
                                       obj::ObjectId parent) {
  if (!sharded()) return shards_[0];
  const int s = placement_ == ShardPlacement::kHashShard
                    ? HashOwner(id, num_shards())
                    : OwnerOf(parent);
  if (id >= owner_.size()) owner_.resize(id + 1, 0);
  owner_[id] = static_cast<uint8_t>(s);
  if (ctx_.graph->IsLive(id)) {
    assigned_bytes_[static_cast<size_t>(s)] +=
        ctx_.graph->object(id).size_bytes;
  }
  return shards_[static_cast<size_t>(s)];
}

}  // namespace oodb::core
