#ifndef SEMCLUST_CORE_SHARDING_H_
#define SEMCLUST_CORE_SHARDING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "cluster/affinity.h"
#include "cluster/cluster_manager.h"
#include "io/io_subsystem.h"
#include "objmodel/object_graph.h"
#include "objmodel/object_id.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "storage/storage_manager.h"
#include "txlog/log_manager.h"

/// \file
/// The shard-placement layer (DESIGN.md §15): one simulated system is N
/// shards on the shared virtual clock, each with its own buffer pool,
/// disks, log manager, cluster manager, CPU, and NIC. Objects are
/// partitioned across shards by a declarative placement policy —
/// `Hash_Shard` spreads object ids uniformly, `Structure_Shard` keeps
/// composite-object subgraphs and their inheritance neighbourhoods on one
/// shard using the affinity machinery the clustering policies already
/// use — the distributed analogue of the paper's clustering insight.
///
/// A transaction executes on the *home* shard of its target object
/// (session CPU, log records, and commit forces all land there);
/// references that resolve to another shard pay the cross-shard cost
/// model: a request hop on the home NIC, the buffer fix / miss I/O on the
/// owner shard, and a response hop on the owner NIC, metered as the span
/// phase `remote_fetch_wait`.
///
/// Every shard, shard 0 included, is one `Shard`: the same component set
/// built by the same constructor. Hard invariant: with `shards = 1` the
/// single shard allocates no NIC, the layer registers no metrics, draws no
/// random numbers, and awaits nothing, so every single-server run is
/// bit-identical to the pre-sharding model (the fig5.1 rtol-0 gate
/// enforces this).

namespace oodb::core {

class ServerContext;
struct ModelConfig;

/// How objects are partitioned across shards.
enum class ShardPlacement : uint8_t {
  /// splitmix64(object id) mod N: uniform, structure-oblivious — the
  /// baseline every distributed store can implement.
  kHashShard = 0,
  /// Composite-object subgraphs (configuration, version-history, and
  /// instance-inheritance neighbourhoods; correspondence edges cross
  /// representation types and are excluded) grouped to a bounded size and
  /// assigned whole to the least-loaded shard. Group growth is ordered by
  /// the AffinityModel's edge weights, so the hottest structural
  /// neighbours co-locate first when the group cap binds.
  kStructureShard = 1,
};
inline constexpr int kNumShardPlacements = 2;

/// Every placement, in enum order (for registries and sweeps).
inline constexpr ShardPlacement kAllShardPlacements[] = {
    ShardPlacement::kHashShard, ShardPlacement::kStructureShard};

/// Canonical display name: "Hash_Shard" / "Structure_Shard".
const char* ShardPlacementName(ShardPlacement p);

/// One shard's component set (paper §4, Figure 4.1/4.2): storage, buffer
/// pool, cluster manager, disks, log and CPU, plus a NIC when the model
/// runs sharded. The ServerContext builds shard 0 before the database
/// build (the build places every object there); the ShardedContext builds
/// shards 1..N-1 through the same constructor and owns all N.
struct Shard {
  /// Wires shard `shard_index` of `config.shards`. Every shard's pool
  /// draws from its own stream,
  /// `(seed ^ 0xB0FFEB0FF) + shard_index * 0x9E3779B97F4A7C15`:
  /// the golden-ratio stride keeps shard seeds distinct for every base
  /// seed. The NIC exists only when `config.shards > 1`.
  Shard(int shard_index, const ModelConfig& config, sim::Simulator& sim,
        obj::ObjectGraph* graph, cluster::AffinityModel* affinity);

  int index = 0;
  std::unique_ptr<store::StorageManager> storage;
  std::unique_ptr<buffer::BufferPool> buffer;
  std::unique_ptr<cluster::ClusterManager> cluster;
  std::unique_ptr<io::IoSubsystem> io;
  std::unique_ptr<txlog::LogManager> log;
  std::unique_ptr<sim::Resource> cpu;
  /// Null when the model runs unsharded (N = 1): no hop is ever charged.
  std::unique_ptr<sim::Resource> nic;
};

/// Owns the N-shard generalisation of one ServerContext: every shard's
/// component set, the object-to-shard owner map, and the cross-shard
/// reference counters. Constructed unconditionally (N >= 1) by the
/// ServerContext, after the database build and optional static
/// reorganisation, taking ownership of the build-time `shard0`; with
/// N > 1 it builds shards 1..N-1, computes the placement and migrates
/// every object owned by shards 1..N-1 out of shard 0's storage. Trace
/// attachment happens here, once for every shard, after partitioning.
class ShardedContext {
 public:
  ShardedContext(ServerContext& ctx, Shard shard0);
  ~ShardedContext();

  ShardedContext(const ShardedContext&) = delete;
  ShardedContext& operator=(const ShardedContext&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool sharded() const { return shards_.size() > 1; }

  const Shard& shard(int s) const { return shards_[static_cast<size_t>(s)]; }

  /// Owning shard of `id` (0 when unsharded, or for ids the map has never
  /// seen — kInvalidObject targets route to shard 0 harmlessly).
  int OwnerOf(obj::ObjectId id) const {
    if (shards_.size() == 1) return 0;
    return id < owner_.size() ? owner_[id] : 0;
  }

  const Shard& HomeOf(obj::ObjectId id) const {
    return shards_[static_cast<size_t>(OwnerOf(id))];
  }

  /// Routes a newly created object: hash placement hashes the new id,
  /// structure placement co-locates it with `parent` (the object it was
  /// created attached to). Returns the owning shard. Deterministic and
  /// RNG-free; shard 0, untouched, when unsharded.
  const Shard& AssignNew(obj::ObjectId id, obj::ObjectId parent);

  /// Network hop latency for one direction of a cross-shard reference.
  double hop_latency_s() const { return hop_latency_s_; }

  /// Cross-shard reference bookkeeping (plain counts — mirrored into the
  /// metrics registry by the MeasurementController only when sharded, so
  /// an unsharded snapshot layout is untouched).
  struct Counters {
    uint64_t local_fetches = 0;   ///< routed page fetches on the home shard
    uint64_t remote_fetches = 0;  ///< routed page fetches paying the hops
    uint64_t remote_writes = 0;   ///< object writes owned by a remote shard
    uint64_t hops = 0;            ///< NIC traversals (2 per remote fetch)
  };
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  void ResetCounters() { counters_ = Counters{}; }

  /// Bytes of live objects assigned per shard at placement time
  /// (diagnostics and load-balance tests; empty when unsharded).
  const std::vector<uint64_t>& assigned_bytes() const {
    return assigned_bytes_;
  }

 private:
  void ComputeOwners();
  /// Moves every live object owned by shards 1..N-1 from shard 0's
  /// (build-time) storage into its owner's storage through the owner's
  /// cluster manager (so the clustering policy under test shapes each
  /// shard's layout).
  void MigrateToOwners();
  int LeastLoadedShard() const;

  ServerContext& ctx_;
  ShardPlacement placement_ = ShardPlacement::kHashShard;
  double hop_latency_s_ = 0;
  int group_cap_ = 1;

  std::vector<Shard> shards_;
  std::vector<uint8_t> owner_;  // per ObjectId; shards are capped at 64
  std::vector<uint64_t> assigned_bytes_;
  Counters counters_;
};

}  // namespace oodb::core

#endif  // SEMCLUST_CORE_SHARDING_H_
