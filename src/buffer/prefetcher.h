#ifndef SEMCLUST_BUFFER_PREFETCHER_H_
#define SEMCLUST_BUFFER_PREFETCHER_H_

#include <vector>

#include "buffer/policy.h"
#include "objmodel/object_graph.h"
#include "obs/trace_sink.h"
#include "storage/storage_manager.h"

/// \file
/// Semantic prefetching (paper §2.2): touching an object identifies the
/// pages of its immediate structural neighbours as a prefetch group. With
/// an active user hint the group follows the hinted relationship; without
/// one it follows the dominant kind of the object's type-level traversal
/// profile (type knowledge inherited by the instance).

namespace oodb::buffer {

/// Pages related to an accessed object, split by residency so the caller
/// can apply the prefetch policy: boost the resident ones, and under
/// Prefetch_within_DB asynchronously read the missing ones.
struct PrefetchGroup {
  /// The relationship kind that defined the group.
  obj::RelKind kind = obj::RelKind::kConfiguration;
  /// Distinct pages of neighbours, excluding the accessed object's page.
  std::vector<store::PageId> pages;
};

/// Computes prefetch groups into buffers it keeps: a caller that computes
/// one group per access (TxnPipeline::PostAccess) allocates only while the
/// buffers grow.
///
/// Compute returns the group for an access to `object`, valid until the
/// next call.
///
/// The neighbour scope per kind follows the paper: configuration brings in
/// the subcomponents an application walking the configuration hierarchy is
/// about to touch (descending up to `config_depth` levels, bounded by
/// `max_pages`); version history brings the immediate ancestor and
/// descendants; correspondence brings all corresponding objects; instance
/// inheritance brings the inheritance sources (the objects a by-reference
/// attribute dereferences into).
///
/// A non-null `trace` records one obs::TraceEventType::kPrefetchGroup
/// event per non-empty group (relationship kind + group size).
class PrefetchGrouper {
 public:
  const PrefetchGroup& Compute(const obj::ObjectGraph& graph,
                               const store::StorageManager& storage,
                               obj::ObjectId object, AccessHint hint,
                               int config_depth = 2, size_t max_pages = 8,
                               obs::TraceSink* trace = nullptr);

 private:
  PrefetchGroup group_;
  /// The configuration walk's frontier buffer.
  std::vector<obj::ObjectId> walk_;
};

/// The dominant relationship kind of `object`'s effective type profile.
obj::RelKind DominantKind(const obj::ObjectGraph& graph,
                          obj::ObjectId object);

}  // namespace oodb::buffer

#endif  // SEMCLUST_BUFFER_PREFETCHER_H_
