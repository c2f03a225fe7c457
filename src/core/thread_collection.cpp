#include "core/thread_collection.hpp"

#include "core/application.hpp"
#include "core/cluster.hpp"
#include "core/controller.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/mapping.hpp"

namespace dps {

ThreadCollectionBase::ThreadCollectionBase(Application& app, std::string name,
                                           const detail::ThreadTypeInfo& type)
    : app_(app),
      name_(std::move(name)),
      thread_type_(type.name),
      type_(type) {}

ThreadCollectionBase::~ThreadCollectionBase() = default;

void ThreadCollectionBase::map(const std::string& mapping) {
  if (mapped()) {
    raise(Errc::kState,
          "thread collection '" + name_ + "' is already mapped");
  }
  Cluster& cluster = app_.cluster();
  const std::vector<std::string> node_names = parse_mapping(mapping);
  std::vector<NodeId> placement;
  placement.reserve(node_names.size());
  for (const std::string& n : node_names) {
    placement.push_back(cluster.node_id(n));  // throws kNotFound on typos
  }
  // Publish the full placement before any worker can run.
  placement_ = std::move(placement);
  obs::Trace::instance().record(obs::EventKind::kCollectionMap, 0, id(),
                                placement_.size(), 0, 0);
  depths_ = std::make_unique<std::atomic<uint32_t>[]>(placement_.size());
  for (size_t i = 0; i < placement_.size(); ++i) depths_[i].store(0);
  for (size_t i = 0; i < placement_.size(); ++i) {
    // Multi-process mode: this process only hosts its own node's workers.
    if (!cluster.is_local(placement_[i])) continue;
    cluster.controller(placement_[i])
        .spawn_worker(*this, static_cast<ThreadIndex>(i), type_);
  }
}

NodeId ThreadCollectionBase::node_of(ThreadIndex index) const {
  if (index >= placement_.size()) {
    raise(Errc::kInvalidArgument,
          "thread index " + std::to_string(index) + " out of range for "
          "collection '" + name_ + "' of size " +
              std::to_string(placement_.size()));
  }
  return placement_[index];
}

}  // namespace dps
