#include "shard/shard_view.h"

#include <utility>

namespace warpindex {

std::vector<BaseShard> BuildBaseShards(Dataset dataset,
                                       const ShardAssignment& assignment,
                                       const EngineOptions& options) {
  std::vector<Dataset> parts(assignment.num_shards);
  std::vector<std::vector<SequenceId>> global_of(assignment.num_shards);
  for (size_t g = 0; g < dataset.size(); ++g) {
    const uint32_t s = assignment.shard_of[g];
    parts[s].Add(dataset[g]);
    global_of[s].push_back(static_cast<SequenceId>(g));
  }
  std::vector<BaseShard> shards(assignment.num_shards);
  for (size_t s = 0; s < shards.size(); ++s) {
    shards[s].engine = std::make_shared<Engine>(std::move(parts[s]), options);
    shards[s].global_of = std::make_shared<const std::vector<SequenceId>>(
        std::move(global_of[s]));
    shards[s].bounds = LiveFeatureBounds(*shards[s].engine);
  }
  return shards;
}

ShardFeatureBounds LiveFeatureBounds(const Engine& engine) {
  ShardFeatureBounds bounds;
  const Dataset& data = engine.dataset();
  for (size_t local = 0; local < data.size(); ++local) {
    if (engine.Contains(static_cast<SequenceId>(local))) {
      bounds.Cover(ExtractFeature(data[local]));
    }
  }
  return bounds;
}

}  // namespace warpindex
