#include "shard/shard_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

namespace warpindex {
namespace {

constexpr char kMagic[4] = {'W', 'I', 'S', 'M'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;

}  // namespace

std::string ShardSubdir(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", index);
  return buf;
}

Status SaveShardManifest(const std::string& path,
                         const ShardManifest& manifest) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot write shard manifest " + path);
  }
  const uint32_t version = kVersionV2;
  const uint32_t num_shards =
      static_cast<uint32_t>(manifest.assignment.num_shards);
  const uint32_t partitioner = static_cast<uint32_t>(manifest.partitioner);
  const uint64_t page_size = manifest.page_size_bytes;
  const uint64_t count = manifest.assignment.shard_of.size();
  bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f) == 1;
  ok = ok && std::fwrite(&version, sizeof(version), 1, f) == 1;
  ok = ok && std::fwrite(&num_shards, sizeof(num_shards), 1, f) == 1;
  ok = ok && std::fwrite(&partitioner, sizeof(partitioner), 1, f) == 1;
  ok = ok && std::fwrite(&page_size, sizeof(page_size), 1, f) == 1;
  ok = ok && std::fwrite(&count, sizeof(count), 1, f) == 1;
  ok = ok &&
       (count == 0 ||
        std::fwrite(manifest.assignment.shard_of.data(), sizeof(uint32_t),
                    count, f) == count);
  // v2 trailing block: the range partitioner's routing cut points.
  const uint32_t has_cuts = manifest.range_cuts.empty() ? 0 : 1;
  ok = ok && std::fwrite(&has_cuts, sizeof(has_cuts), 1, f) == 1;
  if (has_cuts != 0) {
    ok = ok && manifest.range_cuts.size() == manifest.assignment.num_shards;
    for (const auto& cut : manifest.range_cuts) {
      ok = ok &&
           std::fwrite(cut.data(), sizeof(double), cut.size(), f) ==
               cut.size();
    }
  }
  std::fclose(f);
  return ok ? Status::Ok() : Status::IoError("short manifest write: " + path);
}

Status LoadShardManifest(const std::string& path, ShardManifest* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot read shard manifest " + path);
  }
  char magic[4];
  uint32_t version = 0;
  uint32_t num_shards = 0;
  uint32_t partitioner = 0;
  uint64_t page_size = 0;
  uint64_t count = 0;
  bool ok = std::fread(magic, sizeof(magic), 1, f) == 1 &&
            std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  ok = ok && std::fread(&version, sizeof(version), 1, f) == 1 &&
       (version == kVersionV1 || version == kVersionV2);
  ok = ok && std::fread(&num_shards, sizeof(num_shards), 1, f) == 1 &&
       num_shards >= 1;
  ok = ok && std::fread(&partitioner, sizeof(partitioner), 1, f) == 1 &&
       partitioner <= static_cast<uint32_t>(PartitionerKind::kRange);
  ok = ok && std::fread(&page_size, sizeof(page_size), 1, f) == 1;
  ok = ok && std::fread(&count, sizeof(count), 1, f) == 1;
  if (ok) {
    out->assignment.shard_of.resize(count);
    ok = count == 0 ||
         std::fread(out->assignment.shard_of.data(), sizeof(uint32_t),
                    count, f) == count;
  }
  out->range_cuts.clear();
  if (ok && version >= kVersionV2) {
    uint32_t has_cuts = 0;
    ok = std::fread(&has_cuts, sizeof(has_cuts), 1, f) == 1 && has_cuts <= 1;
    if (ok && has_cuts != 0) {
      out->range_cuts.resize(num_shards);
      for (auto& cut : out->range_cuts) {
        ok = ok && std::fread(cut.data(), sizeof(double), cut.size(), f) ==
                       cut.size();
      }
    }
  }
  std::fclose(f);
  if (!ok) {
    return Status::IoError("corrupt shard manifest " + path);
  }
  for (const uint32_t shard : out->assignment.shard_of) {
    // kDroppedShard (v2): the id was deleted and compacted away.
    if (shard >= num_shards && shard != kDroppedShard) {
      return Status::IoError("corrupt shard manifest " + path +
                             ": assignment out of range");
    }
  }
  out->partitioner = static_cast<PartitionerKind>(partitioner);
  out->page_size_bytes = static_cast<size_t>(page_size);
  out->assignment.num_shards = num_shards;
  return Status::Ok();
}

Status SaveShardDirectory(const std::string& dir,
                          const ShardManifest& manifest,
                          const std::vector<BaseShard>& shards) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  WARPINDEX_RETURN_IF_ERROR(
      SaveShardManifest(dir + "/manifest.wism", manifest));
  for (size_t s = 0; s < shards.size(); ++s) {
    WARPINDEX_RETURN_IF_ERROR(
        shards[s].engine->Save(dir + "/" + ShardSubdir(s)));
  }
  return Status::Ok();
}

Status OpenBaseShard(const std::string& dir, size_t index,
                     const ShardAssignment& assignment,
                     const EngineOptions& engine, BaseShard* out) {
  std::unique_ptr<Engine> opened;
  WARPINDEX_RETURN_IF_ERROR(
      Engine::Open(dir + "/" + ShardSubdir(index), engine, &opened));
  std::vector<SequenceId> global_of;
  for (size_t g = 0; g < assignment.shard_of.size(); ++g) {
    if (assignment.shard_of[g] == index) {
      global_of.push_back(static_cast<SequenceId>(g));
    }
  }
  if (opened->dataset().size() != global_of.size()) {
    return Status::InvalidArgument(
        "shard " + std::to_string(index) +
        " holds a different sequence count than the manifest assigns");
  }
  out->engine = std::shared_ptr<const Engine>(std::move(opened));
  out->global_of =
      std::make_shared<const std::vector<SequenceId>>(std::move(global_of));
  out->bounds = LiveFeatureBounds(*out->engine);
  return Status::Ok();
}

Status OpenShardDirectory(const std::string& dir, size_t num_shards,
                          PartitionerKind partitioner,
                          const EngineOptions& engine,
                          ShardManifest* manifest,
                          std::vector<BaseShard>* shards) {
  WARPINDEX_RETURN_IF_ERROR(
      LoadShardManifest(dir + "/manifest.wism", manifest));
  if (manifest->assignment.num_shards != num_shards) {
    return Status::InvalidArgument(
        "shard count mismatch: saved " +
        std::to_string(manifest->assignment.num_shards) + ", requested " +
        std::to_string(num_shards));
  }
  if (manifest->partitioner != partitioner) {
    return Status::InvalidArgument(
        std::string("partitioner mismatch: saved ") +
        PartitionerKindName(manifest->partitioner) + ", requested " +
        PartitionerKindName(partitioner));
  }
  if (manifest->page_size_bytes != engine.page_size_bytes) {
    return Status::InvalidArgument(
        "page size mismatch between saved shards and EngineOptions");
  }
  shards->assign(num_shards, BaseShard{});
  for (size_t s = 0; s < num_shards; ++s) {
    WARPINDEX_RETURN_IF_ERROR(OpenBaseShard(dir, s, manifest->assignment,
                                            engine, &(*shards)[s]));
  }
  return Status::Ok();
}

}  // namespace warpindex
