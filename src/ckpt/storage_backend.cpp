#include "ckpt/storage_backend.hpp"

#include <memory>

#include "ckpt/log_backend.hpp"
#include "ckpt/mmap_backend.hpp"
#include "util/check.hpp"

namespace rdtgc::ckpt {

const char* backend_kind_name(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kInMemory:
      return "memory";
    case StorageBackendKind::kMmapFile:
      return "mmap";
    case StorageBackendKind::kLogStructured:
      return "log";
  }
  RDTGC_ASSERT(false);
  return "?";
}

const char* durability_mode_name(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kSync:
      return "sync";
    case DurabilityMode::kGroupCommit:
      return "group";
    case DurabilityMode::kBackground:
      return "background";
  }
  RDTGC_ASSERT(false);
  return "?";
}

std::string StorageConfig::store_file(ProcessId owner) const {
  const char* ext = kind == StorageBackendKind::kMmapFile ? ".seg" : ".log";
  return directory + "/p" + std::to_string(owner) + ext;
}

std::unique_ptr<StorageBackend> make_backend(const StorageConfig& config,
                                             ProcessId owner) {
  switch (config.kind) {
    case StorageBackendKind::kInMemory:
      break;  // no medium: the store is its own flat CheckpointStore
    case StorageBackendKind::kMmapFile:
      RDTGC_EXPECTS(!config.directory.empty());
      return std::make_unique<MmapFileBackend>(
          owner, config.store_file(owner), config.open_mode,
          config.initial_slots);
    case StorageBackendKind::kLogStructured:
      RDTGC_EXPECTS(!config.directory.empty());
      return std::make_unique<LogStructuredBackend>(
          owner, config.store_file(owner), config.open_mode,
          config.compact_min_records, config.compact_dead_ratio);
  }
  RDTGC_ASSERT(false);
  return nullptr;
}

}  // namespace rdtgc::ckpt
