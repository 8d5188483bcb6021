#include "ckpt/sharded_checkpoint_store.hpp"

#include <utility>

#include "util/check.hpp"

namespace rdtgc::ckpt {

ShardedCheckpointStore::ShardedCheckpointStore(ProcessId owner,
                                               const StorageConfig& storage)
    : mirror_(owner) {
  if (storage.kind == StorageBackendKind::kInMemory) return;
  backend_ = make_backend(storage, owner);
  pending_recover_ = storage.open_mode == OpenMode::kAttach;
  if (storage.durability.mode == DurabilityMode::kSync) {
    direct_ = true;
  } else {
    pipeline_ =
        std::make_unique<DurabilityPipeline>(storage.durability, *backend_);
  }
}

void ShardedCheckpointStore::put(StoredCheckpoint checkpoint) {
  RDTGC_EXPECTS(!pending_recover_);
  if (direct_) {
    backend_->put(std::move(checkpoint));
    return;
  }
  const CheckpointIndex index = checkpoint.index;
  const SimTime stored_at = checkpoint.stored_at;
  const std::uint64_t bytes = checkpoint.bytes;
  mirror_.put(std::move(checkpoint));
  // The DV now lives in the mirror (the checkpoint was moved): record it
  // from there.
  if (pipeline_ != nullptr &&
      pipeline_->record_put(index, mirror_.get(index).dv, stored_at, bytes))
    pipeline_->commit();
}

void ShardedCheckpointStore::put(CheckpointIndex index,
                                 const causality::DependencyVector& dv,
                                 SimTime stored_at, std::uint64_t bytes) {
  RDTGC_EXPECTS(!pending_recover_);
  if (direct_) {
    backend_->put(index, dv, stored_at, bytes);
    return;
  }
  mirror_.put(index, dv, stored_at, bytes);
  if (pipeline_ != nullptr && pipeline_->record_put(index, dv, stored_at, bytes))
    pipeline_->commit();
}

void ShardedCheckpointStore::collect(CheckpointIndex index) {
  RDTGC_EXPECTS(!pending_recover_);
  if (direct_) {
    backend_->collect(index);
    return;
  }
  mirror_.collect(index);  // throws if absent, before anything is recorded
  if (pipeline_ != nullptr && pipeline_->record_collect(index))
    pipeline_->commit();
}

std::size_t ShardedCheckpointStore::discard_after(CheckpointIndex ri) {
  RDTGC_EXPECTS(!pending_recover_);
  if (direct_) return backend_->discard_after(ri);
  const std::size_t discarded = mirror_.discard_after(ri);
  if (pipeline_ != nullptr && pipeline_->record_discard(ri))
    pipeline_->commit();
  return discarded;
}

std::size_t ShardedCheckpointStore::recover() {
  if (backend_ == nullptr || !pending_recover_) return count();
  backend_->recover();
  pending_recover_ = false;
  if (pipeline_ != nullptr) {
    // After a crash the acknowledged state IS the recovered durable prefix:
    // rebuild the mirror from the medium, counters included.
    for (const CheckpointIndex index : backend_->stored_indices()) {
      const StoredCheckpoint& checkpoint = backend_->get(index);
      mirror_.put(index, checkpoint.dv, checkpoint.stored_at,
                  checkpoint.bytes);
    }
    mirror_.restore_stats(backend_->stats());
    pipeline_->reset_after_recover(
        backend_->count() > 0 ? backend_->last_index() : kNoCheckpoint);
  }
  return count();
}

void ShardedCheckpointStore::flush() {
  // Drain the pipeline first so every acknowledged mutation reaches the
  // medium before its flush below.
  if (pipeline_ != nullptr) pipeline_->flush();
  if (backend_ != nullptr) backend_->flush();
}

DurabilityStatus ShardedCheckpointStore::durability() const {
  if (pipeline_ != nullptr) return pipeline_->status();
  DurabilityStatus status;
  // No pipeline: every mutation is already durable when acknowledged.
  const Stats& s = stats();
  status.acked_ops = s.stored + s.collected + s.discarded;
  status.synced_ops = status.acked_ops;
  status.acked_index = count() > 0 ? last_index() : kNoCheckpoint;
  status.synced_index = status.acked_index;
  return status;
}

}  // namespace rdtgc::ckpt
