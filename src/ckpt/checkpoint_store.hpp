// Per-process stable-storage model for checkpoints (§2.2).
//
// Tracks what is currently stored, distinguishes garbage-collection
// eliminations from rollback discards (they mean different things in the
// evaluation), and maintains the peak-occupancy statistics the paper's
// bounds are stated against (n per process steady, n+1 transient, §4.5).
//
// Storage layout: two parallel flat vectors ordered by strictly ascending
// checkpoint index — the index column doubles as the stored_indices() view,
// and every lookup is a binary search over a contiguous array.  With RDT-LGC
// at most n+1 checkpoints are live, so erase shifts are tiny and the
// GC-elimination path never allocates.
//
// This flat store is also the in-memory StorageBackend behind a process's
// ShardedCheckpointStore (sharded_checkpoint_store.hpp) — its store in
// memory mode, its acknowledged mirror when a durability pipeline runs —
// and the reference implementation tests/store_test.cpp and
// tests/backend_test.cpp certify every configuration against.  The
// persistent backends (mmap_backend.hpp, log_backend.hpp) embed one of these
// as their in-memory mirror, so "backend X matches the flat store" is the
// single equivalence contract everything reduces to.
#pragma once

#include <cstdint>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

class CheckpointStore final : public StorageBackend {
 public:
  explicit CheckpointStore(ProcessId owner) : owner_(owner) {}

  /// Owning process id.  O(1), never allocates.
  ProcessId owner() const override { return owner_; }

  /// In-memory reference backend.
  StorageBackendKind kind() const override {
    return StorageBackendKind::kInMemory;
  }

  /// Store a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).  Amortized allocation-free: push_back only,
  /// no heap traffic once the vectors reached steady-state capacity.
  void put(StoredCheckpoint checkpoint) override;

  /// Copy-in variant for the hot checkpoint path: the dependency vector is
  /// copied into the buffer recycled by the most recent collect(), so
  /// steady-state checkpoint-and-collect churn never touches the heap.
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes) override;

  /// Membership test; one binary search.  Never allocates.
  bool contains(CheckpointIndex index) const override;
  /// Reference into the flat store — invalidated by the next mutation
  /// (put/collect/discard_after); copy before interleaving.  Never
  /// allocates; throws ContractViolation when absent.
  const StoredCheckpoint& get(CheckpointIndex index) const override;

  /// View of the stored DV (into this store's owning vector).  Never
  /// allocates; invalidated by the next mutation.
  causality::DvView dv_view(CheckpointIndex index) const override {
    return get(index).dv.view();
  }

  /// Garbage-collection elimination of an obsolete checkpoint.
  /// Allocation-free.
  void collect(CheckpointIndex index) override;

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4).  Returns how many were discarded.  Allocation-free (suffix
  /// resize only).
  std::size_t discard_after(CheckpointIndex ri) override;

  /// Currently stored indices, ascending.  O(1): a live view of the store's
  /// flat index, invalidated by the next mutation — snapshot (copy) before
  /// interleaving with put/collect/discard_after.
  const std::vector<CheckpointIndex>& stored_indices() const override {
    return indices_;
  }

  /// Highest stored index; store is never empty after the initial checkpoint.
  /// O(1), never allocates; throws ContractViolation on an empty store.
  CheckpointIndex last_index() const override;

  /// Live checkpoints.  O(1), never allocates.
  std::size_t count() const override { return indices_.size(); }
  /// Bytes currently held.  O(1), never allocates.
  std::uint64_t bytes() const override { return bytes_; }

  using Stats = StoreStats;
  /// Lifetime counters (see StoreStats fields).  O(1), never allocates.
  const Stats& stats() const override { return stats_; }

  /// Nothing is persistent here: recover() is the documented no-op of the
  /// trait, returning the live count.
  std::size_t recover() override { return count(); }
  /// No durability point either.
  void flush() override {}

  /// Overwrite the lifetime counters.  ONLY for backend recovery paths
  /// (mmap/log backends replay their medium into a mirror of this class and
  /// then restore the persisted counters, whose history — peaks included —
  /// a live-set replay cannot reconstruct).
  void restore_stats(const Stats& stats) { stats_ = stats; }

 private:
  /// Position of `index` in the flat arrays, or count() if absent.
  std::size_t position(CheckpointIndex index) const;

  ProcessId owner_;
  std::vector<CheckpointIndex> indices_;       // sorted ascending
  std::vector<StoredCheckpoint> checkpoints_;  // parallel to indices_
  /// Dead checkpoint recycled by collect(); its DV buffer is reused by the
  /// copy-in put() so the steady-state churn is allocation-free.
  StoredCheckpoint spare_;
  std::uint64_t bytes_ = 0;
  Stats stats_;
};

}  // namespace rdtgc::ckpt
