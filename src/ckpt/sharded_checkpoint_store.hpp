// The stable storage of one process: exactly one StorageBackend, plus an
// optional durability pipeline in front of it.
//
// The type keeps its historical name, ShardedCheckpointStore, although it no
// longer shards: under RDT-LGC a process holds at most n+1 live checkpoints
// (§4.5), so the whole live set fits one flat index.  The name stays because
// the end-to-end benchmark (perfbench/) compiles against it, together with
// contains, stored_indices, stats, flush, pipelined, durability and
// GarbageCollector::initialize(…, ShardedCheckpointStore&).
//
// Three configurations, chosen once at construction (StorageConfig):
//  * in-memory (the default) — the store is one flat CheckpointStore, the
//    zero-allocation reference;
//  * persistent, DurabilityMode::kSync — the store is one mmap segment or
//    one log-structured file (storage_backend.hpp), directory/p<owner>.seg
//    or .log.  Every mutation writes through before it returns, and the
//    backend's own header carries the lifetime counters across recover();
//  * persistent, a non-kSync policy — a flat CheckpointStore is the
//    ACKNOWLEDGED mirror that serves every read and every hot-path
//    contract, the persistent backend holds the DURABLE state, and a
//    ckpt::DurabilityPipeline replays whole windows of acknowledged
//    mutations into it as group commits (durability_pipeline.hpp).
//    Dropping the store without flush() models a crash: the un-drained
//    window is discarded and recovery lands on the last commit's prefix.
//    The backend's persisted counters advance in drain order, so recovered
//    stats always match the recovered prefix.
//
// Every read forwards to the ACTIVE backend: the flat store in the in-memory
// and pipelined configurations (CheckpointStore is final, so those calls
// devirtualize and inline), the persistent backend under kSync.
//
// Threading: a store belongs to one thread, its process.  The only other
// thread is the pipeline's background writer (kBackground), which touches
// nothing but the pipeline's ring and the durable backend; a pipelined
// store's durability() is safe to call from any thread.
//
// Reopening: construct with OpenMode::kAttach over the same directory and
// call recover() before any mutation — the entry point
// recovery::recovery_line_from_storage() builds a full restart-from-disk on.
// On both media the live records appear in ascending index order (puts are
// strictly increasing within a lineage, and a rollback kills the whole
// suffix above its restore point before any index is reused), so recovery
// replays straight into the flat mirror without sorting.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/durability_pipeline.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

class ShardedCheckpointStore {
 public:
  /// Opens the backend `storage` selects (default: in-memory).  With
  /// OpenMode::kAttach over a persistent kind the store opens existing media
  /// (util::IoError when the file is missing) and recover() must run before
  /// any mutation.
  explicit ShardedCheckpointStore(ProcessId owner,
                                  const StorageConfig& storage = StorageConfig());

  /// Owning process id.  O(1), never allocates.
  ProcessId owner() const { return mirror_.owner(); }

  /// Store a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).  Amortized allocation-free.
  void put(StoredCheckpoint checkpoint);

  /// Copy-in variant for the hot checkpoint path: the dependency vector is
  /// copied into the buffer recycled by the most recent collect(), so
  /// steady-state checkpoint-and-collect churn never touches the heap.
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes);

  /// Garbage-collection elimination of an obsolete checkpoint.
  /// Allocation-free.
  void collect(CheckpointIndex index);

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4).  Returns how many were discarded.  Allocation-free.
  std::size_t discard_after(CheckpointIndex ri);

  /// Membership test; one binary search.  Never allocates.
  bool contains(CheckpointIndex index) const {
    return direct_ ? backend_->contains(index) : mirror_.contains(index);
  }

  /// Reference into the active backend's index — invalidated by the next
  /// mutation; copy before interleaving.  Never allocates.
  const StoredCheckpoint& get(CheckpointIndex index) const {
    return direct_ ? backend_->get(index) : mirror_.get(index);
  }

  /// Non-owning view of the stored dependency vector (under kSync the mmap
  /// backend serves it straight from the mapped file).  Invalidated by the
  /// next mutation.
  causality::DvView dv_view(CheckpointIndex index) const {
    return direct_ ? backend_->dv_view(index) : mirror_.dv_view(index);
  }

  /// Currently stored indices, ascending.  A live view, invalidated by the
  /// next mutation.  O(1), never allocates.
  const std::vector<CheckpointIndex>& stored_indices() const {
    return direct_ ? backend_->stored_indices() : mirror_.stored_indices();
  }

  /// Highest stored index; throws ContractViolation on an empty store.
  CheckpointIndex last_index() const {
    return direct_ ? backend_->last_index() : mirror_.last_index();
  }

  /// Live checkpoints.  O(1), never allocates.
  std::size_t count() const {
    return direct_ ? backend_->count() : mirror_.count();
  }
  /// Bytes currently held.  O(1), never allocates.
  std::uint64_t bytes() const {
    return direct_ ? backend_->bytes() : mirror_.bytes();
  }

  /// Lifetime counters (see StoreStats).  O(1), never allocates.
  using Stats = StoreStats;
  const Stats& stats() const {
    return direct_ ? backend_->stats() : mirror_.stats();
  }

  // ---- Persistence (see the header comment) ----

  /// Rebuild the in-memory index from the persistent medium (and, when
  /// pipelined, the acknowledged mirror from it).  Required once after
  /// constructing with OpenMode::kAttach, a no-op on a live store.  Returns
  /// the number of live checkpoints.  May allocate (off every hot path).
  std::size_t recover();

  /// Durability point: under a non-kSync policy first drain the pipeline,
  /// then flush the medium (msync/fsync).  No-op for in-memory storage.
  void flush();

  // ---- Asynchronous durability (see the header comment) ----

  /// Whether a DurabilityPipeline is active (persistent backend with a
  /// non-kSync policy).  O(1), never allocates.
  bool pipelined() const { return pipeline_ != nullptr; }

  /// The pipeline, or nullptr in kSync / in-memory mode.
  DurabilityPipeline* pipeline() { return pipeline_.get(); }
  const DurabilityPipeline* pipeline() const { return pipeline_.get(); }

  /// Acked-vs-synced snapshot.  Without a pipeline the lag is identically
  /// zero (indices report last_index()).  Safe against a background drain.
  DurabilityStatus durability() const;

  /// The backend that holds the durable state: the persistent medium, or
  /// the flat store itself in in-memory mode.  Pipelined, it trails the
  /// acknowledged reads above by the un-drained window.
  const StorageBackend& durable_backend() const {
    return backend_ ? *backend_ : static_cast<const StorageBackend&>(mirror_);
  }

 private:
  /// In-memory: the store.  Pipelined: the acknowledged mirror.  Unused
  /// (empty) under kSync persistence.
  CheckpointStore mirror_;
  /// The persistent medium; null in in-memory mode.
  std::unique_ptr<StorageBackend> backend_;
  /// Every operation goes straight to backend_ (persistent kSync).
  bool direct_ = false;
  /// Attached and not yet recovered: mutations are rejected.
  bool pending_recover_ = false;
  /// Group-commit/background-writer pipeline (non-kSync persistent mode
  /// only).  LAST member: destroyed first, so the writer thread is joined
  /// before the backend it drains into goes away.
  std::unique_ptr<DurabilityPipeline> pipeline_;
};

}  // namespace rdtgc::ckpt
