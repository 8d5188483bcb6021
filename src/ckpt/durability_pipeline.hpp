// Asynchronous durability for a process's checkpoint store: group commit
// and an optional background writer, so the zero-alloc protocol hot path
// never blocks on media.
//
// The paper's model assumes checkpoints reach stable storage; the kSync
// backends charge that cost to the protocol hot path (one pwrite per log
// record, write-through mapped pages, fsync/msync inline).  Under a
// non-kSync DurabilityPolicy the owning ShardedCheckpointStore splits the
// two roles:
//
//   * the ACKNOWLEDGED state lives in the store's flat in-memory mirror —
//     the same zero-allocation CheckpointStore path as the in-memory
//     backend — and serves every read and every protocol decision;
//   * the DURABLE state lives in the one persistent backend, which no
//     longer sees mutations directly.  Each acknowledged mutation is
//     recorded in this pipeline's bounded ring (preallocated slots, DV
//     payload buffers reused across wraps — steady-state enqueue is
//     allocation-free), and a GROUP COMMIT replays a whole window of
//     recorded ops, in acknowledgment order, into the backend bracketed by
//     begin_batch()/end_batch(true), so the log backend emits the window as
//     ONE pwrite + one fsync and the mmap backend pays one msync — many
//     per-op durability points coalesced into one.
//
// Commit scheduling: kGroupCommit drains inline on the operation that
// fills the window (every_k_ops; optionally every put with
// every_checkpoint), so the caller's thread pays the amortized media cost.
// kBackground drains on a dedicated writer thread that claims windows from
// the ring (every_k_ops bounds a pass) and the hot path NEVER syncs;
// producers only spin when the bounded ring is full (backpressure).
//
// Locking discipline (both leaf-level util::SpinLocks, fixed order):
//   ring_lock_  — guards the ring indices and slot publication.  Held for
//                 nanoseconds: slot fill on enqueue, index reads/advance on
//                 claim/free.
//   drain_lock_ — serializes whole drains (writer passes, inline commits,
//                 flush()).  I/O happens under drain_lock_ but NEVER under
//                 ring_lock_, so the producer keeps enqueueing while a
//                 commit writes media.
//
// Crash semantics (the contract tests/durability_test.cpp certifies
// against the Theorem-1 oracle): the recorded-op sequence is the
// acknowledged history, and every commit applies a PREFIX of it, in order,
// then syncs.  Dropping the store without flush() models the crash — the
// un-drained window is discarded (the destructor stops the writer after
// its in-flight pass; it does not drain), so recovery lands on the state
// after some prefix of the acknowledged operations: never a reordering,
// never a gap.  The backend's own persisted counters advance in drain
// order, so recovered stats always match the recovered prefix.  As with
// the mmap backend's in-place compaction, a commit is not atomic against
// an OS crash mid-drain; the model — here and in the tests — is dropping
// the object between operations.
//
// Observability: acknowledged-vs-synced op counts and checkpoint indices
// are maintained as atomics, snapshot by status() — the durability-lag
// figure metrics::DurabilityLag samples and the sweep summaries aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"
#include "util/spinlock.hpp"

namespace rdtgc::ckpt {

/// One snapshot of the acknowledged-vs-durable gap.  In kSync mode (no
/// pipeline) the gap is identically zero.
struct DurabilityStatus {
  std::uint64_t acked_ops = 0;   ///< mutations acknowledged to the caller
  std::uint64_t synced_ops = 0;  ///< mutations durable on the media
  /// Highest checkpoint index acknowledged / made durable (kNoCheckpoint
  /// before the first put).  Not monotonic across rollbacks.
  CheckpointIndex acked_index = kNoCheckpoint;
  CheckpointIndex synced_index = kNoCheckpoint;

  std::uint64_t lag_ops() const { return acked_ops - synced_ops; }
};

class DurabilityPipeline {
 public:
  /// `backend` is the persistent medium the drains write into (owned by
  /// the store, which destroys this pipeline first).  Policy mode must not
  /// be kSync.  Starts the writer thread in kBackground mode.
  DurabilityPipeline(DurabilityPolicy policy, StorageBackend& backend);

  /// Stops the writer after its in-flight pass and DISCARDS whatever is
  /// still enqueued — dropping the store without flush() models a crash.
  ~DurabilityPipeline();

  DurabilityPipeline(const DurabilityPipeline&) = delete;
  DurabilityPipeline& operator=(const DurabilityPipeline&) = delete;

  // ---- Recording (called by the store after it applied the mutation to
  // its mirror).  Each returns true when the policy calls for an inline
  // group commit, which the caller then runs with commit().  Spins when the
  // bounded ring is full (kBackground backpressure); steady-state
  // allocation-free once every slot's DV buffer is sized. ----

  bool record_put(CheckpointIndex index, const causality::DependencyVector& dv,
                  SimTime stored_at, std::uint64_t bytes);
  bool record_collect(CheckpointIndex index);
  bool record_discard(CheckpointIndex ri);

  /// Drain every currently recorded op as one group commit (inline mode;
  /// harmless no-op when another thread's drain already took them).
  void commit();

  /// Quiesce: drain everything recorded so far and return with the media
  /// durable and (kBackground) the writer idle.  Requires the caller's
  /// mutators to be quiescent, like every store-level flush.
  void flush();

  /// Reset the pipeline after the owning store recovered from media: the
  /// lag collapses to zero at the recovered `last_index`.
  void reset_after_recover(CheckpointIndex last_index);

  /// Acked-vs-synced snapshot; safe to call concurrently with a
  /// background drain.
  DurabilityStatus status() const;

  const DurabilityPolicy& policy() const { return policy_; }

  /// Group commits completed (drain passes that applied at least one op).
  std::uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    enum class Kind : std::uint8_t { kPut, kCollect, kDiscardAfter };
    Kind kind = Kind::kPut;
    CheckpointIndex index = 0;
    SimTime stored_at = 0;
    std::uint64_t bytes = 0;  ///< kPut: checkpoint payload bytes
    /// kPut: the DV payload, copied into a buffer reused across ring
    /// wraps (sized on first use; allocation-free thereafter).
    std::vector<IntervalIndex> dv;
    std::size_t dv_size = 0;
  };

  /// Reserve the next slot (spinning while the ring is full), fill it via
  /// the slot fields, publish it, and report whether the group-commit
  /// trigger fired.  Runs entirely under ring_lock_.
  template <typename FillFn>
  bool enqueue(Slot::Kind kind, bool is_put, FillFn&& fill);

  /// One serialized drain pass: claim up to `max_ops` recorded ops, apply
  /// them in order to the backend inside one batch bracket, free the
  /// slots.  Returns how many ops it applied.
  std::size_t drain_some(std::size_t max_ops);

  void writer_main();

  DurabilityPolicy policy_;
  StorageBackend& backend_;

  // Bounded ring: capacity is a power of two; head_/tail_ are free-running
  // sequence numbers (occupancy = head_ - tail_).  Slots in [tail_, head_)
  // belong to the drain side; producers reuse a slot only after tail_
  // passed it.  All three guarded by ring_lock_.
  std::vector<Slot> ring_;
  std::size_t ring_mask_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  mutable util::SpinLock ring_lock_;

  /// Serializes drains; I/O runs under it (leaf-ness is preserved: drains
  /// take ring_lock_ only in the claim/free windows, never across I/O).
  util::SpinLock drain_lock_;

  /// Reusable DV for replaying puts into the backend (copy-in target;
  /// touched only under drain_lock_).
  causality::DependencyVector scratch_dv_;

  // ---- Lag counters (atomics: probe reads race a background drain) ----
  std::atomic<std::uint64_t> acked_ops_{0};
  std::atomic<std::uint64_t> synced_ops_{0};
  std::atomic<CheckpointIndex> acked_index_{kNoCheckpoint};
  std::atomic<CheckpointIndex> synced_index_{kNoCheckpoint};
  std::atomic<std::uint64_t> commits_{0};

  // ---- Background writer ----
  std::atomic<bool> stop_{false};
  std::thread writer_;
};

}  // namespace rdtgc::ckpt
