// Pluggable persistence behind a process's checkpoint store.
//
// The paper's Theorem-1-optimal GC reclaims *stable storage*; this trait is
// where stable storage actually lives.  A process's ShardedCheckpointStore
// is one StorageBackend, and three implementations exist:
//
//  * ckpt::CheckpointStore (checkpoint_store.hpp) — the in-memory flat
//    store, unchanged zero-allocation hot path; the reference every other
//    backend is property-tested against (tests/backend_test.cpp drives all
//    of them through one randomized trace and requires bit-identical
//    observable state);
//  * ckpt::MmapFileBackend (mmap_backend.hpp) — one mmap'd segment file per
//    process: fixed header, fixed-size checkpoint slots appended with their
//    dependency vectors, GC eliminations clear a live flag in place, the
//    mapping grows geometrically via remap;
//  * ckpt::LogStructuredBackend (log_backend.hpp) — an append-only log of
//    put/collect/discard records; Algorithm-2 eliminations mark log records
//    dead, and a compaction pass rewrites the live records behind a fresh
//    header and truncates the file.
//
// Contract highlights shared by all implementations:
//  * observable state (stored_indices(), stats(), retrieved DVs) follows the
//    flat store's documented semantics exactly;
//  * recover() rebuilds the in-memory index from the persistent medium of a
//    backend opened with OpenMode::kAttach; on a live backend it is a no-op
//    returning count().  Persistent backends reject mutations until the
//    pending recover() ran;
//  * flush() is the durability point (msync/fsync); dropping a backend
//    without it models a crash — the page-cache contents survive, and
//    recover() must reconstruct from whatever reached the file.  Under a
//    non-kSync DurabilityPolicy the store additionally holds a window of
//    acknowledged-but-unapplied mutations (durability_pipeline.hpp);
//    dropping the STORE discards that window, and recovery lands on the
//    consistent prefix the last group commit established;
//  * dv_view() exposes the stored dependency vector without forcing a copy
//    (the mmap backend returns a view straight into the mapped file).
//
// Virtual dispatch is deliberate: the churn path may pay an indirect call
// but must never allocate through the trait for the in-memory backend
// (tests/hot_path_test.cpp enforces it), and the store keeps a
// devirtualized fast path for its in-memory flat store.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"

namespace rdtgc::ckpt {

/// One checkpoint resident in stable storage.
struct StoredCheckpoint {
  CheckpointIndex index = 0;
  /// Dependency vector stored with the checkpoint (recovery needs it;
  /// Algorithm 3 line 5 restores DV from it).
  causality::DependencyVector dv;
  SimTime stored_at = 0;
  std::uint64_t bytes = 0;
};

/// Lifetime counters every backend maintains (and persistent backends
/// carry across recover()).
struct StoreStats {
  std::uint64_t stored = 0;      ///< total put() calls
  std::uint64_t collected = 0;   ///< GC eliminations
  std::uint64_t discarded = 0;   ///< rollback discards
  std::size_t peak_count = 0;    ///< max simultaneous checkpoints
  std::uint64_t peak_bytes = 0;
};

/// Fixed-width on-disk image of StoreStats, embedded verbatim in every
/// persistent header (mmap segment, log) so the counters are
/// converted by one pair of helpers instead of a hand-copied field list per
/// header.  Growing StoreStats means extending this struct and bumping the
/// file-format versions.
struct PersistedStoreStats {
  std::uint64_t stored = 0;
  std::uint64_t collected = 0;
  std::uint64_t discarded = 0;
  std::uint64_t peak_count = 0;
  std::uint64_t peak_bytes = 0;

  static PersistedStoreStats from(const StoreStats& stats) {
    PersistedStoreStats p;
    p.stored = stats.stored;
    p.collected = stats.collected;
    p.discarded = stats.discarded;
    p.peak_count = stats.peak_count;
    p.peak_bytes = stats.peak_bytes;
    return p;
  }
  StoreStats to_stats() const {
    StoreStats stats;
    stats.stored = stored;
    stats.collected = collected;
    stats.discarded = discarded;
    stats.peak_count = static_cast<std::size_t>(peak_count);
    stats.peak_bytes = peak_bytes;
    return stats;
  }
};

/// Which persistence medium a store writes to.
enum class StorageBackendKind {
  kInMemory,       ///< flat vectors, no persistence (the reference)
  kMmapFile,       ///< one mmap'd slot segment per process
  kLogStructured,  ///< one append-only log + compaction per process
};

/// Human-readable backend name for tables, logs, and bench labels.
const char* backend_kind_name(StorageBackendKind kind);

/// How a persistent backend treats an existing file at construction.
enum class OpenMode {
  kFresh,   ///< start empty (truncate whatever the path held)
  kAttach,  ///< open the existing medium; recover() must run before use
};

/// When acknowledged mutations reach the persistent medium (see
/// durability_pipeline.hpp for the machinery and the precise crash
/// semantics; the policy is ignored by the in-memory kind, which has no
/// medium).
enum class DurabilityMode {
  /// Every mutation writes through to the medium before it returns —
  /// today's behavior and the default.  flush() is the only thing deferred
  /// (the msync/fsync durability point), exactly as before.
  kSync,
  /// Mutations are acknowledged from the in-memory mirror and batched; a
  /// GROUP COMMIT — applying the whole window to the media with coalesced
  /// writes and one sync — runs inline on the
  /// triggering operation every `every_k_ops` mutations (and, when
  /// `every_checkpoint` is set, on every put).
  kGroupCommit,
  /// As kGroupCommit, but the windows drain on a dedicated background
  /// writer thread so no mutation ever blocks on media; `every_k_ops`
  /// bounds the writer's per-pass batch.  flush() quiesces the writer.
  kBackground,
};

/// Human-readable mode name for tables, logs, and bench labels.
const char* durability_mode_name(DurabilityMode mode);

/// The latency/durability knob of a store's persistent medium.
struct DurabilityPolicy {
  DurabilityMode mode = DurabilityMode::kSync;
  /// Group-commit window: commit after this many acknowledged mutations
  /// (kBackground: the writer's per-pass batch bound).  Must be >= 1.
  std::size_t every_k_ops = 32;
  /// Additionally commit on every put() — checkpoint-granular durability
  /// with collect/discard batching (kGroupCommit only).
  bool every_checkpoint = false;

  static DurabilityPolicy Sync() { return {}; }
  static DurabilityPolicy GroupCommit(std::size_t k, bool per_checkpoint = false) {
    return {DurabilityMode::kGroupCommit, k, per_checkpoint};
  }
  static DurabilityPolicy Background(std::size_t k = 32) {
    return {DurabilityMode::kBackground, k, false};
  }
};

/// Construction-time storage choice for a ShardedCheckpointStore (and
/// through ckpt::Node::Config / harness::SystemConfig, for every process of
/// a simulated system).  `directory` must name an existing, writable
/// directory for the persistent kinds; each process writes exactly one file
/// there, so any number of processes may share one directory.
struct StorageConfig {
  StorageBackendKind kind = StorageBackendKind::kInMemory;
  std::string directory;
  OpenMode open_mode = OpenMode::kFresh;
  /// Mmap backend: slot capacity of a fresh segment (grows geometrically).
  std::size_t initial_slots = 16;
  /// Log backend: never compact below this many log records.
  std::size_t compact_min_records = 64;
  /// Log backend: compact when the dead-record fraction reaches this.
  double compact_dead_ratio = 0.5;
  /// When mutations become durable (persistent kinds only; see
  /// DurabilityMode).  The default kSync keeps every existing contract
  /// byte-for-byte.
  DurabilityPolicy durability;

  /// Segment/log path of process `owner`: directory/p<owner>.seg or .log.
  std::string store_file(ProcessId owner) const;
};

class StorageBackend {
 public:
  using Stats = StoreStats;

  virtual ~StorageBackend() = default;

  /// Owning process id.  O(1), never allocates.
  virtual ProcessId owner() const = 0;

  /// Which medium this backend writes (see StorageBackendKind).
  virtual StorageBackendKind kind() const = 0;

  /// Store a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).
  virtual void put(StoredCheckpoint checkpoint) = 0;

  /// Copy-in variant for the hot checkpoint path; the in-memory backend
  /// recycles the DV buffer of its most recent collect().
  virtual void put(CheckpointIndex index, const causality::DependencyVector& dv,
                   SimTime stored_at, std::uint64_t bytes) = 0;

  /// Membership test.  Never allocates.
  virtual bool contains(CheckpointIndex index) const = 0;

  /// Reference into the backend's in-memory index — invalidated by the next
  /// mutation; copy before interleaving.  Throws ContractViolation when
  /// absent.
  virtual const StoredCheckpoint& get(CheckpointIndex index) const = 0;

  /// Non-owning view of the stored dependency vector — the "get-DV-view" of
  /// the trait.  The mmap backend returns a view into the mapped file (so a
  /// mismatch against get().dv is a serialization bug); invalidated by the
  /// next mutation (segment growth remaps).
  virtual causality::DvView dv_view(CheckpointIndex index) const = 0;

  /// Garbage-collection elimination of an obsolete checkpoint.
  virtual void collect(CheckpointIndex index) = 0;

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4).  Returns how many were discarded.
  virtual std::size_t discard_after(CheckpointIndex ri) = 0;

  /// Currently stored indices, ascending.  Live view, invalidated by the
  /// next mutation.
  virtual const std::vector<CheckpointIndex>& stored_indices() const = 0;

  /// Highest stored index; throws ContractViolation on an empty store.
  virtual CheckpointIndex last_index() const = 0;

  /// Live checkpoints.  O(1), never allocates.
  virtual std::size_t count() const = 0;
  /// Bytes currently held.  O(1), never allocates.
  virtual std::uint64_t bytes() const = 0;

  /// Lifetime counters (see StoreStats).  O(1), never allocates.
  virtual const StoreStats& stats() const = 0;

  /// Rebuild the in-memory index (indices, DVs, stats) from the persistent
  /// medium of a backend constructed with OpenMode::kAttach; returns the
  /// number of live checkpoints afterwards.  On a backend that is already
  /// live (kFresh, in-memory, or recovered) this is a no-op returning
  /// count().
  virtual std::size_t recover() = 0;

  /// Durability point (msync/fsync); no-op for the in-memory backend.
  /// Persistent backends skip the syscall when nothing was written since
  /// the last flush (the dirty-flag contract tests/durability_test.cpp
  /// pins via the fsyncs()/msyncs() introspection counters).
  virtual void flush() = 0;

  // ---- Coalesced-batch protocol (durability pipeline drains) ----
  //
  // A DurabilityPipeline drain brackets the mutations it replays into the
  // backend with begin_batch()/end_batch(): between the two the backend may
  // buffer its medium writes, and end_batch() emits them with as few
  // syscalls as it can manage (the log backend turns a whole window of
  // records into ONE pwrite), then makes them durable when `durable` is
  // set.  The default implementation is write-through (every mutation hits
  // the medium as usual) with end_batch deferring to flush(), which is
  // correct for every backend; overriding is purely an optimization.
  // Batches never nest and end_batch always runs (the pipeline owns the
  // bracket).

  virtual void begin_batch() {}
  virtual void end_batch(bool durable) {
    if (durable) flush();
  }
};

/// Open the persistent medium `config` selects (kMmapFile or
/// kLogStructured) for process `owner`'s store.
std::unique_ptr<StorageBackend> make_backend(const StorageConfig& config,
                                             ProcessId owner);

}  // namespace rdtgc::ckpt
