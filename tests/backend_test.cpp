// Storage-backend contract tests: every persistence backend behind the
// ckpt::StorageBackend trait — in-memory flat (the reference), the process
// store in memory, mmap'd segment, log-structured — is driven through the shared
// test::RandomStoreTrace harness and must present bit-identical observable
// state (indices, counters, stats, DV contents), including across
// mid-trace reopens and after crash-style drops reopened via recover().
//
// The recovery tests close the loop to the paper: a full system run
// persists through a backend, the stores are reopened from disk alone, and
// the reconstructed recovery line and retained sets are checked against the
// Lemma-1 / Theorem-1 oracles computed from the recorded CCP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/log_backend.hpp"
#include "ckpt/mmap_backend.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"
#include "helpers.hpp"
#include "recovery/recovery_manager.hpp"
#include "util/check.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"

namespace rdtgc {
namespace {

using ckpt::CheckpointStore;
using ckpt::OpenMode;
using ckpt::ShardedCheckpointStore;
using ckpt::StorageBackendKind;
using ckpt::StorageConfig;
using test::RandomStoreTrace;
using test::ScratchDir;

StorageConfig persistent_config(StorageBackendKind kind,
                                const std::string& directory) {
  StorageConfig config;
  config.kind = kind;
  config.directory = directory;
  // Small knobs so a 400-op trace exercises segment growth and log
  // compaction, not just the happy path.
  config.initial_slots = 2;
  config.compact_min_records = 16;
  // The CI forced-policy leg re-runs this whole suite with the async
  // durability pipeline on (RDTGC_FORCE_DURABILITY=group|background).
  return test::with_forced_durability(config);
}

/// Whether the forced-policy leg put an async pipeline under the stores.
/// Unclean-drop expectations change: a pipelined store dropped mid-window
/// recovers a consistent PREFIX, not the full acknowledged state.
bool forced_async_durability() {
  const auto forced = test::forced_durability();
  return forced.has_value() && forced->mode != ckpt::DurabilityMode::kSync;
}

// ---- One trace, four backends, equal after every op -----------------------

/// The tentpole property: an identical randomized schedule through the flat
/// reference, the in-memory process store, the mmap backend, and the
/// log-structured backend yields identical observable state after every
/// operation.  `reopen_probability > 0` additionally drops and reopens the
/// persistent stores at random points (recover() mid-schedule), alternating
/// clean flushes with unclean drops.
void run_four_backend_trace(std::uint64_t seed, double reopen_probability) {
  const RandomStoreTrace trace(seed);
  CheckpointStore flat(5);
  ShardedCheckpointStore memory(5);

  ScratchDir mmap_dir("mmap_eq");
  ScratchDir log_dir("log_eq");
  StorageConfig mmap_cfg =
      persistent_config(StorageBackendKind::kMmapFile, mmap_dir.path());
  StorageConfig log_cfg =
      persistent_config(StorageBackendKind::kLogStructured, log_dir.path());
  auto mmap_store = std::make_unique<ShardedCheckpointStore>(5, mmap_cfg);
  auto log_store = std::make_unique<ShardedCheckpointStore>(5, log_cfg);
  mmap_cfg.open_mode = OpenMode::kAttach;
  log_cfg.open_mode = OpenMode::kAttach;

  util::Rng reopen_rng(seed ^ 0x5ca7c4d1ull);
  bool clean = false;
  for (const RandomStoreTrace::Op& op : trace.ops()) {
    trace.apply(op, flat);
    trace.apply(op, memory);
    trace.apply(op, *mmap_store);
    trace.apply(op, *log_store);
    test::expect_stores_equal(flat, memory);
    test::expect_stores_equal(flat, *mmap_store);
    test::expect_stores_equal(flat, *log_store);
    if (::testing::Test::HasFatalFailure()) return;

    if (reopen_probability > 0 && reopen_rng.bernoulli(reopen_probability)) {
      // Reopen-from-disk in the middle of the schedule, alternating a clean
      // close (flush) with a crash-style drop.  Under a forced async policy
      // every reopen flushes — an unclean drop would recover a prefix and
      // diverge from the flat reference; the mid-window-kill contract has
      // its own tests in durability_test.cpp.
      clean = !clean;
      if (clean || forced_async_durability()) {
        mmap_store->flush();
        log_store->flush();
      }
      mmap_store.reset();
      log_store.reset();
      mmap_store = std::make_unique<ShardedCheckpointStore>(5, mmap_cfg);
      log_store = std::make_unique<ShardedCheckpointStore>(5, log_cfg);
      ASSERT_EQ(mmap_store->recover(), flat.count());
      ASSERT_EQ(log_store->recover(), flat.count());
      test::expect_stores_equal(flat, *mmap_store);
      test::expect_stores_equal(flat, *log_store);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(BackendEquivalence, AllBackendsMatchFlatReferenceOnRandomizedTraces) {
  run_four_backend_trace(20260726, 0.0);
  run_four_backend_trace(97, 0.0);
  run_four_backend_trace(7, 0.0);
}

TEST(BackendEquivalence, MidTraceReopenSchedulesKeepEquivalence) {
  run_four_backend_trace(41, 0.05);
  run_four_backend_trace(13, 0.08);
}

// ---- Crash-style recovery at the trace level ------------------------------

void run_crash_recovery(StorageBackendKind kind, bool clean,
                        std::uint64_t seed) {
  const RandomStoreTrace trace(seed);
  CheckpointStore flat(2);
  ScratchDir dir("crash");
  StorageConfig config = persistent_config(kind, dir.path());
  auto store = std::make_unique<ShardedCheckpointStore>(2, config);
  trace.replay(flat);
  trace.replay(*store);
  if (clean) store->flush();
  store.reset();  // clean=false models a crash: no durability point ran

  config.open_mode = OpenMode::kAttach;
  ShardedCheckpointStore reopened(2, config);
  if (!clean && forced_async_durability()) {
    // Crash mid-window under the forced pipeline: the acknowledged tail is
    // gone, but what recovers must be a consistent prefix of the schedule.
    reopened.recover();
    test::expect_consistent_prefix(trace, reopened, trace.ops().size());
    return;
  }
  ASSERT_EQ(reopened.recover(), flat.count());
  test::expect_stores_equal(flat, reopened);
}

TEST(BackendRecovery, MmapRecoversAfterCleanClose) {
  run_crash_recovery(StorageBackendKind::kMmapFile, true, 101);
}
TEST(BackendRecovery, MmapRecoversAfterUncleanDrop) {
  run_crash_recovery(StorageBackendKind::kMmapFile, false, 102);
}
TEST(BackendRecovery, LogRecoversAfterCleanClose) {
  run_crash_recovery(StorageBackendKind::kLogStructured, true, 103);
}
TEST(BackendRecovery, LogRecoversAfterUncleanDrop) {
  run_crash_recovery(StorageBackendKind::kLogStructured, false, 104);
}

// ---- Direct backend behaviour ---------------------------------------------

TEST(MmapBackend, SegmentGrowsAndTracksSlots) {
  ScratchDir dir("mmap_grow");
  ckpt::MmapFileBackend backend(0, dir.path() + "/p0_s0.seg",
                                OpenMode::kFresh, 2);
  causality::DependencyVector dv(3);
  for (CheckpointIndex i = 0; i < 10; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, static_cast<SimTime>(i), 1);
  }
  EXPECT_EQ(backend.slots_used(), 10u);
  EXPECT_GE(backend.slot_capacity(), 10u);
  // Eliminations clear the live flag in place: no new slots.
  backend.collect(3);
  backend.collect(7);
  EXPECT_EQ(backend.slots_used(), 10u);
  EXPECT_EQ(backend.count(), 8u);
  // The zero-copy view reads the mapped file, and must equal the mirror.
  dv.at(1) = 9;
  EXPECT_TRUE(backend.dv_view(9) == dv);
  EXPECT_EQ(backend.get(9).dv, dv);
}

TEST(MmapBackend, DeadSlotsAreCompactedInPlaceSoTheSegmentStaysBounded) {
  // Sliding-window churn with a live set of ~4: without reclamation the
  // segment would grow with total history; the in-place compaction (slide
  // the live slots to the front when half are dead) must bound both the
  // capacity and the recover() scan at ~2x the live set.
  ScratchDir dir("mmap_bound");
  const std::string path = dir.path() + "/p0_s0.seg";
  CheckpointStore reference(0);
  ckpt::MmapFileBackend backend(0, path, OpenMode::kFresh, 4);
  causality::DependencyVector dv(3);
  constexpr CheckpointIndex kWindow = 4;
  for (CheckpointIndex i = 0; i < kWindow; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
  }
  for (CheckpointIndex i = kWindow; i < 500; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
    backend.collect(i - kWindow);
    reference.collect(i - kWindow);
  }
  EXPECT_LE(backend.slot_capacity(), 4u * kWindow)
      << "dead slots were never reclaimed";
  EXPECT_LE(backend.slots_used(), backend.slot_capacity());
  test::expect_stores_equal(reference, backend);

  // The compacted segment still recovers exactly.
  ckpt::MmapFileBackend reopened(0, path, OpenMode::kAttach, 4);
  EXPECT_EQ(reopened.recover(), reference.count());
  test::expect_stores_equal(reference, reopened);
}

TEST(MmapBackend, CleanFlagSurvivesExactlyUntilTheNextMutation) {
  ScratchDir dir("mmap_clean");
  const std::string path = dir.path() + "/p0_s0.seg";
  causality::DependencyVector dv(2);
  {
    ckpt::MmapFileBackend backend(0, path, OpenMode::kFresh, 2);
    backend.put(0, dv, 0, 1);
    backend.flush();  // clean close
  }
  {
    ckpt::MmapFileBackend backend(0, path, OpenMode::kAttach, 2);
    EXPECT_EQ(backend.recover(), 1u);
    EXPECT_TRUE(backend.recovered_clean());
    backend.put(1, dv, 1, 1);  // mutation invalidates the clean shutdown
  }  // dropped WITHOUT flush
  {
    ckpt::MmapFileBackend backend(0, path, OpenMode::kAttach, 2);
    EXPECT_EQ(backend.recover(), 2u);
    EXPECT_FALSE(backend.recovered_clean());
    EXPECT_TRUE(backend.contains(1));
  }
}

TEST(MmapBackend, MutationsBeforeRecoverAreRejected) {
  ScratchDir dir("mmap_pending");
  const std::string path = dir.path() + "/p0_s0.seg";
  causality::DependencyVector dv(2);
  {
    ckpt::MmapFileBackend backend(0, path, OpenMode::kFresh, 2);
    backend.put(0, dv, 0, 1);
  }
  ckpt::MmapFileBackend backend(0, path, OpenMode::kAttach, 2);
  EXPECT_THROW(backend.put(1, dv, 1, 1), util::ContractViolation);
  EXPECT_EQ(backend.recover(), 1u);
  backend.put(1, dv, 1, 1);  // fine now
  EXPECT_EQ(backend.recover(), 2u);  // idempotent no-op on a live backend
}

TEST(LogBackend, CompactionBoundsTheLogAndPreservesState) {
  ScratchDir dir("log_compact");
  const std::string path = dir.path() + "/p0_s0.log";
  CheckpointStore reference(0);
  ckpt::LogStructuredBackend backend(0, path, OpenMode::kFresh,
                                     /*compact_min_records=*/8,
                                     /*compact_dead_ratio=*/0.5);
  causality::DependencyVector dv(3);
  // Sliding-window churn: every put is followed by the elimination of an
  // index a fixed distance behind — the RDT-LGC steady state that fills a
  // log with dead records.
  constexpr CheckpointIndex kWindow = 4;
  for (CheckpointIndex i = 0; i < kWindow; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
  }
  for (CheckpointIndex i = kWindow; i < 200; ++i) {
    dv.at(1) = i;
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
    backend.collect(i - kWindow);
    reference.collect(i - kWindow);
  }
  EXPECT_GT(backend.compactions(), 0u);
  // 392 mutations ran; compaction keeps the log near the live set's size
  // instead (bounded by the compaction trigger, not the history length).
  EXPECT_LT(backend.log_records(), 2u * 8u + kWindow);
  test::expect_stores_equal(reference, backend);

  // And the compacted log still replays exactly — stats snapshot included.
  backend.flush();
  ckpt::LogStructuredBackend reopened(0, path, OpenMode::kAttach, 8, 0.5);
  EXPECT_EQ(reopened.recover(), reference.count());
  test::expect_stores_equal(reference, reopened);
  EXPECT_EQ(reopened.baseline_records(), backend.baseline_records());
}

TEST(LogBackend, CompactionOfAnEmptyLiveSetKeepsItsCounters) {
  // Regression: a compaction that finds no live checkpoint writes a
  // zero-record baseline, and recover() must still adopt the header's
  // counter snapshot instead of recounting from the post-compaction tail.
  ScratchDir dir("log_empty_compact");
  const std::string path = dir.path() + "/p0.log";
  CheckpointStore reference(0);
  ckpt::LogStructuredBackend backend(0, path, OpenMode::kFresh,
                                     /*compact_min_records=*/4,
                                     /*compact_dead_ratio=*/0.5);
  causality::DependencyVector dv(3);
  for (CheckpointIndex i = 0; i < 3; ++i) {
    backend.put(i, dv, 0, 1);
    reference.put(i, dv, 0, 1);
  }
  backend.discard_after(-1);  // empties the store: compacts to nothing
  reference.discard_after(-1);
  ASSERT_EQ(backend.compactions(), 1u);
  ASSERT_EQ(backend.baseline_records(), 0u);
  backend.put(0, dv, 1, 1);  // a tail record after the empty baseline
  reference.put(0, dv, 1, 1);
  backend.flush();

  ckpt::LogStructuredBackend reopened(0, path, OpenMode::kAttach, 4, 0.5);
  EXPECT_EQ(reopened.recover(), reference.count());
  test::expect_stores_equal(reference, reopened);
}

// ---- Whole-system runs over persistent storage ----------------------------

/// A complete randomized workload writes its checkpoints through `kind`;
/// the simulation outcome must be identical to the in-memory run (storage
/// is an implementation detail below the middleware), the RDT-LGC optimum
/// must hold (Corollary 1), and reopening the stores from disk alone must
/// reproduce the stored sets and the Lemma-1 recovery line.
void run_system_recovery(StorageBackendKind kind, bool clean) {
  ScratchDir dir("system");
  test::RunSpec spec;
  spec.n = 4;
  spec.duration = 3000;
  spec.seed = 17;
  spec.storage = persistent_config(kind, dir.path());
  const auto system = test::run_workload(spec);

  test::RunSpec memory_spec = spec;
  memory_spec.storage = StorageConfig();
  const auto memory_system = test::run_workload(memory_spec);

  const auto n = static_cast<ProcessId>(spec.n);
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_EQ(system->node(p).store().stored_indices(),
              memory_system->node(p).store().stored_indices())
        << "persistent backend perturbed the simulation, p" << p;
    ASSERT_EQ(system->node(p).counters().forced_checkpoints,
              memory_system->node(p).counters().forced_checkpoints);
  }
  test::audit_exact_corollary1(*system);
  test::audit_bounds(*system);

  // Under the forced async pipeline an unclean stop would recover each
  // process at a DIFFERENT earlier point of its lineage, and the
  // end-of-run oracles below would not apply; durability_test.cpp audits
  // that crash-cut against the oracle on its own schedule, so this test
  // always flushes there.
  if (clean || forced_async_durability())
    for (ProcessId p = 0; p < n; ++p) system->node(p).store().flush();

  // Reopen every process's store from the directory alone and recover.
  StorageConfig attach = spec.storage;
  attach.open_mode = OpenMode::kAttach;
  std::vector<std::unique_ptr<ShardedCheckpointStore>> reopened;
  std::vector<const ShardedCheckpointStore*> reopened_ptrs;
  for (ProcessId p = 0; p < n; ++p) {
    reopened.push_back(std::make_unique<ShardedCheckpointStore>(p, attach));
    reopened.back()->recover();
    test::expect_stores_equal(system->node(p).store(), *reopened.back());
    reopened_ptrs.push_back(reopened.back().get());
  }
  if (::testing::Test::HasFatalFailure()) return;

  // GC verdict from the Theorem-1 oracle: everything non-obsolete in the
  // recorded CCP must be present in the RECOVERED stores.
  const ccp::DvPrecedence causal(system->recorder());
  const auto obsolete = ccp::obsolete_theorem1(system->recorder(), causal);
  for (ProcessId p = 0; p < n; ++p) {
    const auto& flags = obsolete[static_cast<std::size_t>(p)];
    for (CheckpointIndex g = 0;
         g < static_cast<CheckpointIndex>(flags.size()); ++g) {
      if (!flags[static_cast<std::size_t>(g)]) {
        ASSERT_TRUE(reopened_ptrs[static_cast<std::size_t>(p)]->contains(g))
            << "non-obsolete s_" << p << "^" << g
            << " missing after recover()";
      }
    }
  }

  // The restart-from-disk recovery line equals the Lemma-1 oracle line for
  // the all-faulty set, capped at the last stored checkpoint (no volatile
  // state survives a full restart).
  const std::vector<CheckpointIndex> line =
      recovery::recovery_line_from_storage(reopened_ptrs);
  std::vector<bool> all_faulty(spec.n, true);
  const std::vector<CheckpointIndex> oracle =
      ccp::recovery_line_lemma1(system->recorder(), causal, all_faulty);
  for (std::size_t p = 0; p < spec.n; ++p) {
    EXPECT_EQ(line[p],
              std::min(oracle[p], reopened_ptrs[p]->last_index()))
        << "recovery line from storage diverges from Lemma 1 at p" << p;
  }
}

TEST(BackendRecovery, SystemRestartFromMmapMatchesOracles) {
  run_system_recovery(StorageBackendKind::kMmapFile, true);
}
TEST(BackendRecovery, SystemRestartFromMmapAfterUncleanStop) {
  run_system_recovery(StorageBackendKind::kMmapFile, false);
}
TEST(BackendRecovery, SystemRestartFromLogMatchesOracles) {
  run_system_recovery(StorageBackendKind::kLogStructured, true);
}
TEST(BackendRecovery, SystemRestartFromLogAfterUncleanStop) {
  run_system_recovery(StorageBackendKind::kLogStructured, false);
}

// ---- Restart-from-disk edge cases -----------------------------------------
//
// recovery_line_from_storage() and the kAttach open path sit on the warm
// restart critical path (ckpt::Node attach); the failure modes below must be
// loud errors, never a silently empty line.

/// Attaching where no store file exists must fail with an I/O error at
/// construction — there is nothing to recover, and a silently empty store
/// would fabricate a lineage.  Covers both a directory no store ever wrote
/// and a persisted store whose file was deleted out from under it.  Also
/// pins the layout: a persistent store leaves exactly one file per process.
void attach_empty_directory(StorageBackendKind kind) {
  ScratchDir dir("attach_empty");
  StorageConfig config = persistent_config(kind, dir.path());
  StorageConfig attach = config;
  attach.open_mode = OpenMode::kAttach;
  EXPECT_THROW(ShardedCheckpointStore(0, attach), util::IoError);

  {
    ShardedCheckpointStore store(0, config);
    causality::DependencyVector dv(3);
    for (CheckpointIndex g = 0; g < 40; ++g) {
      dv.at(0) = g;
      store.put(g, dv, static_cast<SimTime>(g + 1), 64);
      if (g >= 4) store.collect(g - 4);  // churn: segment growth, compaction
    }
    store.flush();
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path()))
    files.push_back(entry.path().string());
  ASSERT_EQ(files, std::vector<std::string>{config.store_file(0)});

  ASSERT_EQ(std::remove(config.store_file(0).c_str()), 0);
  EXPECT_THROW(ShardedCheckpointStore(0, attach), util::IoError);
}

TEST(BackendRecoveryEdge, AttachEmptyDirectoryMmap) {
  attach_empty_directory(StorageBackendKind::kMmapFile);
}
TEST(BackendRecoveryEdge, AttachEmptyDirectoryLog) {
  attach_empty_directory(StorageBackendKind::kLogStructured);
}

/// A store whose every checkpoint was collected before the crash: the media
/// open and recover() succeed (zero live records is a valid on-disk state),
/// but a recovery line cannot be built over an empty lineage — the contract
/// fires instead of fabricating index 0.
void attach_zero_survivors(StorageBackendKind kind) {
  ScratchDir dir("attach_barren");
  StorageConfig config = persistent_config(kind, dir.path());
  {
    ShardedCheckpointStore store(0, config);
    causality::DependencyVector dv(3);
    for (CheckpointIndex g = 0; g < 8; ++g) {
      dv.at(0) = g;
      store.put(g, dv, static_cast<SimTime>(g + 1), 64);
    }
    for (CheckpointIndex g = 0; g < 8; ++g) store.collect(g);
    ASSERT_EQ(store.count(), 0u);
    store.flush();
  }
  config.open_mode = OpenMode::kAttach;
  ShardedCheckpointStore reopened(0, config);
  EXPECT_EQ(reopened.recover(), 0u);
  const std::vector<const ShardedCheckpointStore*> stores = {&reopened};
  EXPECT_THROW(recovery::recovery_line_from_storage(stores),
               util::ContractViolation);
}

TEST(BackendRecoveryEdge, ZeroSurvivingCheckpointsMmap) {
  attach_zero_survivors(StorageBackendKind::kMmapFile);
}
TEST(BackendRecoveryEdge, ZeroSurvivingCheckpointsLog) {
  attach_zero_survivors(StorageBackendKind::kLogStructured);
}

/// No stores at all is a caller bug, not an empty line.
TEST(BackendRecoveryEdge, NoStoresRejected) {
  const std::vector<const ShardedCheckpointStore*> stores;
  EXPECT_THROW(recovery::recovery_line_from_storage(stores),
               util::ContractViolation);
}

}  // namespace
}  // namespace rdtgc
