// The async durability pipeline's contract suite (ckpt/durability_pipeline.hpp).
//
// What is certified here, mapped to the machinery:
//  * policy equivalence — under kGroupCommit/kBackground every read and
//    every counter still matches the flat reference after every op (the
//    acked mirror serves reads), and a flushed store recovers bit-identical;
//  * group-commit window math — a window of k ops reaches the medium as ONE
//    fsync (log) / ONE msync (mmap), pinned via the
//    backends' introspection counters and the pipeline's commits();
//  * dirty-flag skip — flush() with nothing written issues no syscall
//    (regression for the fsyncs()/msyncs() counters);
//  * flush error paths — an injected fsync/msync failure surfaces as
//    util::IoError with mirror and medium still coherent;
//  * log compaction — the rename over the log is followed by a directory
//    fsync, whose failure surfaces as util::IoError and is retried;
//  * kill inside the window — dropping a store mid-window recovers a
//    consistent PREFIX of the acknowledged schedule: deterministic (the last
//    commit boundary) under kGroupCommit, some drain boundary under
//    kBackground, across randomized kill schedules on both media;
//  * system-level crash cut — an unclean stop of a whole simulated system
//    mid-window loses only each process's open window: every checkpoint the
//    end-of-run Theorem-1 oracle calls non-obsolete that lies below a
//    process's crash cut is still on its medium (obsoleteness is monotone,
//    so the durable prefix can never have collected it);
//  * the metrics::DurabilityLag probe and the sweep-summary plumbing.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/log_backend.hpp"
#include "ckpt/mmap_backend.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "metrics/durability_lag.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rdtgc {
namespace {

using ckpt::CheckpointStore;
using ckpt::DurabilityPolicy;
using ckpt::LogStructuredBackend;
using ckpt::MmapFileBackend;
using ckpt::OpenMode;
using ckpt::ShardedCheckpointStore;
using ckpt::StorageBackendKind;
using ckpt::StorageConfig;
using test::RandomStoreTrace;
using test::ScratchDir;

StorageConfig async_config(StorageBackendKind kind, const std::string& dir,
                           DurabilityPolicy policy) {
  StorageConfig config;
  config.kind = kind;
  config.directory = dir;
  config.initial_slots = 2;        // exercise segment growth
  config.compact_min_records = 16; // and log compaction inside windows
  config.durability = policy;
  return config;
}

const StorageBackendKind kPersistentKinds[] = {
    StorageBackendKind::kMmapFile,
    StorageBackendKind::kLogStructured,
};

// ---- Policy equivalence ---------------------------------------------------

/// The acked mirror serves every read, so a pipelined store must match the
/// flat reference after EVERY op — under any policy — and, once flushed,
/// recover bit-identical from the media with the lag collapsed to zero.
TEST(DurabilityEquivalence, AckedStateMatchesFlatReferenceUnderEveryPolicy) {
  const DurabilityPolicy policies[] = {
      DurabilityPolicy::GroupCommit(4),
      DurabilityPolicy::GroupCommit(16, /*per_checkpoint=*/true),
      DurabilityPolicy::Background(4),
  };
  for (const StorageBackendKind kind : kPersistentKinds) {
    for (const DurabilityPolicy& policy : policies) {
      const RandomStoreTrace trace(20260808);
      CheckpointStore flat(3);
      ScratchDir dir("policy_eq");
      StorageConfig config = async_config(kind, dir.path(), policy);
      auto store = std::make_unique<ShardedCheckpointStore>(3, config);
      ASSERT_TRUE(store->pipelined());

      for (const RandomStoreTrace::Op& op : trace.ops()) {
        trace.apply(op, flat);
        trace.apply(op, *store);
        test::expect_stores_equal(flat, *store);
        if (::testing::Test::HasFatalFailure()) return;
      }

      store->flush();
      EXPECT_EQ(store->durability().lag_ops(), 0u);
      store.reset();

      config.open_mode = OpenMode::kAttach;
      ShardedCheckpointStore reopened(3, config);
      ASSERT_EQ(reopened.recover(), flat.count());
      test::expect_stores_equal(flat, reopened);
      // reset_after_recover: the recovered store reports zero lag and a
      // synced index equal to the acked one.
      const ckpt::DurabilityStatus status = reopened.durability();
      EXPECT_EQ(status.lag_ops(), 0u);
      EXPECT_EQ(status.acked_index, status.synced_index);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---- Group-commit window math ---------------------------------------------

/// k puts through a log store must reach the medium as ONE
/// coalesced pwrite + fsync per window, with the lag counting the open tail.
TEST(GroupCommitWindow, LogCoalescesKOpsIntoOneFsync) {
  constexpr std::size_t kEvery = 4;
  ScratchDir dir("gc_log");
  const StorageConfig config =
      async_config(StorageBackendKind::kLogStructured, dir.path(),
                   DurabilityPolicy::GroupCommit(kEvery));
  ShardedCheckpointStore store(0, config);
  const auto& log =
      dynamic_cast<const LogStructuredBackend&>(store.durable_backend());
  const std::uint64_t fsyncs_before = log.fsyncs();

  causality::DependencyVector dv(4);
  for (CheckpointIndex i = 0; i < 10; ++i) store.put(i, dv, 0, 1);

  // 10 ops, window 4: two commits fired (at op 4 and op 8), two ops remain
  // acked-but-unsynced, and each commit cost exactly one fsync.
  ASSERT_NE(store.pipeline(), nullptr);
  EXPECT_EQ(store.pipeline()->commits(), 2u);
  EXPECT_EQ(log.fsyncs() - fsyncs_before, 2u);
  const ckpt::DurabilityStatus status = store.durability();
  EXPECT_EQ(status.acked_ops, 10u);
  EXPECT_EQ(status.synced_ops, 8u);
  EXPECT_EQ(status.lag_ops(), 2u);
  EXPECT_EQ(status.acked_index, 9);
  EXPECT_EQ(status.synced_index, 7);
  EXPECT_EQ(store.durable_backend().count(), 8u);
  EXPECT_EQ(store.count(), 10u);  // reads come from the acked mirror
}

/// Same window math on the mmap backend: the drain's mutations are mapped
/// writes and the commit pays one msync, deferred from the hot path.
TEST(GroupCommitWindow, MmapDefersMsyncToTheCommit) {
  constexpr std::size_t kEvery = 4;
  ScratchDir dir("gc_mmap");
  const StorageConfig config =
      async_config(StorageBackendKind::kMmapFile, dir.path(),
                   DurabilityPolicy::GroupCommit(kEvery));
  ShardedCheckpointStore store(0, config);
  const auto& mmap =
      dynamic_cast<const MmapFileBackend&>(store.durable_backend());
  const std::uint64_t msyncs_before = mmap.msyncs();

  causality::DependencyVector dv(4);
  for (CheckpointIndex i = 0; i < 9; ++i) store.put(i, dv, 0, 1);

  EXPECT_EQ(store.pipeline()->commits(), 2u);
  EXPECT_EQ(mmap.msyncs() - msyncs_before, 2u);
  EXPECT_EQ(store.durability().lag_ops(), 1u);
  EXPECT_EQ(store.durable_backend().count(), 8u);
}

/// every_checkpoint: each put closes the window immediately (checkpoint-
/// granular durability) while collects batch until the next put.
TEST(GroupCommitWindow, EveryCheckpointCommitsOnPutsAndBatchesCollects) {
  ScratchDir dir("gc_everyckpt");
  const StorageConfig config = async_config(
      StorageBackendKind::kLogStructured, dir.path(),
      DurabilityPolicy::GroupCommit(64, /*per_checkpoint=*/true));
  ShardedCheckpointStore store(0, config);
  causality::DependencyVector dv(4);

  store.put(0, dv, 0, 1);
  EXPECT_EQ(store.durability().lag_ops(), 0u);  // put committed inline
  EXPECT_EQ(store.pipeline()->commits(), 1u);

  store.collect(0);
  EXPECT_EQ(store.durability().lag_ops(), 1u);  // collects wait for a put

  store.put(1, dv, 0, 1);  // drains the batched collect AND this put
  EXPECT_EQ(store.durability().lag_ops(), 0u);
  EXPECT_EQ(store.pipeline()->commits(), 2u);
  EXPECT_EQ(store.durable_backend().count(), 1u);
}

/// flush() quiesces the pipeline: acked == synced afterwards and the
/// durable backend mirrors the acked state exactly.
TEST(GroupCommitWindow, FlushQuiescesAndDropsLagToZero) {
  ScratchDir dir("gc_flush");
  const StorageConfig config =
      async_config(StorageBackendKind::kLogStructured, dir.path(),
                   DurabilityPolicy::Background(8));
  ShardedCheckpointStore store(0, config);
  causality::DependencyVector dv(4);
  for (CheckpointIndex i = 0; i < 37; ++i) store.put(i, dv, 0, 1);
  for (CheckpointIndex i = 0; i < 37; i += 3) store.collect(i);

  store.flush();
  const ckpt::DurabilityStatus status = store.durability();
  EXPECT_EQ(status.lag_ops(), 0u);
  EXPECT_EQ(status.acked_index, status.synced_index);
  EXPECT_EQ(store.durable_backend().stored_indices(), store.stored_indices());
  EXPECT_EQ(store.durable_backend().count(), store.count());
}

// ---- Dirty-flag flush skip (regression) -----------------------------------

TEST(DirtyFlag, LogFlushSkipsFsyncWhenClean) {
  ScratchDir dir("dirty_log");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  LogStructuredBackend log(0, config.store_file(0), OpenMode::kFresh, 64,
                           0.5);
  causality::DependencyVector dv(4);

  log.put(0, dv, 0, 1);
  log.flush();
  const std::uint64_t after_first = log.fsyncs();
  EXPECT_GE(after_first, 1u);

  log.flush();  // nothing written since: no syscall
  log.flush();
  EXPECT_EQ(log.fsyncs(), after_first);

  log.collect(0);  // any mutation re-arms the flag
  log.flush();
  EXPECT_EQ(log.fsyncs(), after_first + 1);
}

TEST(DirtyFlag, MmapFlushSkipsMsyncWhenClean) {
  ScratchDir dir("dirty_mmap");
  StorageConfig config;
  config.kind = StorageBackendKind::kMmapFile;
  config.directory = dir.path();
  MmapFileBackend mmap(0, config.store_file(0), OpenMode::kFresh, 4);
  causality::DependencyVector dv(4);

  mmap.put(0, dv, 0, 1);
  mmap.flush();
  const std::uint64_t after_first = mmap.msyncs();
  EXPECT_GE(after_first, 1u);

  mmap.flush();  // segment unchanged and already marked clean: no msync
  mmap.flush();
  EXPECT_EQ(mmap.msyncs(), after_first);

  mmap.collect(0);
  mmap.flush();
  EXPECT_EQ(mmap.msyncs(), after_first + 1);
}

// ---- Injected flush failures ----------------------------------------------

TEST(FlushErrors, LogFsyncFailureSurfacesAsIoErrorAndKeepsStateCoherent) {
  ScratchDir dir("err_log");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  const std::string path = config.store_file(0);
  {
    LogStructuredBackend log(0, path, OpenMode::kFresh, 64, 0.5);
    causality::DependencyVector dv(4);
    log.put(0, dv, 0, 1);

    util::set_io_fsync_for_test(+[](int) {
      errno = EIO;
      return -1;
    });
    EXPECT_THROW(log.flush(), util::IoError);
    util::set_io_fsync_for_test(nullptr);

    // The mirror is untouched and the log stays dirty: the retry issues a
    // real fsync and succeeds.
    EXPECT_EQ(log.count(), 1u);
    EXPECT_TRUE(log.contains(0));
    const std::uint64_t before_retry = log.fsyncs();
    log.flush();
    EXPECT_EQ(log.fsyncs(), before_retry + 1);
  }
  LogStructuredBackend reopened(0, path, OpenMode::kAttach, 64, 0.5);
  ASSERT_EQ(reopened.recover(), 1u);
  EXPECT_TRUE(reopened.contains(0));
}

TEST(FlushErrors, MmapMsyncFailureSurfacesAsIoErrorAndRollsTheCleanFlagBack) {
  ScratchDir dir("err_mmap");
  StorageConfig config;
  config.kind = StorageBackendKind::kMmapFile;
  config.directory = dir.path();
  const std::string path = config.store_file(0);
  {
    MmapFileBackend mmap(0, path, OpenMode::kFresh, 4);
    causality::DependencyVector dv(4);
    mmap.put(0, dv, 0, 1);

    util::set_io_msync_for_test(+[](void*, std::size_t, int) {
      errno = EIO;
      return -1;
    });
    EXPECT_THROW(mmap.flush(), util::IoError);
    util::set_io_msync_for_test(nullptr);
    EXPECT_EQ(mmap.count(), 1u);  // mirror coherent after the failure
  }
  {
    // The failed flush must NOT have left a clean flag the medium never
    // got: the reopen sees an unclean segment (contents still recover —
    // the page cache survived this in-process "crash").
    MmapFileBackend reopened(0, path, OpenMode::kAttach, 4);
    ASSERT_EQ(reopened.recover(), 1u);
    EXPECT_FALSE(reopened.recovered_clean());
    reopened.flush();
  }
  MmapFileBackend clean(0, path, OpenMode::kAttach, 4);
  ASSERT_EQ(clean.recover(), 1u);
  EXPECT_TRUE(clean.recovered_clean());
}

// ---- Log compaction makes its rename durable -------------------------------

/// fsync override for the compaction tests: counts the directory fds it is
/// handed (fstat tells them apart from the log's own fd) and, when armed,
/// fails exactly those with EIO.
std::uint64_t g_dir_fsyncs = 0;
bool g_fail_dir_fsync = false;

int directory_recording_fsync(int fd) {
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISDIR(st.st_mode)) {
    ++g_dir_fsyncs;
    if (g_fail_dir_fsync) {
      errno = EIO;
      return -1;
    }
  }
  return ::fsync(fd);
}

/// Installs directory_recording_fsync for one scope.
struct DirectoryFsyncRecorder {
  explicit DirectoryFsyncRecorder(bool fail) {
    g_dir_fsyncs = 0;
    g_fail_dir_fsync = fail;
    util::set_io_fsync_for_test(&directory_recording_fsync);
  }
  ~DirectoryFsyncRecorder() { util::set_io_fsync_for_test(nullptr); }
  DirectoryFsyncRecorder(const DirectoryFsyncRecorder&) = delete;
  DirectoryFsyncRecorder& operator=(const DirectoryFsyncRecorder&) = delete;
};

/// Sliding-window churn on a log that compacts every few records: returns
/// the index of the first collect that threw util::IoError, or -1.
CheckpointIndex churn_until_io_error(LogStructuredBackend& log) {
  causality::DependencyVector dv(3);
  for (CheckpointIndex i = 0; i < 32; ++i) {
    dv.at(1) = i;
    log.put(i, dv, 0, 1);
    if (i < 2) continue;
    try {
      log.collect(i - 2);
    } catch (const util::IoError&) {
      return i - 2;
    }
  }
  return -1;
}

/// Under POSIX an fsync of the renamed file does not make the rename itself
/// durable (Pillai et al., OSDI 2014): every compaction must also fsync the
/// directory that holds the log.
TEST(LogCompaction, RenameIsFollowedByADirectoryFsync) {
  ScratchDir dir("compact_dirsync");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  LogStructuredBackend log(0, config.store_file(0), OpenMode::kFresh,
                           /*compact_min_records=*/8,
                           /*compact_dead_ratio=*/0.5);
  DirectoryFsyncRecorder recorder(/*fail=*/false);
  ASSERT_EQ(churn_until_io_error(log), -1);
  ASSERT_GT(log.compactions(), 0u);
  EXPECT_EQ(g_dir_fsyncs, log.compactions())
      << "a compaction renamed over the log without syncing its directory";
}

/// A failing directory fsync surfaces as util::IoError; the collect that
/// triggered the compaction is applied, and the next flush() retries the
/// directory sync.
TEST(LogCompaction, FailedDirectoryFsyncSurfacesAsIoErrorAndIsRetried) {
  ScratchDir dir("compact_dirsync_err");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  const std::string path = config.store_file(0);
  CheckpointIndex failed = -1;
  std::vector<CheckpointIndex> live;
  {
    LogStructuredBackend log(0, path, OpenMode::kFresh, 8, 0.5);
    {
      DirectoryFsyncRecorder recorder(/*fail=*/true);
      failed = churn_until_io_error(log);
      ASSERT_GE(failed, 0) << "no compaction ran";
      EXPECT_EQ(g_dir_fsyncs, 1u);
      EXPECT_FALSE(log.contains(failed));  // the collect itself is applied
    }
    live = log.stored_indices();
    DirectoryFsyncRecorder recorder(/*fail=*/false);
    log.flush();
    EXPECT_EQ(g_dir_fsyncs, 1u) << "flush() did not retry the directory sync";
    log.flush();
    EXPECT_EQ(g_dir_fsyncs, 1u);  // and only once
  }
  LogStructuredBackend reopened(0, path, OpenMode::kAttach, 8, 0.5);
  reopened.recover();
  EXPECT_EQ(reopened.stored_indices(), live);
}

// ---- Kill inside the window -----------------------------------------------

/// kGroupCommit is deterministic: inline commits fire every k ops, so a
/// drop mid-window recovers EXACTLY the last commit boundary's prefix.
TEST(KillInsideWindow, GroupCommitRecoversExactlyTheLastCommittedWindow) {
  constexpr std::size_t kEvery = 4;
  for (const StorageBackendKind kind : kPersistentKinds) {
    util::Rng rng(0x9e3779b9ull ^ static_cast<std::uint64_t>(kind));
    for (int round = 0; round < 4; ++round) {
      const RandomStoreTrace trace(7000 + round);
      const std::size_t kill = 1 + rng.uniform(trace.ops().size());
      const std::size_t boundary = (kill / kEvery) * kEvery;

      ScratchDir dir("kill_gc");
      StorageConfig config = async_config(kind, dir.path(),
                                          DurabilityPolicy::GroupCommit(kEvery));
      auto store = std::make_unique<ShardedCheckpointStore>(1, config);
      trace.replay_prefix(*store, kill);
      store.reset();  // crash: the open window is discarded

      config.open_mode = OpenMode::kAttach;
      ShardedCheckpointStore reopened(1, config);
      reopened.recover();
      const std::size_t prefix =
          test::expect_consistent_prefix(trace, reopened, kill, boundary);
      EXPECT_EQ(prefix, boundary)
          << backend_kind_name(kind) << " kill=" << kill;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// The tentpole crash property: randomized kill schedules inside open
/// windows, on both media and under every async policy, always recover to
/// a consistent prefix of the acknowledged schedule — never a reordering,
/// never a gap.  (kBackground cuts at whatever drain boundary the writer
/// reached, so only SOME-prefix is asserted there.)
TEST(KillInsideWindow, RandomizedKillsRecoverAConsistentPrefix) {
  const DurabilityPolicy policies[] = {
      DurabilityPolicy::GroupCommit(4),
      DurabilityPolicy::GroupCommit(16, /*per_checkpoint=*/true),
      DurabilityPolicy::Background(3),
  };
  util::Rng rng(0xabad1deaull);
  for (const StorageBackendKind kind : kPersistentKinds) {
    for (const DurabilityPolicy& policy : policies) {
      for (int round = 0; round < 3; ++round) {
        const RandomStoreTrace trace(9100 + round);
        const std::size_t kill = 1 + rng.uniform(trace.ops().size());

        ScratchDir dir("kill_rand");
        StorageConfig config = async_config(kind, dir.path(), policy);
        auto store = std::make_unique<ShardedCheckpointStore>(2, config);
        trace.replay_prefix(*store, kill);
        store.reset();

        config.open_mode = OpenMode::kAttach;
        ShardedCheckpointStore reopened(2, config);
        reopened.recover();
        test::expect_consistent_prefix(trace, reopened, kill);
        EXPECT_EQ(reopened.durability().lag_ops(), 0u);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ---- System-level crash cut against the paper's oracles -------------------

/// An unclean stop of a whole simulated system mid-window.  Each process's
/// store recovers the state at SOME earlier point of its own acknowledged
/// history (its crash cut), so the end-of-run Theorem-1 oracle certifies
/// the cut via obsoleteness monotonicity: a checkpoint non-obsolete at the
/// end of the run was non-obsolete at every earlier moment it existed, so
/// Theorem-1 GC can never have collected it — every non-obsolete
/// checkpoint BELOW the cut must have survived the crash.
///
/// Deliberately NOT asserted: a joint recovery line across the recovered
/// stores.  The pipeline guarantees a consistent prefix PER PROCESS, not a
/// consistent durable frontier ACROSS processes — one process's crash cut
/// can regress behind what its peers' Theorem-1 GC (which ran against
/// acknowledged state) assumed durable, which is exactly the stable-storage
/// model gap metrics::DurabilityLag quantifies (see docs/PAPER_MAP.md).
TEST(SystemCrash, MidWindowKillKeepsEveryNonObsoleteCheckpointBelowTheCut) {
  for (const StorageBackendKind kind : kPersistentKinds) {
    ScratchDir dir("system_crash");
    test::RunSpec spec;
    spec.n = 4;
    spec.duration = 3000;
    spec.seed = 29;
    spec.storage = async_config(kind, dir.path(),
                                DurabilityPolicy::GroupCommit(32));
    auto system = test::run_workload(spec);
    const auto n = static_cast<ProcessId>(spec.n);

    // Oracle artifacts, computed while the recorder is still alive.
    const ccp::CausalGraph causal(system->recorder());
    const auto obsolete = ccp::obsolete_theorem1(system->recorder(), causal);
    std::vector<CheckpointIndex> last_stable(spec.n);
    for (ProcessId p = 0; p < n; ++p)
      last_stable[static_cast<std::size_t>(p)] =
          system->recorder().last_stable(p);

    system.reset();  // unclean stop: every pipeline's open window is gone

    StorageConfig attach = spec.storage;
    attach.open_mode = OpenMode::kAttach;
    for (ProcessId p = 0; p < n; ++p) {
      ShardedCheckpointStore reopened(p, attach);
      reopened.recover();
      ASSERT_GT(reopened.count(), 0u);  // s^0 is flushed at start_fresh

      // The recovered lineage is a prefix of the acknowledged one...
      const CheckpointIndex cut = reopened.last_index();
      EXPECT_LE(cut, last_stable[static_cast<std::size_t>(p)]);

      // ...and Theorem-1 safety holds below the cut: anything the oracle
      // calls non-obsolete (over the FULL recorded CCP) that was taken by
      // the cut must still be stored — the durable prefix replays collects
      // in acknowledgment order, and none of them can have touched it.
      const auto& flags = obsolete[static_cast<std::size_t>(p)];
      for (CheckpointIndex g = 0; g <= cut; ++g) {
        if (!flags[static_cast<std::size_t>(g)]) {
          EXPECT_TRUE(reopened.contains(g))
              << backend_kind_name(kind) << ": non-obsolete s_" << p << "^"
              << g << " below the crash cut " << cut << " is missing";
        }
      }
    }
  }
}

// ---- metrics::DurabilityLag -----------------------------------------------

TEST(DurabilityLagProbe, CertifiesZeroLagUnderSyncPolicy) {
  harness::SystemConfig config;
  config.process_count = 4;
  config.seed = 5;
  harness::System system(config);  // in-memory storage: no pipeline

  workload::WorkloadConfig wl;
  wl.seed = 55;
  wl.checkpoint_probability = 0.2;
  workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(), wl);
  driver.start(2000);

  metrics::DurabilityLag lag(system.simulator(),
                             std::as_const(system).node_ptrs());
  lag.start(16, 2000);
  system.simulator().run();

  EXPECT_GT(lag.global_series().samples().size(), 10u);
  EXPECT_EQ(lag.peak_lag_ops(), 0u);
  EXPECT_EQ(lag.peak_index_gap(), 0);
  EXPECT_EQ(lag.global_series().stat().max(), 0.0);
}

TEST(DurabilityLagProbe, SamplesBackgroundLagAndSeesTheFlushQuiesce) {
  ScratchDir dir("probe");
  harness::SystemConfig config;
  config.process_count = 4;
  config.seed = 7;
  config.node.storage = async_config(StorageBackendKind::kLogStructured,
                                     dir.path(),
                                     DurabilityPolicy::Background(16));
  harness::System system(config);

  workload::WorkloadConfig wl;
  wl.seed = 77;
  wl.checkpoint_probability = 0.25;
  workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(), wl);
  driver.start(2000);

  metrics::DurabilityLag lag(system.simulator(),
                             std::as_const(system).node_ptrs());
  lag.start(16, 2000);
  system.simulator().run();

  EXPECT_GT(lag.global_series().samples().size(), 10u);
  EXPECT_EQ(lag.per_process().size(), 4u);

  // Quiesce every pipeline, then one more sample must read zero lag.
  for (ProcessId p = 0; p < 4; ++p) system.node(p).store().flush();
  lag.sample();
  ASSERT_FALSE(lag.global_series().samples().empty());
  EXPECT_EQ(lag.global_series().samples().back().second, 0.0);
}

TEST(SweepSummary, AggregatesDurabilityLagAcrossRuns) {
  harness::SweepRun a;
  a.durability_lag.add(2.0);
  a.durability_lag.add(4.0);
  a.peak_durability_lag = 6.0;
  harness::SweepRun b;
  b.durability_lag.add(8.0);
  b.peak_durability_lag = 9.0;

  const harness::SweepSummary summary = harness::summarize_sweep({a, b});
  EXPECT_EQ(summary.durability_lag.count(), 3u);
  EXPECT_EQ(summary.durability_lag.max(), 8.0);
  EXPECT_EQ(summary.peak_durability_lag.count(), 2u);
  EXPECT_EQ(summary.peak_durability_lag.max(), 9.0);
}

// ---- Scenario on an async policy ------------------------------------------

/// A scripted CCP replayed over async media is protocol-identical to the
/// in-memory run: the pipeline changes WHEN bytes reach the medium, never
/// what the middleware observes.
TEST(ScenarioDurability, AsyncPolicyKeepsScriptedRunsIdentical) {
  ScratchDir dir("scenario");
  StorageConfig media = async_config(StorageBackendKind::kLogStructured,
                                     dir.path(),
                                     DurabilityPolicy::GroupCommit(2));
  harness::Scenario persistent(3, ckpt::ProtocolKind::kFdas,
                               harness::GcChoice::kRdtLgc, media);
  harness::Scenario memory(3, ckpt::ProtocolKind::kFdas,
                           harness::GcChoice::kRdtLgc);

  const auto script = [](harness::Scenario& s) {
    s.checkpoint(0);
    s.send(0, 1, "m1");
    s.deliver("m1");
    s.checkpoint(1);
    s.send(1, 2, "m2");
    s.deliver("m2");
    s.checkpoint(2);
    s.send(2, 0, "m3");
    s.deliver("m3");
    s.checkpoint(0);
    s.checkpoint(1);
  };
  script(persistent);
  script(memory);

  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(persistent.node(p).store().stored_indices(),
              memory.node(p).store().stored_indices())
        << "async media perturbed the scripted run at p" << p;
    ASSERT_TRUE(persistent.node(p).store().pipelined());
    EXPECT_GT(persistent.node(p).store().pipeline()->commits(), 0u);
  }
  test::audit_safety_theorem1(persistent.system());
  test::audit_bounds(persistent.system());
}

}  // namespace
}  // namespace rdtgc
