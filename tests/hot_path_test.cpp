// Hot-path contract tests for the allocation-free receive path:
//  * property-style equivalence of the batched APIs against the per-peer
//    reference sequences they coalesce (UcTable::rebind_to vs release+link,
//    RdtLgc::on_new_dependencies vs on_new_dependency);
//  * a zero-allocation guarantee for the steady-state receive
//    (merge_into + on_new_dependencies + CCB/store maintenance), enforced
//    with a global operator new/delete counting hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "ccp/recorder.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "core/rdt_lgc.hpp"
#include "core/uc_table.hpp"
#include "helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

// ---- Allocation-counting hook -------------------------------------------
//
// Replaces the global (unaligned) new/delete pair with malloc/free plus a
// counter.  Replacement is per-binary, so only this test sees it; the
// aligned overloads keep their defaults (replaced and default operators pair
// correctly as long as whole new/delete families are swapped together).

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocation_count;
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rdtgc {
namespace {

// ---- merge_into vs merge -------------------------------------------------

causality::DependencyVector random_dv(std::size_t n, util::Rng& rng,
                                      std::uint64_t bound) {
  causality::DependencyVector dv(n);
  for (std::size_t j = 0; j < n; ++j)
    dv.at(static_cast<ProcessId>(j)) =
        static_cast<IntervalIndex>(rng.uniform(bound));
  return dv;
}

TEST(HotPathMerge, MergeIntoMatchesMergeOnRandomizedVectors) {
  util::Rng rng(20260725);
  for (const std::size_t n : {1u, 2u, 5u, 16u, 64u}) {
    causality::ChangedSet changed(n);
    for (int round = 0; round < 200; ++round) {
      const auto mine = random_dv(n, rng, 6);
      const auto msg = random_dv(n, rng, 6);
      auto via_merge = mine;
      auto via_merge_into = mine;
      const std::vector<ProcessId> expected = via_merge.merge(msg);
      via_merge_into.merge_into(msg, changed);
      ASSERT_EQ(changed.to_vector(), expected) << "n=" << n;
      ASSERT_EQ(via_merge_into, via_merge) << "n=" << n;
    }
  }
}

TEST(HotPathMerge, MergeIntoClearsPreviousContents) {
  causality::DependencyVector mine(3), msg(3);
  causality::ChangedSet changed;
  msg.at(1) = 1;
  mine.merge_into(msg, changed);
  ASSERT_EQ(changed.to_vector(), (std::vector<ProcessId>{1}));
  mine.merge_into(msg, changed);  // nothing new now
  EXPECT_TRUE(changed.empty());
}

// ---- UcTable::rebind_to vs release+link ----------------------------------

/// One table driven through rebind_to, one through the per-peer reference
/// sequence, fed identical checkpoint/receive events; every observable must
/// match after each event, including the eliminate-callback sequences.
struct TablePair {
  std::vector<CheckpointIndex> batched_dead, reference_dead;
  core::UcTable batched, reference;

  explicit TablePair(std::size_t n)
      : batched(n, [this](CheckpointIndex i) { batched_dead.push_back(i); }),
        reference(n,
                  [this](CheckpointIndex i) { reference_dead.push_back(i); }) {}

  void checkpoint(ProcessId self, CheckpointIndex index) {
    batched.release(self);
    batched.new_ccb(self, index);
    reference.release(self);
    reference.new_ccb(self, index);
  }

  void receive(const std::vector<ProcessId>& changed, ProcessId self) {
    batched.rebind_to({changed.data(), changed.size()}, self);
    for (const ProcessId j : changed) {
      reference.release(j);
      reference.link(j, self);
    }
  }

  void expect_identical(std::size_t n) {
    ASSERT_EQ(batched.to_string(), reference.to_string());
    ASSERT_EQ(batched.tracked_checkpoints(), reference.tracked_checkpoints());
    for (const CheckpointIndex g : batched.tracked_checkpoints())
      ASSERT_EQ(batched.ref_count(g), reference.ref_count(g)) << "ccb " << g;
    for (ProcessId j = 0; j < static_cast<ProcessId>(n); ++j)
      ASSERT_EQ(batched.entry(j), reference.entry(j)) << "UC[" << j << "]";
    ASSERT_EQ(batched_dead, reference_dead) << "elimination sequences differ";
  }
};

TEST(HotPathUcTable, RebindMatchesReleaseLinkOnRandomizedSequences) {
  util::Rng rng(42);
  for (const std::size_t n : {2u, 3u, 8u, 32u}) {
    TablePair pair(n);
    const ProcessId self = 0;
    CheckpointIndex next = 0;
    pair.checkpoint(self, next++);
    for (int event = 0; event < 300; ++event) {
      if (rng.bernoulli(0.3)) {
        pair.checkpoint(self, next++);
      } else {
        // Random subset of peers, increasing ids, as merge_into produces.
        std::vector<ProcessId> changed;
        for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
          if (rng.bernoulli(0.4)) changed.push_back(j);
        pair.receive(changed, self);
      }
      pair.expect_identical(n);
    }
  }
}

TEST(HotPathUcTable, RebindEmptyBatchIsANoOp) {
  core::UcTable table(3, [](CheckpointIndex) { FAIL() << "eliminated"; });
  table.new_ccb(0, 0);
  table.rebind_to({}, 0);
  EXPECT_EQ(table.ref_count(0), 1);
}

TEST(HotPathUcTable, RebindSkipsPeersAlreadyOnSelfCheckpoint) {
  std::vector<CheckpointIndex> dead;
  core::UcTable table(3, [&](CheckpointIndex i) { dead.push_back(i); });
  table.new_ccb(0, 0);
  const std::vector<ProcessId> both{1, 2};
  table.rebind_to({both.data(), both.size()}, 0);
  EXPECT_EQ(table.ref_count(0), 3);
  table.rebind_to({both.data(), both.size()}, 0);  // all already bound
  EXPECT_EQ(table.ref_count(0), 3);
  EXPECT_TRUE(dead.empty());
}

TEST(HotPathUcTable, RebindEliminatesAbandonedCheckpointInOrder) {
  std::vector<CheckpointIndex> dead;
  core::UcTable table(4, [&](CheckpointIndex i) { dead.push_back(i); });
  table.new_ccb(0, 0);
  const std::vector<ProcessId> all{1, 2, 3};
  table.rebind_to({all.data(), all.size()}, 0);  // all pin s^0
  table.release(0);
  table.new_ccb(0, 1);  // s^0 still pinned by the three peers
  table.rebind_to({all.data(), all.size()}, 0);
  EXPECT_EQ(dead, (std::vector<CheckpointIndex>{0}));
  EXPECT_EQ(table.ref_count(1), 4);
  EXPECT_EQ(table.ref_count(0), 0);
}

TEST(HotPathUcTable, RebindContractViolations) {
  core::UcTable table(3, [](CheckpointIndex) {});
  const std::vector<ProcessId> peer{1};
  // UC[self] must be set.
  EXPECT_THROW(table.rebind_to({peer.data(), peer.size()}, 0),
               util::ContractViolation);
  table.new_ccb(0, 0);
  // self must not appear in the batch.
  const std::vector<ProcessId> with_self{0, 1};
  EXPECT_THROW(table.rebind_to({with_self.data(), with_self.size()}, 0),
               util::ContractViolation);
  // ids must be in range.
  const std::vector<ProcessId> oob{3};
  EXPECT_THROW(table.rebind_to({oob.data(), oob.size()}, 0),
               util::ContractViolation);
}

// ---- RdtLgc::on_new_dependencies vs on_new_dependency --------------------

struct LgcRig {
  ckpt::ShardedCheckpointStore store;
  core::RdtLgc lgc;
  causality::DependencyVector dv;

  LgcRig(ProcessId self, std::size_t n) : store(self), dv(n) {
    lgc.initialize(self, n, store);
    store.put(ckpt::StoredCheckpoint{0, dv, 0, 1});
    lgc.on_checkpoint_stored(0);
    dv.at(self) += 1;
  }

  void checkpoint(ProcessId self) {
    const CheckpointIndex index = dv[self];
    store.put(index, dv, 0, 1);  // copy-in put: recycled DV buffer
    lgc.on_checkpoint_stored(index);
    dv.at(self) += 1;
  }
};

TEST(HotPathRdtLgc, BatchedHookMatchesPerPeerHookOnRandomizedEvents) {
  util::Rng rng(7);
  const std::size_t n = 8;
  const ProcessId self = 0;
  LgcRig batched(self, n), reference(self, n);
  for (int event = 0; event < 400; ++event) {
    if (rng.bernoulli(0.3)) {
      batched.checkpoint(self);
      reference.checkpoint(self);
    } else {
      std::vector<ProcessId> changed;
      for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
        if (rng.bernoulli(0.4)) changed.push_back(j);
      batched.lgc.on_new_dependencies({changed.data(), changed.size()});
      for (const ProcessId j : changed) reference.lgc.on_new_dependency(j);
    }
    ASSERT_EQ(batched.lgc.uc().to_string(), reference.lgc.uc().to_string());
    ASSERT_EQ(batched.lgc.collected(), reference.lgc.collected());
    ASSERT_EQ(batched.store.stored_indices(), reference.store.stored_indices());
  }
  EXPECT_GT(batched.lgc.collected(), 0u);
}

// ---- Zero allocations on the steady-state receive ------------------------

TEST(HotPathAllocations, SteadyStateBatchedReceiveIsAllocationFree) {
  const std::size_t n = 64;
  const ProcessId self = 0;
  LgcRig rig(self, n);
  causality::DependencyVector msg(n);
  causality::ChangedSet changed(n);

  IntervalIndex tick = 0;
  auto receive_all = [&] {
    // A delivery raising every peer entry: the worst-case receive.
    ++tick;
    for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
      msg.at(j) = tick;
    rig.dv.merge_into(msg, changed);
    rig.lgc.on_new_dependencies(changed.span());
  };
  // Warm-up: bind every UC entry, fill the scratch buffer, and run enough
  // checkpoint+receive cycles that the store's recycled spare DV buffer and
  // flat-vector capacity are primed before the measured window starts.
  receive_all();
  for (int lap = 0; lap < 16; ++lap) {
    rig.checkpoint(self);
    receive_all();
  }

  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < 100; ++round) {
    // Full steady-state cycle: store a checkpoint (copy-in put into the
    // store's recycled buffer), then a worst-case receive that
    // rebinds all n-1 peers and eliminates the abandoned checkpoint
    // through the store.
    rig.checkpoint(self);
    receive_all();
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state checkpoint/receive churn touched the heap";
  EXPECT_GE(rig.lgc.collected(), 100u);  // eliminations did happen
}

TEST(HotPathAllocations, RecorderArenaMakesRecordingAllocationFree) {
  // The recorder's per-process history arena (SoA rows, ccp/recorder.hpp)
  // replaces the old one-heap-vector-per-recorded-checkpoint layout; after
  // reserve() a whole run of record_checkpoint calls is zero-allocation,
  // and rollback truncation keeps the capacity for the re-execution.
  const std::size_t n = 16;
  ccp::CcpRecorder recorder(n);
  causality::DependencyVector dv(n);
  recorder.reserve(256);

  const std::uint64_t before = g_allocation_count.load();
  for (CheckpointIndex idx = 0; idx < 200; ++idx) {
    dv.at(3) = idx;
    recorder.record_checkpoint(3, idx, dv, ccp::CheckpointKind::kBasic,
                               static_cast<SimTime>(idx));
    dv.at(3) = idx + 1;  // interval advances past the new checkpoint
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "recording into the reserved arena touched the heap";
  // The rows really landed in the arena and read back exactly.
  for (CheckpointIndex idx = 0; idx < 200; idx += 50) {
    const causality::DvView view = recorder.checkpoint_dv(3, idx);
    ASSERT_EQ(view[3], idx);
  }
  // Rollback truncates rows; re-recording reuses the freed capacity.
  recorder.record_rollback(3, 99, 200);
  const std::uint64_t after_rollback = g_allocation_count.load();
  dv.at(3) = 100;
  for (CheckpointIndex idx = 100; idx < 200; ++idx) {
    recorder.record_checkpoint(3, idx, dv, ccp::CheckpointKind::kBasic, 0);
    dv.at(3) = idx + 1;
  }
  EXPECT_EQ(g_allocation_count.load() - after_rollback, 0u)
      << "re-recording after rollback touched the heap";
}

TEST(HotPathAllocations, BackendTraitChurnIsAllocationFreeForInMemory) {
  // The storage-backend trait (ckpt/storage_backend.hpp) introduces virtual
  // dispatch on the churn path; for the in-memory backend that indirection
  // must stay allocation-free — no type-erasure boxing, no virtual-call
  // shims touching the heap.  Drive the flat store strictly through a
  // StorageBackend reference, the same call shape the process store uses
  // for a persistent backend.
  const std::size_t n = 32;
  ckpt::CheckpointStore flat(0);
  ckpt::StorageBackend& backend = flat;
  causality::DependencyVector dv(n);
  constexpr CheckpointIndex kWindow = 8;
  CheckpointIndex next = 0;
  for (; next < kWindow; ++next) backend.put(next, dv, 0, 1);
  for (CheckpointIndex g = 0; g < kWindow / 2; ++g) backend.collect(g);
  (void)backend.stored_indices();

  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < 200; ++round) {
    backend.put(next, dv, 0, 1);  // copy-in put via the recycled spare
    backend.collect(next - kWindow / 2);
    ASSERT_FALSE(backend.stored_indices().empty());
    ASSERT_TRUE(backend.contains(next));
    ASSERT_EQ(backend.dv_view(next).size(), n);  // get-DV-view, zero-copy
    ASSERT_EQ(backend.recover(), backend.count());  // no-op on a live store
    ++next;
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "churn through the StorageBackend trait touched the heap";
}

TEST(HotPathAllocations, ShardedStoreChurnIsAllocationFree) {
  // Drive the store directly (no GC) through the put/collect churn every
  // collector produces, and require that once the recycled spare buffer and
  // vector capacity are warm the churn — stored_indices() included — never
  // touches the heap.
  const std::size_t n = 32;
  ckpt::ShardedCheckpointStore store(0);
  causality::DependencyVector dv(n);
  constexpr CheckpointIndex kWindow = 16;
  CheckpointIndex next = 0;
  // Warm-up: fill a window, then collect half of it so the spare is primed.
  for (; next < kWindow; ++next) store.put(next, dv, 0, 1);
  for (CheckpointIndex g = 0; g < kWindow / 2; ++g) store.collect(g);
  (void)store.stored_indices();

  const std::uint64_t before = g_allocation_count.load();
  for (int round = 0; round < 200; ++round) {
    store.put(next, dv, 0, 1);  // copy-in put: the recycled buffer
    store.collect(next - kWindow / 2);
    ASSERT_FALSE(store.stored_indices().empty());
    ++next;
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state put/collect churn touched the heap";
}

TEST(HotPathAllocations, PersistentChurnIsAllocationFreeUnderEveryPolicy) {
  // The async-durability tentpole's hot-path contract: with a persistent
  // backend the acknowledge path — flat-mirror put/collect plus a pipeline
  // ring enqueue into preallocated slots — must stay allocation-free in all
  // three DurabilityPolicy modes once warm, INCLUDING the inline group
  // commits the kGroupCommit churn triggers (drains replay through reused
  // scratch buffers) and the kBackground writer's concurrent drains (the
  // counter hook is global, so a writer-thread allocation fails this too).
  // Log compaction is configured out of reach: its rewrite path is off the
  // steady-state contract, exactly as for the kSync backends.
  struct Case {
    ckpt::StorageBackendKind kind;
    ckpt::DurabilityPolicy policy;
    const char* name;
  };
  const Case cases[] = {
      {ckpt::StorageBackendKind::kLogStructured,
       ckpt::DurabilityPolicy::Sync(), "log_sync"},
      {ckpt::StorageBackendKind::kLogStructured,
       ckpt::DurabilityPolicy::GroupCommit(4), "log_group"},
      {ckpt::StorageBackendKind::kLogStructured,
       ckpt::DurabilityPolicy::Background(4), "log_background"},
      {ckpt::StorageBackendKind::kMmapFile, ckpt::DurabilityPolicy::Sync(),
       "mmap_sync"},
      {ckpt::StorageBackendKind::kMmapFile,
       ckpt::DurabilityPolicy::GroupCommit(4), "mmap_group"},
      {ckpt::StorageBackendKind::kMmapFile,
       ckpt::DurabilityPolicy::Background(4), "mmap_background"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    test::ScratchDir dir(std::string("hot_") + c.name);
    ckpt::StorageConfig config;
    config.kind = c.kind;
    config.directory = dir.path();
    config.initial_slots = 256;
    config.compact_min_records = 1u << 20;
    config.durability = c.policy;
    ckpt::ShardedCheckpointStore store(0, config);
    causality::DependencyVector dv(8);
    constexpr CheckpointIndex window = 16;
    CheckpointIndex next = 0;
    // Warm-up: sizes the flat mirror, the recycled spare, the pipeline's
    // slot DV buffers, and the backend's serialization scratch; the flush sizes the drain-side batch buffers
    // at their maximum (it drains the whole pending window in one pass).
    for (; next < window; ++next) store.put(next, dv, 0, 1);
    for (CheckpointIndex g = 0; g < window / 2; ++g) store.collect(g);
    for (int round = 0; round < 64; ++round) {
      store.put(next, dv, 0, 1);
      store.collect(next - window / 2);
      ++next;
    }
    store.flush();
    (void)store.stored_indices();

    const std::uint64_t before = g_allocation_count.load();
    for (int round = 0; round < 200; ++round) {
      store.put(next, dv, 0, 1);
      store.collect(next - window / 2);
      ASSERT_FALSE(store.stored_indices().empty());
      ++next;
    }
    EXPECT_EQ(g_allocation_count.load() - before, 0u)
        << "persistent churn touched the heap under policy " << c.name;
    if (c.policy.mode == ckpt::DurabilityMode::kGroupCommit) {
      ASSERT_NE(store.pipeline(), nullptr);
      EXPECT_GT(store.pipeline()->commits(), 200u / 4u)
          << "the measured window never exercised an inline group commit";
    }
  }
}

}  // namespace
}  // namespace rdtgc
