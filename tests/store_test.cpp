// Unit tests for the stable-storage model: the flat ckpt::CheckpointStore,
// the per-process ckpt::ShardedCheckpointStore, and a randomized-trace
// property test that the two stay observably equivalent (the flat store is
// the process store's reference implementation).  The trace itself is the
// shared test::RandomStoreTrace harness — the same schedules also drive the
// persistent backends in tests/backend_test.cpp.
#include <gtest/gtest.h>

#include <limits>

#include "ckpt/checkpoint_store.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "helpers.hpp"
#include "util/check.hpp"

namespace rdtgc::ckpt {
namespace {

StoredCheckpoint make(CheckpointIndex index, std::uint64_t bytes = 1) {
  StoredCheckpoint c;
  c.index = index;
  c.dv = causality::DependencyVector(2);
  c.dv.at(0) = index;
  c.bytes = bytes;
  return c;
}

TEST(CheckpointStore, PutAndGet) {
  CheckpointStore store(0);
  store.put(make(0, 5));
  ASSERT_TRUE(store.contains(0));
  EXPECT_EQ(store.get(0).bytes, 5u);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.bytes(), 5u);
  EXPECT_EQ(store.owner(), 0);
}

TEST(CheckpointStore, IndicesMustIncrease) {
  CheckpointStore store(0);
  store.put(make(0));
  store.put(make(3));
  EXPECT_THROW(store.put(make(2)), util::ContractViolation);
  EXPECT_THROW(store.put(make(3)), util::ContractViolation);
}

TEST(CheckpointStore, CopyInPutMatchesValuePut) {
  CheckpointStore store(0);
  causality::DependencyVector dv(3);
  dv.at(1) = 4;
  store.put(7, dv, 12, 9);
  ASSERT_TRUE(store.contains(7));
  EXPECT_EQ(store.get(7).index, 7);
  EXPECT_EQ(store.get(7).dv, dv);
  EXPECT_EQ(store.get(7).stored_at, 12u);
  EXPECT_EQ(store.get(7).bytes, 9u);
  EXPECT_EQ(store.bytes(), 9u);
  // The recycled-buffer path: collect then put again must not corrupt the
  // stored vector (the DV is copied, not aliased).
  store.collect(7);
  dv.at(2) = 1;
  store.put(8, dv, 13, 2);
  EXPECT_EQ(store.get(8).dv, dv);
  dv.at(0) = 99;
  EXPECT_NE(store.get(8).dv, dv);
  EXPECT_THROW(store.put(8, dv, 14, 1), util::ContractViolation);
}

TEST(CheckpointStore, CollectRemovesAndCounts) {
  CheckpointStore store(0);
  store.put(make(0, 2));
  store.put(make(1, 3));
  store.collect(0);
  EXPECT_FALSE(store.contains(0));
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.bytes(), 3u);
  EXPECT_EQ(store.stats().collected, 1u);
}

TEST(CheckpointStore, CollectMissingRejected) {
  CheckpointStore store(0);
  store.put(make(0));
  EXPECT_THROW(store.collect(1), util::ContractViolation);
  store.collect(0);
  EXPECT_THROW(store.collect(0), util::ContractViolation);
}

TEST(CheckpointStore, DiscardAfterKeepsPrefix) {
  CheckpointStore store(0);
  for (CheckpointIndex i = 0; i < 5; ++i) store.put(make(i));
  EXPECT_EQ(store.discard_after(2), 2u);
  EXPECT_EQ(store.stored_indices(), (std::vector<CheckpointIndex>{0, 1, 2}));
  EXPECT_EQ(store.stats().discarded, 2u);
  EXPECT_EQ(store.stats().collected, 0u);  // rollback discards are not GC
}

TEST(CheckpointStore, DiscardAfterAllowsIndexReuse) {
  CheckpointStore store(0);
  store.put(make(0));
  store.put(make(1));
  store.discard_after(0);
  store.put(make(1));  // lineage restart
  EXPECT_TRUE(store.contains(1));
}

TEST(CheckpointStore, PeakTracksTransientOccupancy) {
  CheckpointStore store(0);
  store.put(make(0, 4));
  store.put(make(1, 4));
  store.put(make(2, 4));
  store.collect(0);
  store.collect(1);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.stats().peak_count, 3u);
  EXPECT_EQ(store.stats().peak_bytes, 12u);
}

TEST(CheckpointStore, LastIndexSkipsHoles) {
  CheckpointStore store(0);
  store.put(make(0));
  store.put(make(1));
  store.put(make(2));
  store.collect(1);
  EXPECT_EQ(store.last_index(), 2);
  EXPECT_EQ(store.stored_indices(), (std::vector<CheckpointIndex>{0, 2}));
}

TEST(CheckpointStore, StoredCountAccumulates) {
  CheckpointStore store(0);
  store.put(make(0));
  store.put(make(1));
  store.collect(0);
  store.put(make(2));
  EXPECT_EQ(store.stats().stored, 3u);
}

// ---- ShardedCheckpointStore ----------------------------------------------

TEST(ShardedCheckpointStore, MaxIndexMapsIntoRangeAndIsRetrievable) {
  ShardedCheckpointStore store(0);
  const CheckpointIndex max = std::numeric_limits<CheckpointIndex>::max();
  store.put(make(0));
  store.put(make(max, 3));
  EXPECT_TRUE(store.contains(max));
  EXPECT_EQ(store.get(max).bytes, 3u);
  EXPECT_EQ(store.last_index(), max);
  EXPECT_EQ(store.stored_indices(),
            (std::vector<CheckpointIndex>{0, max}));
  EXPECT_THROW(store.put(make(max)), util::ContractViolation);
}

/// Drives a flat reference store and the process store through an
/// identical RandomStoreTrace schedule and requires every observable —
/// membership, payloads, the ascending index view, counters, stats — to
/// match after every step.
TEST(ShardedCheckpointStore, MatchesFlatStoreOnRandomizedTraces) {
  for (const std::uint64_t seed : {20260725u, 97u, 7u}) {
    const test::RandomStoreTrace trace(seed);
    CheckpointStore flat(3);
    ShardedCheckpointStore store(3);
    for (const test::RandomStoreTrace::Op& op : trace.ops()) {
      trace.apply(op, flat);
      trace.apply(op, store);
      test::expect_stores_equal(flat, store);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rdtgc::ckpt
