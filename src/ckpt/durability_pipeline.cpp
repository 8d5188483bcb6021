#include "ckpt/durability_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <mutex>

#include "util/check.hpp"

namespace rdtgc::ckpt {

namespace {

/// Ring capacity: comfortably above the commit window so inline mode never
/// blocks on space and background producers rarely do, rounded to a power
/// of two for mask indexing.
std::size_t ring_capacity_for(std::size_t every_k) {
  std::size_t want = std::max<std::size_t>(2 * every_k, 64);
  std::size_t cap = 1;
  while (cap < want) cap <<= 1;
  return cap;
}

/// How long an idle background writer naps between ring polls.  Short
/// enough that the lag stays bounded by a few tens of microseconds of
/// wall-clock, long enough not to burn a core spinning.
constexpr std::chrono::microseconds kWriterIdleNap{50};

}  // namespace

DurabilityPipeline::DurabilityPipeline(DurabilityPolicy policy,
                                       StorageBackend& backend)
    : policy_(policy),
      backend_(backend),
      ring_(ring_capacity_for(std::max<std::size_t>(policy.every_k_ops, 1))) {
  RDTGC_EXPECTS(policy_.mode != DurabilityMode::kSync);
  RDTGC_EXPECTS(policy_.every_k_ops >= 1);
  ring_mask_ = ring_.size() - 1;
  if (policy_.mode == DurabilityMode::kBackground)
    writer_ = std::thread([this] { writer_main(); });
}

DurabilityPipeline::~DurabilityPipeline() {
  // Crash model: no drain here.  The writer finishes the pass it already
  // claimed (in-process, not a real crash) and everything still enqueued
  // is discarded — recovery reopens the media at the last commit's prefix.
  stop_.store(true, std::memory_order_release);
  if (writer_.joinable()) writer_.join();
}

template <typename FillFn>
bool DurabilityPipeline::enqueue(Slot::Kind kind, bool is_put, FillFn&& fill) {
  for (;;) {
    ring_lock_.lock();
    if (head_ - tail_ < ring_.size()) break;
    // Ring full: backpressure.  In kBackground the writer is draining and
    // tail_ advances shortly; in kGroupCommit this spin is unreachable
    // (the window trigger fires at every_k_ops, half the capacity floor).
    ring_lock_.unlock();
    std::this_thread::yield();
  }
  Slot& slot = ring_[static_cast<std::size_t>(head_ & ring_mask_)];
  slot.kind = kind;
  fill(slot);
  ++head_;  // publish: the drain side may read the slot from here on
  const std::uint64_t pending = head_ - tail_;
  acked_ops_.fetch_add(1, std::memory_order_relaxed);
  ring_lock_.unlock();
  if (policy_.mode != DurabilityMode::kGroupCommit) return false;
  return pending >= policy_.every_k_ops || (is_put && policy_.every_checkpoint);
}

bool DurabilityPipeline::record_put(CheckpointIndex index,
                                    const causality::DependencyVector& dv,
                                    SimTime stored_at, std::uint64_t bytes) {
  const bool trigger =
      enqueue(Slot::Kind::kPut, /*is_put=*/true, [&](Slot& slot) {
        slot.index = index;
        slot.stored_at = stored_at;
        slot.bytes = bytes;
        slot.dv_size = dv.size();
        if (slot.dv.size() < slot.dv_size) slot.dv.resize(slot.dv_size);
        if (slot.dv_size > 0)
          std::memcpy(slot.dv.data(), dv.entries().data(),
                      slot.dv_size * sizeof(IntervalIndex));
      });
  acked_index_.store(index, std::memory_order_relaxed);
  return trigger;
}

bool DurabilityPipeline::record_collect(CheckpointIndex index) {
  return enqueue(Slot::Kind::kCollect, /*is_put=*/false,
                 [&](Slot& slot) { slot.index = index; });
}

bool DurabilityPipeline::record_discard(CheckpointIndex ri) {
  const bool trigger = enqueue(Slot::Kind::kDiscardAfter, /*is_put=*/false,
                               [&](Slot& slot) { slot.index = ri; });
  // A rollback truncates the acknowledged lineage; the acked index follows
  // it down so the lag figures stay meaningful across restarts.
  acked_index_.store(ri, std::memory_order_relaxed);
  return trigger;
}

std::size_t DurabilityPipeline::drain_some(std::size_t max_ops) {
  std::lock_guard<util::SpinLock> drain(drain_lock_);

  ring_lock_.lock();
  const std::uint64_t from = tail_;
  // Clamp on the occupancy, not `from + max_ops` — the latter wraps when
  // commit()/flush() pass SIZE_MAX and would march tail_ backward.
  const std::uint64_t take =
      std::min<std::uint64_t>(head_ - from, max_ops);
  const std::uint64_t to = from + take;
  ring_lock_.unlock();
  if (from == to) return 0;

  // Apply in acknowledgment order.  Slots in [from, to) are stable:
  // producers cannot reuse them until tail_ advances past, below.
  // `watermark` mirrors, in the same op order, exactly what record_put /
  // record_discard did to acked_index_ — so a fully drained ring always
  // reads acked_index == synced_index, whatever ops a window happens to
  // end on (a collect leaves the put high-water alone on both sides).
  CheckpointIndex watermark = synced_index_.load(std::memory_order_relaxed);
  backend_.begin_batch();
  for (std::uint64_t seq = from; seq < to; ++seq) {
    const Slot& slot = ring_[static_cast<std::size_t>(seq & ring_mask_)];
    switch (slot.kind) {
      case Slot::Kind::kPut:
        if (scratch_dv_.size() != slot.dv_size)
          scratch_dv_ = causality::DependencyVector(slot.dv_size);
        if (slot.dv_size > 0)
          std::memcpy(&scratch_dv_.at(0), slot.dv.data(),
                      slot.dv_size * sizeof(IntervalIndex));
        backend_.put(slot.index, scratch_dv_, slot.stored_at, slot.bytes);
        watermark = slot.index;
        break;
      case Slot::Kind::kCollect:
        backend_.collect(slot.index);
        break;
      case Slot::Kind::kDiscardAfter:
        backend_.discard_after(slot.index);
        watermark = slot.index;  // the lineage truncated to ri
        break;
    }
  }
  // One coalesced emit + durability point for the whole window.
  backend_.end_batch(/*durable=*/true);

  ring_lock_.lock();
  tail_ = to;
  ring_lock_.unlock();
  synced_ops_.fetch_add(to - from, std::memory_order_relaxed);
  synced_index_.store(watermark, std::memory_order_relaxed);
  commits_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::size_t>(to - from);
}

void DurabilityPipeline::commit() {
  drain_some(std::numeric_limits<std::size_t>::max());
}

void DurabilityPipeline::flush() {
  // Drain until the ring is empty.  A concurrent writer pass holds
  // drain_lock_, so drain_some() naturally waits for it; mutators are
  // quiescent by the flush contract, so emptiness is stable once reached.
  for (;;) {
    drain_some(std::numeric_limits<std::size_t>::max());
    ring_lock_.lock();
    const bool empty = head_ == tail_;
    ring_lock_.unlock();
    if (empty) return;
  }
}

void DurabilityPipeline::reset_after_recover(CheckpointIndex last_index) {
  std::lock_guard<util::SpinLock> drain(drain_lock_);
  ring_lock_.lock();
  RDTGC_EXPECTS(head_ == tail_);  // recover() runs before any mutation
  ring_lock_.unlock();
  acked_ops_.store(0, std::memory_order_relaxed);
  synced_ops_.store(0, std::memory_order_relaxed);
  acked_index_.store(last_index, std::memory_order_relaxed);
  synced_index_.store(last_index, std::memory_order_relaxed);
}

DurabilityStatus DurabilityPipeline::status() const {
  DurabilityStatus status;
  // acked before synced: a concurrent drain can only move synced up, so a
  // torn read errs toward REPORTING more lag, never a negative one.
  status.synced_ops = synced_ops_.load(std::memory_order_relaxed);
  status.acked_ops = acked_ops_.load(std::memory_order_relaxed);
  if (status.acked_ops < status.synced_ops) status.acked_ops = status.synced_ops;
  status.acked_index = acked_index_.load(std::memory_order_relaxed);
  status.synced_index = synced_index_.load(std::memory_order_relaxed);
  return status;
}

void DurabilityPipeline::writer_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (drain_some(std::max<std::size_t>(policy_.every_k_ops, 1)) == 0)
      std::this_thread::sleep_for(kWriterIdleNap);
  }
}

}  // namespace rdtgc::ckpt
