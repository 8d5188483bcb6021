#include "ckpt/mmap_backend.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::ckpt {

// Plain-old-data header views over the mapping.  The mapping is
// page-aligned and every field offset is naturally aligned, so the
// reinterpret_casts below are valid object accesses on every platform this
// targets (static_asserts pin the layout).
struct MmapFileBackend::SegmentHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::int32_t owner;
  std::uint32_t dv_width;
  std::uint32_t clean;  ///< 1 iff the last close was preceded by flush()
  std::uint64_t slot_capacity;
  std::uint64_t slots_used;
  PersistedStoreStats stats;

  static_assert(sizeof(std::uint64_t) == 8 && sizeof(std::int32_t) == 4,
                "fixed-width file layout");
};

struct MmapFileBackend::SlotHeader {
  std::uint32_t state;
  std::int32_t index;
  std::uint64_t stored_at;
  std::uint64_t bytes;
  // IntervalIndex dv[dv_width] follows.
};

namespace {

constexpr std::uint64_t kSegmentMagic = 0x31474553434754ffull;  // "RDTGCSEG1"-ish
constexpr std::uint32_t kSegmentVersion = 1;

/// Slots are 8-byte aligned so the next slot's 64-bit fields stay aligned.
std::size_t align8(std::size_t n) { return (n + 7u) & ~std::size_t{7u}; }

}  // namespace

MmapFileBackend::SegmentHeader* MmapFileBackend::header() {
  return reinterpret_cast<SegmentHeader*>(file_.data());
}
const MmapFileBackend::SegmentHeader* MmapFileBackend::header() const {
  return reinterpret_cast<const SegmentHeader*>(file_.data());
}

std::size_t MmapFileBackend::slot_size() const {
  RDTGC_ASSERT(dv_width_ != kWidthUnset);
  return align8(sizeof(SlotHeader) + dv_width_ * sizeof(IntervalIndex));
}

std::byte* MmapFileBackend::slot_at(std::uint64_t slot) {
  return file_.data() + sizeof(SegmentHeader) + slot * slot_size();
}
const std::byte* MmapFileBackend::slot_at(std::uint64_t slot) const {
  return file_.data() + sizeof(SegmentHeader) + slot * slot_size();
}

MmapFileBackend::MmapFileBackend(ProcessId owner, std::string path,
                                 OpenMode mode, std::size_t initial_slots)
    : mem_(owner) {
  static_assert(sizeof(SegmentHeader) == 80, "on-disk segment layout");
  static_assert(sizeof(SlotHeader) == 24, "on-disk slot layout");
  RDTGC_EXPECTS(initial_slots >= 1);
  if (mode == OpenMode::kFresh) {
    file_.open(path, util::MappedFile::Mode::kCreate, sizeof(SegmentHeader));
    SegmentHeader* h = header();
    h->magic = kSegmentMagic;
    h->version = kSegmentVersion;
    h->owner = owner;
    h->dv_width = kWidthUnset;
    h->clean = 0;
    h->slot_capacity = initial_slots;
    h->slots_used = 0;
    medium_dirty_ = true;
  } else {
    file_.open(path, util::MappedFile::Mode::kOpenExisting, 0);
    pending_recover_ = true;
  }
}

void MmapFileBackend::ensure_width(std::size_t width) {
  if (dv_width_ == kWidthUnset) {
    // First put fixes the segment's record layout and sizes the slot region.
    dv_width_ = static_cast<std::uint32_t>(width);
    header()->dv_width = dv_width_;
    const std::uint64_t capacity = header()->slot_capacity;
    file_.resize(sizeof(SegmentHeader) + capacity * slot_size());
    return;
  }
  RDTGC_EXPECTS(width == dv_width_);
}

void MmapFileBackend::ensure_capacity() {
  // Reserve ahead (geometrically) so write_slot's push_back is no-throw.
  if (live_slots_.size() == live_slots_.capacity())
    live_slots_.reserve(std::max<std::size_t>(8, live_slots_.capacity() * 2));
  SegmentHeader* h = header();
  if (h->slots_used < h->slot_capacity) return;
  const std::uint64_t live = live_slots_.size();
  if (live * 2 <= h->slot_capacity) {
    // At least half the slots are dead: compact in place instead of
    // growing.  live_slots_ is ascending and live_slots_[k] >= k, so
    // sliding each live slot down to position k preserves the
    // ascending-index file order recover() relies on (overlap-safe via
    // memmove).  Pure memory writes — no-throw.
    const std::uint64_t used_before = h->slots_used;
    for (std::uint64_t k = 0; k < live; ++k) {
      const std::uint64_t from = live_slots_[static_cast<std::size_t>(k)];
      if (from != k) std::memmove(slot_at(k), slot_at(from), slot_size());
      live_slots_[static_cast<std::size_t>(k)] = k;
    }
    // Release the tail: stale copies above the live prefix must not be
    // mistaken for committed slots by a later recover().
    for (std::uint64_t slot = live; slot < used_before; ++slot)
      reinterpret_cast<SlotHeader*>(slot_at(slot))->state = kSlotEmpty;
    h->slots_used = live;
    return;
  }
  const std::uint64_t capacity = h->slot_capacity * 2;
  file_.resize(sizeof(SegmentHeader) + capacity * slot_size());  // may throw
  header()->slot_capacity = capacity;  // header() re-read after remap
}

void MmapFileBackend::write_slot(CheckpointIndex index,
                                 const causality::DependencyVector& dv,
                                 SimTime stored_at, std::uint64_t bytes) {
  const std::uint64_t slot = header()->slots_used;
  std::byte* raw = slot_at(slot);
  auto* sh = reinterpret_cast<SlotHeader*>(raw);
  sh->state = kSlotEmpty;
  sh->index = index;
  sh->stored_at = stored_at;
  sh->bytes = bytes;
  const auto entries = dv.entries();
  if (!entries.empty())
    std::memcpy(raw + sizeof(SlotHeader), entries.data(),
                entries.size() * sizeof(IntervalIndex));
  // Commit marker last: a torn append leaves state == kSlotEmpty and
  // recover() skips the slot.
  sh->state = kSlotLive;
  header()->slots_used = slot + 1;
  live_slots_.push_back(slot);
}

std::size_t MmapFileBackend::live_position(CheckpointIndex index) const {
  const std::vector<CheckpointIndex>& indices = mem_.stored_indices();
  const auto it = std::lower_bound(indices.begin(), indices.end(), index);
  RDTGC_ASSERT(it != indices.end() && *it == index);
  return static_cast<std::size_t>(it - indices.begin());
}

void MmapFileBackend::sync_header_stats() {
  SegmentHeader* h = header();
  h->stats = PersistedStoreStats::from(mem_.stats());
  h->clean = 0;
  medium_dirty_ = true;
}

void MmapFileBackend::put(StoredCheckpoint checkpoint) {
  RDTGC_EXPECTS(!pending_recover_);
  // Pre-validate the mirror's contract, then grow the medium: every throw
  // (contract or IoError) happens before anything is written, so mirror and
  // medium can never diverge.
  RDTGC_EXPECTS(checkpoint.index >= 0);
  RDTGC_EXPECTS(mem_.count() == 0 || checkpoint.index > mem_.last_index());
  ensure_width(checkpoint.dv.size());
  ensure_capacity();
  write_slot(checkpoint.index, checkpoint.dv, checkpoint.stored_at,
             checkpoint.bytes);
  mem_.put(std::move(checkpoint));
  sync_header_stats();
}

void MmapFileBackend::put(CheckpointIndex index,
                          const causality::DependencyVector& dv,
                          SimTime stored_at, std::uint64_t bytes) {
  RDTGC_EXPECTS(!pending_recover_);
  RDTGC_EXPECTS(index >= 0);
  RDTGC_EXPECTS(mem_.count() == 0 || index > mem_.last_index());
  ensure_width(dv.size());
  ensure_capacity();
  write_slot(index, dv, stored_at, bytes);
  mem_.put(index, dv, stored_at, bytes);
  sync_header_stats();
}

causality::DvView MmapFileBackend::dv_view(CheckpointIndex index) const {
  const std::uint64_t slot = live_slots_[live_position(index)];
  const std::byte* raw = slot_at(slot);
  return causality::DvView(
      reinterpret_cast<const IntervalIndex*>(raw + sizeof(SlotHeader)),
      dv_width_);
}

void MmapFileBackend::collect(CheckpointIndex index) {
  RDTGC_EXPECTS(!pending_recover_);
  mem_.collect(index);  // throws when absent, before any file write
  // mem_ no longer holds `index`; the doomed slot's position was the one the
  // erased entry occupied, recomputable as the lower_bound insertion point.
  const std::vector<CheckpointIndex>& indices = mem_.stored_indices();
  const auto it = std::lower_bound(indices.begin(), indices.end(), index);
  const auto pos = static_cast<std::size_t>(it - indices.begin());
  const std::uint64_t slot = live_slots_[pos];
  reinterpret_cast<SlotHeader*>(slot_at(slot))->state = kSlotDead;
  live_slots_.erase(live_slots_.begin() + static_cast<std::ptrdiff_t>(pos));
  sync_header_stats();
}

std::size_t MmapFileBackend::discard_after(CheckpointIndex ri) {
  RDTGC_EXPECTS(!pending_recover_);
  const std::vector<CheckpointIndex>& indices = mem_.stored_indices();
  const auto it = std::upper_bound(indices.begin(), indices.end(), ri);
  const auto pos = static_cast<std::size_t>(it - indices.begin());
  for (std::size_t k = pos; k < live_slots_.size(); ++k)
    reinterpret_cast<SlotHeader*>(slot_at(live_slots_[k]))->state = kSlotDead;
  live_slots_.resize(pos);
  const std::size_t discarded = mem_.discard_after(ri);
  sync_header_stats();
  return discarded;
}

std::size_t MmapFileBackend::recover() {
  if (!pending_recover_) return mem_.count();
  RDTGC_EXPECTS(file_.size() >= sizeof(SegmentHeader));
  {
    const SegmentHeader* h = header();
    RDTGC_EXPECTS(h->magic == kSegmentMagic);
    RDTGC_EXPECTS(h->version == kSegmentVersion);
    RDTGC_EXPECTS(h->owner == mem_.owner());
    recovered_clean_ = h->clean == 1;
    dv_width_ = h->dv_width;
  }
  // The replay below counts the live set as fresh puts; the persisted
  // counters carry the full history (collections, discards, peaks).
  const StoreStats stats = header()->stats.to_stats();
  if (dv_width_ != kWidthUnset) {
    // Trust only what physically fits in the file: a crash between the
    // header update and the ftruncate of a growth cannot fabricate slots.
    const std::uint64_t fit =
        (file_.size() - sizeof(SegmentHeader)) / slot_size();
    const std::uint64_t used = std::min(header()->slots_used, fit);
    for (std::uint64_t slot = 0; slot < used; ++slot) {
      const auto* sh = reinterpret_cast<const SlotHeader*>(slot_at(slot));
      if (sh->state != kSlotLive) continue;  // dead, or torn (uncommitted)
      StoredCheckpoint checkpoint;
      checkpoint.index = sh->index;
      checkpoint.dv = causality::DependencyVector(dv_width_);
      if (dv_width_ > 0)
        std::memcpy(&checkpoint.dv.at(0), slot_at(slot) + sizeof(SlotHeader),
                    dv_width_ * sizeof(IntervalIndex));
      checkpoint.stored_at = sh->stored_at;
      checkpoint.bytes = sh->bytes;
      mem_.put(std::move(checkpoint));  // live slots are ascending in index
      live_slots_.push_back(slot);
    }
    // Normalize the header and the mapping to the trusted extent: a header
    // claiming more slots (or capacity) than the file holds would otherwise
    // send the next append past the end of the mapping.
    const std::uint64_t capacity = std::max<std::uint64_t>(fit, 1);
    file_.resize(sizeof(SegmentHeader) + capacity * slot_size());
    header()->slot_capacity = capacity;
    header()->slots_used = used;
  }
  mem_.restore_stats(stats);
  pending_recover_ = false;
  medium_dirty_ = true;  // the header normalization above is unsynced
  return mem_.count();
}

void MmapFileBackend::flush() {
  // Dirty-flag skip: nothing changed since the last flush AND the segment
  // is already marked clean — the msync would be a pure no-op.
  if (!medium_dirty_ && header()->clean == 1) return;
  header()->clean = 1;
  try {
    file_.sync();
  } catch (...) {
    // An msync failure must not leave a clean flag the medium never got:
    // a subsequent crash-drop would then recover as "cleanly closed".
    header()->clean = 0;
    throw;
  }
  ++msyncs_;
  medium_dirty_ = false;
}

void MmapFileBackend::end_batch(bool durable) {
  if (!durable || !medium_dirty_) return;
  // Group-commit durability point: msync without the clean flag (the
  // mutations already cleared it; a crash after this commit is still an
  // unclean-but-consistent state, not a clean close).
  file_.sync();
  ++msyncs_;
  medium_dirty_ = false;
}

std::uint64_t MmapFileBackend::slots_used() const { return header()->slots_used; }
std::uint64_t MmapFileBackend::slot_capacity() const {
  return header()->slot_capacity;
}

}  // namespace rdtgc::ckpt
