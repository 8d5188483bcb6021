#include "core/rdt_lgc.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rdtgc::core {

void RdtLgc::initialize(ProcessId self, std::size_t process_count,
                        ckpt::ShardedCheckpointStore& store) {
  RDTGC_EXPECTS(self >= 0 && static_cast<std::size_t>(self) < process_count);
  RDTGC_EXPECTS(!uc_.has_value());  // initialize exactly once
  self_ = self;
  n_ = process_count;
  store_ = &store;
  uc_.emplace(process_count, [this](CheckpointIndex index) {
    store_->collect(index);
    ++collected_;
  });
}

void RdtLgc::on_new_dependency(ProcessId j) {
  RDTGC_EXPECTS(uc_.has_value());
  RDTGC_EXPECTS(j != self_);
  // Algorithm 2, receive handler: p_j now denies collection of the last
  // stable checkpoint, which UC[self] always references.
  uc_->release(j);
  uc_->link(j, self_);
}

void RdtLgc::on_new_dependencies(std::span<const ProcessId> changed) {
  RDTGC_EXPECTS(uc_.has_value());
  // Algorithm 2, receive handler, coalesced: every changed peer now pins the
  // last stable checkpoint; rebind_to adjusts the CCB refcount by ±k in one
  // pass instead of k release+link pairs.
  uc_->rebind_to(changed, self_);
}

void RdtLgc::on_checkpoint_stored(CheckpointIndex index) {
  RDTGC_EXPECTS(uc_.has_value());
  // Algorithm 2, checkpoint handler.  The release may collect the previous
  // last checkpoint; the new one is already durably stored (the transient
  // n+1 occupancy of §4.5).
  uc_->release(self_);
  uc_->new_ccb(self_, index);
}

std::optional<CheckpointIndex> RdtLgc::latest_not_preceded(
    ProcessId f, IntervalIndex bound,
    const std::vector<CheckpointIndex>& stored,
    const std::vector<const causality::DependencyVector*>& dvs) const {
  RDTGC_ASSERT(!stored.empty() && stored.size() == dvs.size());
  if (search_ == RollbackSearch::kBinary) {
    // DV(s^γ)[f] is non-decreasing in γ: binary-search the boundary.
    std::size_t lo = 0, hi = stored.size();  // first position with dv >= bound
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if ((*dvs[mid])[f] < bound)
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo == 0) return std::nullopt;
    return stored[lo - 1];
  }
  std::optional<CheckpointIndex> best;
  for (std::size_t k = 0; k < stored.size(); ++k)
    if ((*dvs[k])[f] < bound) best = stored[k];
  return best;
}

void RdtLgc::on_rollback(const ckpt::RollbackInfo& info,
                         const causality::DependencyVector& dv) {
  RDTGC_EXPECTS(uc_.has_value());
  RDTGC_EXPECTS(!info.li.has_value() || info.li->size() == n_);
  RDTGC_EXPECTS(store_->contains(info.restored_index));
  RDTGC_EXPECTS(store_->last_index() == info.restored_index);
  rebuild_from_store(info.li, dv);
}

void RdtLgc::on_attach(const causality::DependencyVector& dv) {
  RDTGC_EXPECTS(uc_.has_value());
  RDTGC_EXPECTS(store_->count() > 0);  // a warm start needs survivors
  RDTGC_EXPECTS(dv[self_] == store_->last_index() + 1);
  rebuild_from_store(std::nullopt, dv);
}

void RdtLgc::rebuild_from_store(
    const std::optional<std::vector<IntervalIndex>>& li,
    const causality::DependencyVector& dv) {
  // Algorithm 3 line 7: rebuild the CCBs from the surviving storage.
  // stored_indices() is a live view of the store's flat index (no per-call
  // copy); `stored` and the `dvs` pointers are only valid until
  // drop_zero_count() below starts eliminating, which is after their last
  // use.
  uc_->clear();
  const std::vector<CheckpointIndex>& stored = store_->stored_indices();
  std::vector<const causality::DependencyVector*> dvs;
  dvs.reserve(stored.size());
  for (const CheckpointIndex g : stored) {
    uc_->add_ccb(g);
    dvs.push_back(&store_->get(g).dv);
  }

  // Lines 8-14: for every process f, find the checkpoint retained because of
  // f.  With global information, LI[f] = last_s(f)+1 in the recovery-line
  // cut; otherwise the causal-only variant substitutes DV (§4.3).
  for (ProcessId f = 0; f < static_cast<ProcessId>(n_); ++f) {
    const IntervalIndex li_f =
        li.has_value() ? (*li)[static_cast<std::size_t>(f)] : dv[f];
    // f pins a checkpoint iff s_f^last → v_i, i.e. LI[f] <= DV(v_i)[f]
    // (in the DV variant this reduces to Theorem 2's last_k_i(f) >= 0).
    if (li_f >= 1 && li_f <= dv[f]) {
      const std::optional<CheckpointIndex> g =
          latest_not_preceded(f, li_f, stored, dvs);
      if (g.has_value()) {
        uc_->reference(f, *g);
      } else {
        // Every candidate was already collected.  With global information
        // this cannot happen (the Theorem-1 pin is never obsolete, so it is
        // still stored); with the causal-only DV variant it means the
        // restored knowledge of f is stale — s_f^last does not actually
        // precede the restored state, so f truly pins nothing and leaving
        // UC[f] Null is safe.
        RDTGC_ASSERT(!li.has_value());
      }
    }
    // else: UC[f] stays Null (line 14).
  }

  // Lines 15-17: whatever no process pins is obsolete.
  uc_->drop_zero_count();
}

void RdtLgc::on_peer_recovery(const std::vector<IntervalIndex>& li,
                              const causality::DependencyVector& dv) {
  RDTGC_EXPECTS(uc_.has_value());
  RDTGC_EXPECTS(li.size() == n_);
  // §4.3: a process whose recovery-line component is its volatile state
  // releases every UC[f] with DV[f] < LI[f]: the last stable checkpoint of
  // p_f does not causally precede v_i, so nothing is retained because of f.
  for (ProcessId f = 0; f < static_cast<ProcessId>(n_); ++f) {
    if (f == self_) continue;  // UC[self] always pins the last checkpoint
    if (dv[f] < li[static_cast<std::size_t>(f)]) uc_->release(f);
  }
}

const UcTable& RdtLgc::uc() const {
  RDTGC_EXPECTS(uc_.has_value());
  return *uc_;
}

}  // namespace rdtgc::core
