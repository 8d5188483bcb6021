// Shared test utilities: system assembly, the paper's invariants as
// reusable audits, and the randomized stable-storage trace harness every
// checkpoint-store backend is held to.
//
// The audits map one-to-one onto the paper's claims:
//  * audit_eq2                 — Equation 2: DV-derived precedence equals
//                                ground-truth event-graph causality;
//  * audit_rdt                 — Definition 4 via the zigzag oracle;
//  * audit_safety_theorem1     — everything Theorem 1 calls non-obsolete is
//                                still stored (so nothing unsafe was ever
//                                collected: obsoleteness is monotone);
//  * audit_exact_corollary1    — the stored set equals the Corollary-1
//                                retained set exactly (safety + Theorem-5
//                                optimality of RDT-LGC);
//  * audit_eq4                 — the Theorem-3 invariant on UC entries;
//  * audit_bounds              — ≤ n stored per process, ≤ n+1 transient.
//
// The storage harness:
//  * RandomStoreTrace          — one seeded randomized put/collect/discard
//                                schedule, replayable into ANY store-shaped
//                                object (flat CheckpointStore, sharded
//                                store, or a bare StorageBackend) so the
//                                same trace drives every implementation;
//  * expect_stores_equal       — the full observable-state comparison
//                                (indices, counters, stats, DV contents)
//                                used by every backend-equivalence test;
//  * ScratchDir                — RAII temp directory under TMPDIR for the
//                                persistent backends (CI points TMPDIR at a
//                                tmpfs so sanitizer runs never touch disk).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ccp/zigzag.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "harness/system.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rdtgc::test {

/// gtest parameter names must be alphanumeric.
inline std::string sanitize(std::string s) {
  for (char& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return s;
}

/// Durability policy forced by the RDTGC_FORCE_DURABILITY env var — the CI
/// forced-policy leg re-runs the persistent-storage suites with the async
/// pipeline on: "sync", "group" (group commit, window 8), or "background".
/// nullopt when unset.
inline std::optional<ckpt::DurabilityPolicy> forced_durability() {
  const char* env = std::getenv("RDTGC_FORCE_DURABILITY");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const std::string value(env);
  if (value == "sync") return ckpt::DurabilityPolicy::Sync();
  if (value == "group") return ckpt::DurabilityPolicy::GroupCommit(8);
  if (value == "background") return ckpt::DurabilityPolicy::Background(8);
  ADD_FAILURE() << "unknown RDTGC_FORCE_DURABILITY value: " << value;
  return std::nullopt;
}

/// Apply the forced policy (if any) to a storage config; in-memory configs
/// are left alone (the pipeline only exists over persistent media).
inline ckpt::StorageConfig with_forced_durability(ckpt::StorageConfig config) {
  if (config.kind != ckpt::StorageBackendKind::kInMemory) {
    if (const auto forced = forced_durability()) config.durability = *forced;
  }
  return config;
}

inline void audit_eq2(const ccp::CcpRecorder& recorder) {
  const ccp::DvPrecedence dv(recorder);
  const ccp::CausalGraph truth(recorder);
  const auto n = static_cast<ProcessId>(recorder.process_count());
  for (ProcessId a = 0; a < n; ++a) {
    const CheckpointIndex la = recorder.last_stable(a);
    for (CheckpointIndex alpha = 0; alpha <= la + 1; ++alpha) {
      for (ProcessId b = 0; b < n; ++b) {
        const CheckpointIndex lb = recorder.last_stable(b);
        for (CheckpointIndex beta = 0; beta <= lb + 1; ++beta) {
          ASSERT_EQ(dv.precedes(a, alpha, b, beta),
                    truth.precedes(a, alpha, b, beta))
              << "Eq.2 mismatch: c_" << a << "^" << alpha << " vs c_" << b
              << "^" << beta;
        }
      }
    }
  }
}

inline void audit_rdt(const ccp::CcpRecorder& recorder) {
  const ccp::CausalGraph causal(recorder);
  const ccp::ZigzagAnalysis zigzag(recorder);
  const auto violation = ccp::check_rdt(recorder, causal, zigzag);
  ASSERT_FALSE(violation.has_value()) << violation->to_string();
}

inline void audit_safety_theorem1(const harness::System& system) {
  const auto& recorder = system.recorder();
  const ccp::CausalGraph causal(recorder);
  const auto obsolete = ccp::obsolete_theorem1(recorder, causal);
  for (ProcessId p = 0; p < static_cast<ProcessId>(system.process_count());
       ++p) {
    const auto& flags = obsolete[static_cast<std::size_t>(p)];
    for (CheckpointIndex g = 0; g < static_cast<CheckpointIndex>(flags.size());
         ++g) {
      if (!flags[static_cast<std::size_t>(g)]) {
        ASSERT_TRUE(system.node(p).store().contains(g))
            << "non-obsolete s_" << p << "^" << g
            << " is missing: an unsafe collection happened";
      }
    }
  }
}

inline void audit_exact_corollary1(const harness::System& system) {
  const auto& recorder = system.recorder();
  for (ProcessId p = 0; p < static_cast<ProcessId>(system.process_count());
       ++p) {
    const std::vector<CheckpointIndex> expected =
        ccp::retained_corollary1(recorder, p);
    const std::vector<CheckpointIndex> stored =
        system.node(p).store().stored_indices();
    ASSERT_EQ(stored, expected)
        << "RDT-LGC retained set of p" << p
        << " differs from the Corollary-1 set (optimality/safety breach)";
  }
}

inline void audit_eq4(const harness::System& system) {
  const auto& recorder = system.recorder();
  const ccp::DvPrecedence causal(recorder);
  const auto n = static_cast<ProcessId>(system.process_count());
  for (ProcessId i = 0; i < n; ++i) {
    const CheckpointIndex last_i = recorder.last_stable(i);
    const auto& uc = system.rdt_lgc(i).uc();
    for (ProcessId f = 0; f < n; ++f) {
      const CheckpointIndex last_f = recorder.last_stable(f);
      for (CheckpointIndex g = 0; g <= last_i; ++g) {
        if (causal.precedes(f, last_f, i, g + 1) &&
            !causal.precedes(f, last_f, i, g)) {
          const auto entry = uc.entry(f);
          ASSERT_TRUE(entry.has_value())
              << "Eq.4: UC[" << f << "] of p" << i << " is Null, expected s^"
              << g;
          ASSERT_EQ(*entry, g) << "Eq.4: UC[" << f << "] of p" << i;
        }
      }
    }
  }
}

inline void audit_bounds(const harness::System& system) {
  const std::size_t n = system.process_count();
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    ASSERT_LE(system.node(p).store().count(), n)
        << "steady-state bound n violated at p" << p;
    ASSERT_LE(system.node(p).store().stats().peak_count, n + 1)
        << "transient bound n+1 violated at p" << p;
  }
}

/// Assemble a system + workload, run it to completion, return the system.
struct RunSpec {
  std::size_t n = 4;
  ckpt::ProtocolKind protocol = ckpt::ProtocolKind::kFdas;
  harness::GcChoice gc = harness::GcChoice::kRdtLgc;
  workload::WorkloadKind workload = workload::WorkloadKind::kUniform;
  SimTime duration = 4000;
  std::uint64_t seed = 1;
  double loss = 0.0;
  double checkpoint_probability = 0.2;
  /// Stable-storage backend of every process (persistent kinds need a
  /// directory, e.g. from a ScratchDir).
  ckpt::StorageConfig storage;
  /// Base workload config: shape knobs (pareto_alpha, hotspot_fraction,
  /// bucket_rate, ...) are taken from here; kind, seed and
  /// checkpoint_probability are overridden by the fields above.
  workload::WorkloadConfig wl;
};

inline std::unique_ptr<harness::System> run_workload(const RunSpec& spec) {
  harness::SystemConfig config;
  config.process_count = spec.n;
  config.protocol = spec.protocol;
  config.gc = spec.gc;
  config.seed = spec.seed;
  config.network.loss_probability = spec.loss;
  config.node.storage = spec.storage;
  auto system = std::make_unique<harness::System>(config);

  workload::WorkloadConfig wl = spec.wl;
  wl.kind = spec.workload;
  wl.seed = spec.seed * 7919 + 13;
  wl.checkpoint_probability = spec.checkpoint_probability;
  workload::WorkloadDriver driver(system->simulator(), system->node_ptrs(), wl);
  driver.start(spec.duration);
  system->simulator().run();
  return system;
}

// ---- Randomized stable-storage trace harness ------------------------------

/// One seeded randomized schedule of stable-storage operations — the
/// contract every checkpoint-store implementation is property-tested
/// against.  The schedule is generated eagerly (so every store replays the
/// IDENTICAL operation sequence, including the same mix of value-put and
/// copy-in-put overloads) and maintains a live set the way the middleware
/// does: puts are strictly increasing within a lineage with occasional
/// index gaps (stripes fill unevenly), collects hit a random live
/// checkpoint (GC eliminations), and a discard_after rolls the lineage back
/// and may reuse indices.  Put payloads (DV contents, byte sizes,
/// timestamps) are deterministic functions of the op, so two replays store
/// bit-identical data.
class RandomStoreTrace {
 public:
  struct Op {
    enum class Kind { kPut, kPutCopyIn, kCollect, kDiscardAfter };
    Kind kind;
    CheckpointIndex index;
    std::uint64_t bytes;
    SimTime at;
  };

  explicit RandomStoreTrace(std::uint64_t seed, int steps = 400,
                            std::size_t dv_width = 4)
      : dv_width_(dv_width) {
    util::Rng rng(seed);
    CheckpointIndex next = 0;
    std::vector<CheckpointIndex> live;
    ops_.reserve(static_cast<std::size_t>(steps));
    for (int step = 0; step < steps; ++step) {
      const double dice = rng.uniform01();
      if (live.empty() || dice < 0.55) {
        // put: sometimes skip indices so stripes fill unevenly.
        next += static_cast<CheckpointIndex>(1 + rng.uniform(3));
        Op op;
        op.kind = rng.bernoulli(0.5) ? Op::Kind::kPut : Op::Kind::kPutCopyIn;
        op.index = next;
        op.bytes = 1 + rng.uniform(8);
        op.at = static_cast<SimTime>(step);
        ops_.push_back(op);
        live.push_back(next);
      } else if (dice < 0.9) {
        // collect a random live checkpoint (a GC elimination).
        const std::size_t k = rng.uniform(live.size());
        ops_.push_back(Op{Op::Kind::kCollect, live[k], 0, 0});
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        // rollback discard after a random live checkpoint.
        const CheckpointIndex ri = live[rng.uniform(live.size())];
        ops_.push_back(Op{Op::Kind::kDiscardAfter, ri, 0, 0});
        std::erase_if(live, [ri](CheckpointIndex g) { return g > ri; });
        next = ri;  // lineage restart: indices may be reused
      }
    }
  }

  const std::vector<Op>& ops() const { return ops_; }
  std::size_t dv_width() const { return dv_width_; }

  /// The dependency vector a put op stores: a deterministic function of the
  /// op, so every replay of the trace stores identical payloads.
  causality::DependencyVector dv_for(const Op& op) const {
    causality::DependencyVector dv(dv_width_);
    for (std::size_t j = 0; j < dv_width_; ++j)
      dv.at(static_cast<ProcessId>(j)) = static_cast<IntervalIndex>(
          (static_cast<std::uint64_t>(op.index) * 31 + op.at * 7 + j) % 97);
    return dv;
  }

  /// Apply one op to any store-shaped object (flat store, process store, or
  /// a bare StorageBackend — they share the mutation signatures).
  template <typename Store>
  void apply(const Op& op, Store& store) const {
    switch (op.kind) {
      case Op::Kind::kPut:
        store.put(ckpt::StoredCheckpoint{op.index, dv_for(op), op.at,
                                         op.bytes});
        break;
      case Op::Kind::kPutCopyIn: {
        const causality::DependencyVector dv = dv_for(op);
        store.put(op.index, dv, op.at, op.bytes);
        break;
      }
      case Op::Kind::kCollect:
        store.collect(op.index);
        break;
      case Op::Kind::kDiscardAfter:
        store.discard_after(op.index);
        break;
    }
  }

  /// Replay the whole schedule into `store`.
  template <typename Store>
  void replay(Store& store) const {
    for (const Op& op : ops_) apply(op, store);
  }

  /// Replay only the first `count` ops — the kill-inside-the-commit-window
  /// schedules: a crash test replays a random prefix, drops the store with
  /// the tail of the last group-commit window still un-synced, and audits
  /// what recovery reconstructs.
  template <typename Store>
  void replay_prefix(Store& store, std::size_t count) const {
    count = std::min(count, ops_.size());
    for (std::size_t i = 0; i < count; ++i) apply(ops_[i], store);
  }

 private:
  std::size_t dv_width_;
  std::vector<Op> ops_;
};

/// Full observable-state equality of two stores: membership, payload DVs,
/// the ascending index view, counters, and lifetime stats.  `reference` is
/// usually the flat CheckpointStore the trace was also replayed into.
template <typename Reference, typename Store>
void expect_stores_equal(const Reference& reference, const Store& store) {
  ASSERT_EQ(store.stored_indices(), reference.stored_indices());
  ASSERT_EQ(store.count(), reference.count());
  ASSERT_EQ(store.bytes(), reference.bytes());
  ASSERT_EQ(store.stats().stored, reference.stats().stored);
  ASSERT_EQ(store.stats().collected, reference.stats().collected);
  ASSERT_EQ(store.stats().discarded, reference.stats().discarded);
  ASSERT_EQ(store.stats().peak_count, reference.stats().peak_count);
  ASSERT_EQ(store.stats().peak_bytes, reference.stats().peak_bytes);
  if (reference.count() > 0)
    ASSERT_EQ(store.last_index(), reference.last_index());
  for (const CheckpointIndex g : reference.stored_indices()) {
    ASSERT_TRUE(store.contains(g)) << "index " << g;
    ASSERT_EQ(store.get(g).dv, reference.get(g).dv) << "index " << g;
    ASSERT_EQ(store.get(g).bytes, reference.get(g).bytes) << "index " << g;
    ASSERT_EQ(store.get(g).stored_at, reference.get(g).stored_at)
        << "index " << g;
    // The trait's zero-copy read path must agree with the owning copy (for
    // the mmap backend this compares the mapped file against the mirror).
    ASSERT_TRUE(store.dv_view(g) == reference.get(g).dv) << "index " << g;
  }
}

/// Non-asserting variant of expect_stores_equal, for searching over crash
/// candidates: true iff the two stores' full observable state (indices,
/// payloads, counters, lifetime stats) matches.
template <typename Reference, typename Store>
bool stores_match(const Reference& reference, const Store& store) {
  if (store.stored_indices() != reference.stored_indices()) return false;
  if (store.count() != reference.count()) return false;
  if (store.bytes() != reference.bytes()) return false;
  const auto& rs = reference.stats();
  const auto& ss = store.stats();
  if (ss.stored != rs.stored || ss.collected != rs.collected ||
      ss.discarded != rs.discarded || ss.peak_count != rs.peak_count ||
      ss.peak_bytes != rs.peak_bytes) {
    return false;
  }
  for (const CheckpointIndex g : reference.stored_indices()) {
    if (!store.contains(g)) return false;
    if (!(store.get(g).dv == reference.get(g).dv)) return false;
    if (store.get(g).bytes != reference.get(g).bytes) return false;
    if (store.get(g).stored_at != reference.get(g).stored_at) return false;
  }
  return true;
}

/// The async-durability crash contract (durability_pipeline.hpp): a store
/// dropped mid-window must recover to the state after SOME prefix of the
/// acknowledged schedule — never a reordering, never a gap.  Replays
/// `trace`'s schedule op by op into a fresh in-memory reference (same owner
/// as `store`) and asserts the recovered `store` matches one of the
/// intermediate states, at or after `at_least` applied ops and at most
/// `applied` (the ops acknowledged before the drop).  Returns the
/// prefix length found.
template <typename Store>
std::size_t expect_consistent_prefix(const RandomStoreTrace& trace,
                                     const Store& store, std::size_t applied,
                                     std::size_t at_least = 0) {
  ckpt::ShardedCheckpointStore reference(store.owner());
  applied = std::min(applied, trace.ops().size());
  std::size_t prefix = 0;
  if (at_least == 0 && stores_match(reference, store)) return 0;
  for (std::size_t i = 0; i < applied; ++i) {
    trace.apply(trace.ops()[i], reference);
    ++prefix;
    if (prefix >= at_least && stores_match(reference, store)) return prefix;
  }
  ADD_FAILURE() << "recovered store matches no prefix of the acknowledged "
                   "schedule (applied="
                << applied << ", at_least=" << at_least << ")";
  return prefix;
}

/// RAII scratch directory for the persistent storage backends, created
/// under the platform temp directory (honors TMPDIR — CI points it at a
/// tmpfs) and removed, with contents, on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    const std::uint64_t id = counter.fetch_add(1);
    path_ = (std::filesystem::temp_directory_path() /
             ("rdtgc_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(id)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace rdtgc::test
