// T-E: rollback cost under failures (§2.4 and [1]) and garbage collection
// during recovery sessions (Algorithm 3).
//
// Four comparisons on identical failure schedules:
//  * uncoordinated vs FDAS: lost work per failure (the domino risk, Def. 5);
//  * Algorithm 3 with global information (LI) vs causal-only (DV): extra
//    checkpoints collected during recovery;
//  * GC safety across failures (verdict from the Theorem-1 oracle);
//  * persistence backends (in-memory / mmap / log-structured): identical
//    rollback figures, plus a full restart-from-disk at the end of the run —
//    stores reopened via recover() must reproduce the live stored sets and
//    the Lemma-1 recovery line ("disk restart" column).
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"
#include "harness/system.hpp"
#include "recovery/failure_injector.hpp"
#include "recovery/recovery_manager.hpp"
#include "workload/workload.hpp"

using namespace rdtgc;

namespace {

struct Row {
  std::string name;
  std::uint64_t sessions = 0;
  double mean_rolled_back = 0;  // general checkpoints per session (Def. 5)
  std::uint64_t discarded = 0;
  std::uint64_t collected = 0;
  bool safe = true;
  /// Full restart-from-disk check (persistent backends): reopened stores
  /// reproduce the live stored sets and the Lemma-1 recovery line.
  enum class Restart { kNotApplicable, kOk, kFailed };
  Restart restart = Restart::kNotApplicable;
};

const char* restart_cell(Row::Restart restart) {
  switch (restart) {
    case Row::Restart::kNotApplicable:
      return "n/a";
    case Row::Restart::kOk:
      return "yes";
    case Row::Restart::kFailed:
      return "NO";
  }
  return "?";
}

Row run(const std::string& name, ckpt::ProtocolKind protocol,
        harness::GcChoice gc, bool global_info,
        recovery::LineAlgorithm line_algorithm, std::size_t n,
        SimTime duration, std::uint64_t seed,
        const ckpt::StorageConfig& storage = {}) {
  harness::SystemConfig config;
  config.process_count = n;
  config.protocol = protocol;
  config.gc = gc;
  config.seed = seed;
  config.node.storage = storage;
  harness::System system(config);

  workload::WorkloadConfig wl;
  wl.seed = seed + 1;
  workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(), wl);
  driver.start(duration);

  recovery::RecoveryManager::Config rc;
  rc.global_information = global_info;
  rc.line_algorithm = line_algorithm;
  recovery::RecoveryManager manager(system.simulator(), system.network(),
                                    system.recorder(), system.node_ptrs(), rc);
  recovery::FailureInjector::Config fc;
  fc.mean_interval = duration / 8;
  fc.seed = seed + 2;
  recovery::FailureInjector injector(system.simulator(), manager, n, fc);
  injector.start(duration);
  system.simulator().run();

  Row row;
  row.name = name;
  row.sessions = manager.stats().sessions;
  row.mean_rolled_back =
      row.sessions == 0
          ? 0.0
          : static_cast<double>(
                manager.stats().general_checkpoints_rolled_back) /
                static_cast<double>(row.sessions);
  row.discarded = manager.stats().checkpoints_discarded;
  row.collected = system.total_collected();

  // Safety audit: everything Theorem 1 calls non-obsolete is still stored.
  const ccp::CausalGraph causal(system.recorder());
  const auto obsolete = ccp::obsolete_theorem1(system.recorder(), causal);
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p)
    for (CheckpointIndex g = 0; g <= system.recorder().last_stable(p); ++g)
      if (!obsolete[static_cast<std::size_t>(p)][static_cast<std::size_t>(g)] &&
          !system.node(p).store().contains(g))
        row.safe = false;

  if (storage.kind != ckpt::StorageBackendKind::kInMemory) {
    // Full restart from the persisted media: reopen every store, recover,
    // and require the stored sets and the Lemma-1 recovery line back.
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p)
      system.node(p).store().flush();
    ckpt::StorageConfig attach = storage;
    attach.open_mode = ckpt::OpenMode::kAttach;
    std::vector<std::unique_ptr<ckpt::ShardedCheckpointStore>> reopened;
    std::vector<const ckpt::ShardedCheckpointStore*> ptrs;
    bool ok = true;
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      reopened.push_back(
          std::make_unique<ckpt::ShardedCheckpointStore>(p, attach));
      reopened.back()->recover();
      ok = ok && reopened.back()->stored_indices() ==
                     system.node(p).store().stored_indices();
      ptrs.push_back(reopened.back().get());
    }
    if (ok) {
      const ccp::DvPrecedence dv_causal(system.recorder());
      std::vector<bool> all_faulty(n, true);
      const std::vector<CheckpointIndex> oracle = ccp::recovery_line_lemma1(
          system.recorder(), dv_causal, all_faulty);
      const std::vector<CheckpointIndex> line =
          recovery::recovery_line_from_storage(ptrs);
      for (std::size_t p = 0; p < n; ++p)
        ok = ok && line[p] == std::min(oracle[p], ptrs[p]->last_index());
    }
    row.restart = ok ? Row::Restart::kOk : Row::Restart::kFailed;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options(argc, argv, {"n", "duration", "seed"});
  const std::size_t n = options.u64("n", 6);
  const SimTime duration = options.u64("duration", 16000);
  const std::uint64_t seed = options.u64("seed", 11);
  bench::banner("T-E: rollback cost and recovery-time collection");

  util::Table table({"configuration", "sessions", "rolled-back/session",
                     "discarded", "collected", "GC safe", "disk restart"});
  std::vector<Row> rows;
  rows.push_back(run("uncoordinated + no GC (R-graph line)",
                     ckpt::ProtocolKind::kUncoordinated,
                     harness::GcChoice::kNone, true,
                     recovery::LineAlgorithm::kRGraph, n, duration, seed));
  rows.push_back(run("FDAS + no GC", ckpt::ProtocolKind::kFdas,
                     harness::GcChoice::kNone, true,
                     recovery::LineAlgorithm::kLemma1, n, duration, seed));
  rows.push_back(run("FDAS + RDT-LGC, global info (LI)",
                     ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
                     true, recovery::LineAlgorithm::kLemma1, n, duration,
                     seed));
  rows.push_back(run("FDAS + RDT-LGC, causal only (DV)",
                     ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
                     false, recovery::LineAlgorithm::kLemma1, n, duration,
                     seed));
  // Persistence backends under the identical schedule as the in-memory
  // RDT-LGC+LI row: same rollback figures, plus the restart-from-disk check.
  ckpt::StorageConfig mmap_cfg;
  mmap_cfg.kind = ckpt::StorageBackendKind::kMmapFile;
  mmap_cfg.directory = bench::scratch_dir("mmap");
  rows.push_back(run("FDAS + RDT-LGC, LI, mmap storage",
                     ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
                     true, recovery::LineAlgorithm::kLemma1, n, duration,
                     seed, mmap_cfg));
  ckpt::StorageConfig log_cfg;
  log_cfg.kind = ckpt::StorageBackendKind::kLogStructured;
  log_cfg.directory = bench::scratch_dir("log");
  rows.push_back(run("FDAS + RDT-LGC, LI, log storage",
                     ckpt::ProtocolKind::kFdas, harness::GcChoice::kRdtLgc,
                     true, recovery::LineAlgorithm::kLemma1, n, duration,
                     seed, log_cfg));
  bool all_safe = true;
  for (const Row& row : rows) {
    all_safe = all_safe && row.safe;
    table.begin_row()
        .add_cell(row.name)
        .add_cell(row.sessions)
        .add_cell(row.mean_rolled_back)
        .add_cell(row.discarded)
        .add_cell(row.collected)
        .add_cell(row.safe ? "yes" : "NO")
        .add_cell(restart_cell(row.restart));
  }
  bench::emit(table,
              "n=" + std::to_string(n) + " duration=" + std::to_string(duration),
              options.csv());

  bench::verdict(all_safe, "no configuration ever collected a needed checkpoint");
  const bool rdt_helps = rows[1].mean_rolled_back <= rows[0].mean_rolled_back;
  bench::verdict(rdt_helps,
                 "RDT bounds rollback propagation vs the uncoordinated run");
  const bool li_collects_more = rows[2].collected >= rows[3].collected;
  bench::verdict(li_collects_more,
                 "global-information recovery (LI) collects at least as much "
                 "as the causal-only variant");
  bool backends_identical = true;
  bool restarts_ok = true;
  for (const std::size_t b : {std::size_t{4}, std::size_t{5}}) {
    backends_identical = backends_identical &&
                         rows[b].sessions == rows[2].sessions &&
                         rows[b].mean_rolled_back == rows[2].mean_rolled_back &&
                         rows[b].discarded == rows[2].discarded &&
                         rows[b].collected == rows[2].collected;
    restarts_ok = restarts_ok && rows[b].restart == Row::Restart::kOk;
  }
  bench::verdict(backends_identical,
                 "mmap and log-structured storage reproduce the in-memory "
                 "rollback figures exactly");
  bench::verdict(restarts_ok,
                 "stores reopened from disk via recover() reproduce the "
                 "stored sets and the Lemma-1 recovery line");
  return (all_safe && li_collects_more && backends_identical && restarts_ok)
             ? 0
             : 1;
}
