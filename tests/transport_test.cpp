// Multi-process socket-transport tests (the ISSUE's tentpole acceptance).
//
// These tests fork REAL OS processes: each run spawns one rdtgc_proc worker
// per checkpointing process (binary path injected by CMake through the
// RDTGC_PROC_BIN environment variable), wires them to the parent over
// Unix-domain SOCK_SEQPACKET sockets, drives a workload, SIGKILLs workers
// mid-run, re-attaches their replacements from the mmap/log media — and
// then certifies the whole distributed execution by replaying the parent's
// merged event log through the deterministic simulator
// (transport/replay.hpp): every DV, interval, forced-checkpoint decision,
// counter, and stored-index set must match bit for bit, and the Lemma-1
// recovery line computed from the REAL media on disk must equal the line
// from the replayed system's media.
//
// The acceptance pins: a 4-process run with >= 2 quiesced SIGKILL /
// re-attach cycles replays bit-identically (FourProcessChaosRun); a run
// whose kill orphans a delivered message completes a WIRE-DRIVEN recovery
// session (RecoveryStart broadcast, per-worker rollback, RolledBack
// barrier) and certifies with the full Eq2/RDT/Theorem-1 battery — no
// orphan-gated skips — including a run where a second SIGKILL lands
// mid-session and the session restarts with the accumulated faulty set.
// A seed sweep generalizes it property-style across random workloads and
// reports its orphan-gate skip count, which must be zero now that every
// orphaning kill runs a session (RDTGC_TRANSPORT_SOAK=1 stretches the
// sweep for the nightly leg and raises the orphan-forcing rate); the
// unclean SIGKILL case checks liveness (re-attach works) and that the
// replay certifies exactly the clean prefix, stopping at the tagged
// uncertifiable position; a tamper test shows the oracle actually bites.
// Every fleet wait is deadline-bounded, so a hung worker fails fast
// instead of hanging CI (ctest adds a TIMEOUT belt on top).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/sharded_checkpoint_store.hpp"
#include "helpers.hpp"
#include "recovery/recovery_manager.hpp"
#include "transport/event_log.hpp"
#include "transport/proc_fleet.hpp"
#include "transport/replay.hpp"

namespace rdtgc::transport {
namespace {

using test::ScratchDir;

std::string proc_bin() {
  const char* env = std::getenv("RDTGC_PROC_BIN");
  return env != nullptr ? env : "";
}

/// 1 for the tier-1 run, 5 for the nightly socket-kill soak
/// (RDTGC_TRANSPORT_SOAK=1): 5x the seeds, 2x the ops and the kill budget
/// per seed, so the soak pushes hundreds of SIGKILL/re-attach cycles
/// through real processes per night.
int soak_factor() {
  const char* env = std::getenv("RDTGC_TRANSPORT_SOAK");
  if (env == nullptr || *env == '\0' || std::string(env) == "0") return 1;
  return 5;
}

FleetConfig fleet_config(const ScratchDir& dir, std::size_t n) {
  FleetConfig config;
  config.process_count = n;
  config.scratch_dir = dir.path();
  config.worker_binary = proc_bin();
  return config;
}

ReplayConfig replay_config(const ScratchDir& dir, std::size_t n) {
  ReplayConfig config;
  config.process_count = n;
  config.scratch_dir = dir.path() + "/replay";
  return config;
}

/// Lemma-1 recovery line of a full restart from the fleet's on-disk media:
/// reopen every worker's store with OpenMode::kAttach, recover, evaluate.
std::vector<CheckpointIndex> line_from_fleet_media(const ProcFleet& fleet,
                                                   std::size_t n) {
  std::vector<std::unique_ptr<ckpt::ShardedCheckpointStore>> stores;
  std::vector<const ckpt::ShardedCheckpointStore*> ptrs;
  for (std::size_t p = 0; p < n; ++p) {
    ckpt::StorageConfig storage;
    storage.kind = ckpt::StorageBackendKind::kMmapFile;
    storage.directory = fleet.storage_dir(static_cast<ProcessId>(p));
    storage.open_mode = ckpt::OpenMode::kAttach;
    stores.push_back(std::make_unique<ckpt::ShardedCheckpointStore>(
        static_cast<ProcessId>(p), storage));
    stores.back()->recover();
    ptrs.push_back(stores.back().get());
  }
  return recovery::recovery_line_from_storage(ptrs);
}

std::vector<CheckpointIndex> line_from_replay_system(
    const harness::System& system) {
  std::vector<const ckpt::ShardedCheckpointStore*> ptrs;
  for (std::size_t p = 0; p < system.process_count(); ++p)
    ptrs.push_back(&system.node(static_cast<ProcessId>(p)).store());
  return recovery::recovery_line_from_storage(ptrs);
}

/// Orphan-gate skips across the whole binary: runs where the graph-based
/// oracles (Eq. 2 / RDT / Theorem 1) had to be skipped because the final
/// recorder still contained an orphan receive.  Before wire-driven recovery
/// sessions existed this was the expected cost of an orphaning kill; now
/// every such kill runs the paper's session, so the count must be ZERO —
/// the sweep asserts it and prints it in its summary.
std::uint64_t g_orphan_gate_skips = 0;

/// Run the full certification battery over a completed, quiesced-only run.
///
/// A kill CAN orphan: if the victim sent from its volatile interval and the
/// message was delivered before the quiesce, the re-attach rolls the send
/// record back while the receive stays live.  The fleet repairs exactly
/// that state with a wire-driven recovery session, so by the final State
/// digests the recorder is orphan-free again and the full oracle battery
/// applies UNCONDITIONALLY — there is no orphan gate anymore, and a run
/// that still trips it is a bug (counted in g_orphan_gate_skips).
void certify(const ProcFleet& fleet, const ScratchDir& dir, std::size_t n) {
  ReplayResult replay = replay_event_log(fleet.log_path(),
                                         replay_config(dir, n));
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_NE(replay.system, nullptr);
  EXPECT_FALSE(replay.stopped_at.has_value()) << replay.stop_reason;

  if (!replay.system->recorder().audit_no_orphans()) {
    ++g_orphan_gate_skips;
    FAIL() << "recorder still holds an orphan after "
           << fleet.recovery_sessions() << " recovery sessions";
  }
  test::audit_eq2(replay.system->recorder());
  test::audit_rdt(replay.system->recorder());
  test::audit_safety_theorem1(*replay.system);

  // The REAL media on disk must agree with the replayed media on the
  // recovery line a full cluster restart would use (Lemma 1 over storage).
  EXPECT_EQ(line_from_fleet_media(fleet, n),
            line_from_replay_system(*replay.system));
}

// ---- The acceptance run ---------------------------------------------------

TEST(Transport, FourProcessChaosRunReplaysBitIdentical) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 4;
  ScratchDir dir("transport_accept");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();

  // Phase 1: mesh traffic + checkpoints building cross-process dependencies.
  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.send_app(2, 3));
  ASSERT_TRUE(fleet.send_app(3, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(0));
  ASSERT_TRUE(fleet.send_app(0, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(1));

  // SIGKILL cycle one: quiesce p1, kill -9, re-attach from its mmap media.
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(1), 1u);

  // Phase 2: the replacement participates immediately.
  ASSERT_TRUE(fleet.send_app(1, 3));
  ASSERT_TRUE(fleet.send_app(3, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(3));
  ASSERT_TRUE(fleet.send_app(2, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(1));

  // SIGKILL cycle two, different victim.
  ASSERT_TRUE(fleet.kill_and_restart(3)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(3), 1u);

  // Phase 3, including a second death of an already-restarted process.
  ASSERT_TRUE(fleet.send_app(3, 2));
  ASSERT_TRUE(fleet.send_app(2, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(1), 2u);
  ASSERT_TRUE(fleet.send_app(1, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(0));

  ASSERT_TRUE(fleet.shutdown()) << fleet.error();
  EXPECT_EQ(fleet.dropped(), 0u);  // quiesced kills lose nothing

  // The script checkpoints every victim after its last send, so no kill
  // orphans anything and no session ever fires.
  EXPECT_EQ(fleet.recovery_sessions(), 0u);
  EXPECT_EQ(fleet.orphans_repaired(), 0u);
  certify(fleet, dir, n);
}

// ---- Property sweep: random workloads, many seeds -------------------------

/// Accumulated across every seed of a sweep and printed in its summary:
/// how often the recovery-session machinery actually fired, and how often
/// the orphan gate forced an oracle skip (must stay zero).
struct SweepStats {
  std::uint64_t runs = 0;
  std::uint64_t sessions = 0;
  std::uint64_t restarts = 0;
  std::uint64_t orphans_repaired = 0;
};

void random_run(std::uint64_t seed, SweepStats& stats) {
  const std::size_t n = 3;
  ScratchDir dir("transport_seed" + std::to_string(seed));
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << "seed " << seed << ": " << fleet.error();

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<std::size_t> proc(0, n - 1);
  const int ops = soak_factor() > 1 ? 60 : 30;
  const int max_kills = soak_factor() > 1 ? 6 : 3;
  // Orphan-forcing rate: the soak leg leans harder on the recovery-session
  // path (a send immediately followed by the sender's kill ALWAYS orphans:
  // the delivery lands during the quiesce drain, then the re-attach rolls
  // the volatile send record back).
  const int orphan_roll = soak_factor() > 1 ? 90 : 95;
  int kills = 0;
  for (int op = 0; op < ops; ++op) {
    const int roll = op_dist(rng);
    if (roll < 60) {
      const auto src = static_cast<ProcessId>(proc(rng));
      auto dst = static_cast<ProcessId>(proc(rng));
      if (dst == src) dst = static_cast<ProcessId>((src + 1) % n);
      ASSERT_TRUE(fleet.send_app(src, dst))
          << "seed " << seed << ": " << fleet.error();
    } else if (roll < 85 || kills >= max_kills) {
      ASSERT_TRUE(fleet.basic_checkpoint(static_cast<ProcessId>(proc(rng))))
          << "seed " << seed << ": " << fleet.error();
    } else if (roll < orphan_roll) {
      ++kills;
      ASSERT_TRUE(fleet.kill_and_restart(static_cast<ProcessId>(proc(rng))))
          << "seed " << seed << ": " << fleet.error();
    } else {
      ++kills;
      const auto victim = static_cast<ProcessId>(proc(rng));
      const auto peer = static_cast<ProcessId>((victim + 1) % n);
      ASSERT_TRUE(fleet.send_app(victim, peer))
          << "seed " << seed << ": " << fleet.error();
      ASSERT_TRUE(fleet.kill_and_restart(victim))
          << "seed " << seed << ": " << fleet.error();
    }
  }
  ASSERT_TRUE(fleet.shutdown()) << "seed " << seed << ": " << fleet.error();
  ++stats.runs;
  stats.sessions += fleet.recovery_sessions();
  stats.restarts += fleet.recovery_restarts();
  stats.orphans_repaired += fleet.orphans_repaired();

  ReplayResult replay =
      replay_event_log(fleet.log_path(), replay_config(dir, n));
  ASSERT_TRUE(replay.ok) << "seed " << seed << ": " << replay.error;
  if (replay.system->recorder().audit_no_orphans()) {
    test::audit_safety_theorem1(*replay.system);
  } else {
    ++g_orphan_gate_skips;
    ADD_FAILURE() << "seed " << seed << ": orphan survived "
                  << fleet.recovery_sessions() << " recovery sessions";
  }
  EXPECT_EQ(line_from_fleet_media(fleet, n),
            line_from_replay_system(*replay.system))
      << "seed " << seed;
}

TEST(Transport, TwentySeedsReplayBitIdentical) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::uint64_t seeds = 20 * static_cast<std::uint64_t>(soak_factor());
  SweepStats stats;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    random_run(seed, stats);
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The sweep summary the nightly soak log greps for: sessions exercised,
  // orphans repaired, and — the point of this PR — zero orphan-gated
  // oracle skips: every orphaning kill was repaired over the wire.
  std::cout << "[sweep] runs=" << stats.runs
            << " recovery_sessions=" << stats.sessions
            << " session_restarts=" << stats.restarts
            << " orphans_repaired=" << stats.orphans_repaired
            << " orphan_gate_skips=" << g_orphan_gate_skips << "\n";
  RecordProperty("recovery_sessions", static_cast<int>(stats.sessions));
  RecordProperty("orphan_gate_skips", static_cast<int>(g_orphan_gate_skips));
  EXPECT_EQ(g_orphan_gate_skips, 0u);
  // The schedule above contains deliberate orphan-forcing kills, so the
  // session machinery must actually have fired across the sweep.
  EXPECT_GT(stats.sessions, 0u);
  EXPECT_GE(stats.orphans_repaired, stats.sessions);
}

// ---- Wire-driven recovery sessions ----------------------------------------

/// Count log events of one kind.
std::size_t count_events(const std::vector<Event>& events, EventKind kind) {
  std::size_t count = 0;
  for (const Event& e : events)
    if (e.kind == kind) ++count;
  return count;
}

// The tentpole acceptance: a kill that orphans delivered messages triggers
// the paper's recovery session over the wire — RecoveryStart broadcast with
// the Lemma-1 line and LI vector, every worker rolls back (or runs peer
// recovery) and acks RolledBack — and the whole run, session included,
// replays bit-identically with the FULL oracle battery.  No skips.
TEST(Transport, OrphaningKillRunsWireRecoverySession) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_orphan");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();

  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));  // receive becomes checkpointed...
  ASSERT_TRUE(fleet.send_app(1, 0));
  // ...and p1 dies with BOTH sends still in its volatile interval: the
  // quiesce drain lands the deliveries, the re-attach resumes at p1's
  // initial checkpoint, and two live receives now cite a dead send.
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.recovery_sessions(), 1u);
  EXPECT_EQ(fleet.recovery_restarts(), 0u);
  EXPECT_EQ(fleet.orphans_repaired(), 2u);

  // Traffic resumes on the post-session lineage.
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.send_app(2, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(0));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  const std::vector<Event> events = read_event_log(fleet.log_path());
  EXPECT_EQ(count_events(events, EventKind::kRecoveryStart), 1u);
  EXPECT_EQ(count_events(events, EventKind::kRolledBack), n);

  certify(fleet, dir, n);
}

// A log in which an orphaning kill is NOT followed by a recovery session
// must be refused — and the refusal names the orphaning event, so the
// failure is diagnosable from the message alone.
TEST(Transport, OrphanedLogWithoutSessionIsRefusedByName) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_orphan_refuse");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.recovery_sessions(), 1u);
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  // Strip the session from the log: what remains is exactly the old
  // pre-session world — an orphaned run that used to be silently skipped.
  std::vector<Event> events = read_event_log(fleet.log_path());
  std::erase_if(events, [](const Event& e) {
    return e.kind == EventKind::kRecoveryStart ||
           e.kind == EventKind::kRolledBack;
  });
  ReplayResult refused = replay_events(events, replay_config(dir, n));
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("orphaned"), std::string::npos)
      << refused.error;
  EXPECT_NE(refused.error.find("recovery session"), std::string::npos)
      << refused.error;
}

// The restart-during-session acceptance: a second SIGKILL lands mid-session
// (one worker never sees the broadcast and dies), the session restarts with
// the accumulated faulty set and a new attempt, everyone re-applies, and
// the whole thing — both logged session starts, every ack — replays
// bit-identically.
TEST(Transport, SecondKillMidSessionRestartsAndCertifies) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_midsession");
  FleetConfig config = fleet_config(dir, n);
  config.recovery_withhold_then_kill = 2;  // second victim, mid-session
  ProcFleet fleet(config);
  ASSERT_TRUE(fleet.start()) << fleet.error();

  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.send_app(1, 0));
  // p1's kill orphans its volatile sends and starts the session; the test
  // hook withholds the broadcast from p2, collects the other acks, then
  // quiesce-kills p2 — the session must restart as {1, 2} and converge.
  ASSERT_TRUE(fleet.kill_and_restart(1)) << fleet.error();
  EXPECT_EQ(fleet.recovery_sessions(), 1u);
  EXPECT_EQ(fleet.recovery_restarts(), 1u);
  EXPECT_EQ(fleet.incarnation(1), 1u);
  EXPECT_EQ(fleet.incarnation(2), 1u);

  ASSERT_TRUE(fleet.send_app(2, 0));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  const std::vector<Event> events = read_event_log(fleet.log_path());
  // Two session starts (attempt 0 and the restarted attempt 1)...
  EXPECT_EQ(count_events(events, EventKind::kRecoveryStart), 2u);
  std::uint32_t max_attempt = 0;
  for (const Event& e : events)
    if (e.kind == EventKind::kRecoveryStart)
      max_attempt = std::max(max_attempt, e.attempt);
  EXPECT_EQ(max_attempt, 1u);
  // ...and at least the partial attempt-0 acks plus all attempt-1 acks.
  EXPECT_GE(count_events(events, EventKind::kRolledBack), n + 1);

  certify(fleet, dir, n);
}

// ---- Unclean SIGKILL: liveness yes, certification of the clean prefix ----

TEST(Transport, UncleanKillCertifiesExactlyTheCleanPrefix) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_unclean");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();

  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.send_app(2, 1));  // may still be in flight at the kill

  // No drain: frames can die unlogged in kernel socket buffers.
  ASSERT_TRUE(fleet.kill_unclean(1)) << fleet.error();
  ASSERT_TRUE(fleet.restart(1)) << fleet.error();
  EXPECT_EQ(fleet.incarnation(1), 1u);

  // Liveness: the replacement re-attached from its media and participates.
  ASSERT_TRUE(fleet.send_app(1, 0));
  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.basic_checkpoint(1));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  // The unclean kill tags the log with its own event index; replay
  // certifies everything before it and stops exactly there, reporting the
  // boundary instead of refusing the run wholesale.
  const std::vector<Event> events = read_event_log(fleet.log_path());
  std::size_t ukill_index = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kUncleanKill) {
      ukill_index = i;
      EXPECT_EQ(events[i].seq, i);  // the tag IS the event's own position
      break;
    }
  }
  ASSERT_LT(ukill_index, events.size());

  ReplayResult replay =
      replay_event_log(fleet.log_path(), replay_config(dir, n));
  EXPECT_TRUE(replay.ok) << replay.error;
  ASSERT_TRUE(replay.stopped_at.has_value());
  EXPECT_EQ(*replay.stopped_at, ukill_index);
  EXPECT_EQ(replay.events_replayed, ukill_index);
  EXPECT_NE(replay.stop_reason.find("unclean"), std::string::npos)
      << replay.stop_reason;
  EXPECT_NE(replay.stop_reason.find("clean prefix"), std::string::npos)
      << replay.stop_reason;
}

// ---- The oracle bites: a tampered log must fail certification -------------

TEST(Transport, TamperedLogFailsReplay) {
  ASSERT_FALSE(proc_bin().empty()) << "RDTGC_PROC_BIN not set";
  const std::size_t n = 3;
  ScratchDir dir("transport_tamper");
  ProcFleet fleet(fleet_config(dir, n));
  ASSERT_TRUE(fleet.start()) << fleet.error();
  ASSERT_TRUE(fleet.send_app(0, 1));
  ASSERT_TRUE(fleet.send_app(1, 2));
  ASSERT_TRUE(fleet.basic_checkpoint(2));
  ASSERT_TRUE(fleet.shutdown()) << fleet.error();

  std::vector<Event> events = read_event_log(fleet.log_path());
  ReplayResult honest = replay_events(events, replay_config(dir, n));
  ASSERT_TRUE(honest.ok) << honest.error;

  // Corrupt one delivered dependency-vector entry.
  bool tampered = false;
  for (Event& e : events) {
    if (e.kind == EventKind::kDeliver && !e.dv.empty()) {
      e.dv[0] += 1;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered) << "run produced no deliver events";
  ScratchDir tamper_dir("transport_tamper_replay");
  ReplayResult caught = replay_events(events, replay_config(tamper_dir, n));
  EXPECT_FALSE(caught.ok);
  EXPECT_NE(caught.error.find("deliver"), std::string::npos) << caught.error;
}

// ---- Deadline guard: a fleet that cannot spawn fails fast, never hangs ----

TEST(Transport, MissingWorkerBinaryFailsWithinDeadline) {
  const std::size_t n = 2;
  ScratchDir dir("transport_nobin");
  FleetConfig config = fleet_config(dir, n);
  config.worker_binary = dir.path() + "/no_such_binary";
  config.step_timeout_ms = 1000;
  ProcFleet fleet(config);
  EXPECT_FALSE(fleet.start());
  EXPECT_FALSE(fleet.error().empty());
}

}  // namespace
}  // namespace rdtgc::transport
