// The benchmark's workloads.  Every one is closed-loop with one driver
// thread; its inputs come from the run's seed alone.
//
//  * sim-mem     — harness::System, n=64, FDAS + RDT-LGC, uniform workload,
//                  basic-checkpoint p=0.2, in-memory stores, horizon 150k
//                  (~0.8M deliveries): simulator, node, recorder and GC.
//  * sim-durable — n=8, FDAS + RDT-LGC, uniform, p=0.5, log-structured
//                  stores on disk under GroupCommit(16), horizon 32k, a
//                  kill/attach + recovery session about every 2000 ticks:
//                  store, durability and recovery.
//  * fleet       — transport::ProcFleet of 4 rdtgc_proc workers (mmap, sync
//                  durability), 8000 commands (80% send_app, 20%
//                  basic_checkpoint) and 20 evenly spaced kill_and_restart,
//                  then shutdown and replay certification: transport.
//
// A run repeats whole episodes (fresh system, fixed size, seed derived from
// the run seed and the episode number) until --seconds have passed, and
// summarizes them with report_end_to_end (common.hpp).  perfbench/README.md
// lists the metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

enum class WorkloadId { kSimMem, kSimDurable, kFleet };

const char* workload_name(WorkloadId id);

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Scratch root inside the checkout: media, sockets, event logs.
  std::string work_dir;
  /// The socket-transport worker binary (fleet only).
  std::string proc_bin;
};

/// Tolerance on the traced runs' self-time table: the layers' self times
/// must cover the traced total (the timed region's wall time) to within
/// this share; the rest is loop overhead between spans.
inline constexpr double kSelfTimeTolerance = 0.10;

/// Untraced runs: the end-to-end metrics (except ops_ok_frac, which the
/// caller derives from the outcome's counts) plus the correctness gates.
void measure_sim(WorkloadId id, const RunContext& ctx, Outcome& out);
void measure_fleet(const RunContext& ctx, Outcome& out);

/// Traced passes: one untraced reference episode and one traced episode of
/// the same seed; gates that their deterministic counts match, and reports
/// the per-layer metrics whose home is this workload.
std::unique_ptr<Tracer> trace_sim(WorkloadId id, const RunContext& ctx,
                                  Outcome& out);
std::unique_ptr<Tracer> trace_fleet(const RunContext& ctx, Outcome& out);

/// Layer floors of the transport on the fleet's own frame shapes.
void probe_transport_floors(const RunContext& ctx, Outcome& out);

}  // namespace perfbench
