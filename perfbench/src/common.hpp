// Shared plumbing of the benchmark driver: clocks, order statistics, seeds,
// the per-run outcome (metrics + operation/failure counts) and the process
// memory probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Whether one more episode, as long as the average of the `done` so far,
/// still ends within `seconds` of `start`.
inline bool fits_another(Clock::time_point start, int done, double seconds) {
  const double elapsed = seconds_between(start, Clock::now());
  return elapsed + elapsed / done <= seconds;
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// Send latencies are summarized over windows of this many consecutive
/// samples (see windowed_percentile).
inline constexpr std::size_t kLatencyWindow = 1000;

/// Percentile q of a run's latency samples, taken in run order: the
/// percentile of every whole window of kLatencyWindow consecutive samples,
/// then the lower quartile of those (all samples as one window when there
/// are fewer).  Contention from other tenants comes in phases that only
/// slow samples down; short windows confine a phase to the windows it
/// overlaps, and the fast-side quartile passes over them.
double windowed_percentile(const std::vector<double>& samples, double q);

/// Independent 64-bit stream seed for (seed, salt): splitmix64 finalizer.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: its metrics and its operations.  An operation is a
/// workload activity, a fleet command, a restart, or one correctness gate at
/// one process; a failed gate or command is a failed operation.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one operation; record it as failed when !ok.
  void check(bool ok, const std::string& what);
  /// Count `n` operations that cannot fail on their own (workload
  /// activities, simulated restarts); their effects are gated by check().
  void count_ops(std::uint64_t n) { attempted += n; }
};

/// Every run completes at least this many episodes; the deterministic
/// counts (stored_per_process_max, forced_per_delivery) come from exactly
/// these.
inline constexpr int kMinEpisodes = 3;

/// One episode's end-to-end figures.
struct EpisodeFigures {
  double setup_s = 0;
  double deliveries_per_s = 0;
  double checkpoints_per_s = 0;
  double recovery_p50_ms = 0;
  double rss_mb = 0;
  std::size_t stored_peak = 0;
  std::uint64_t forced = 0;
  std::uint64_t deliveries = 0;
};

/// Adds a run's end-to-end metrics (all but ops_ok_frac) to `out`.  Other
/// tenants of a shared host only ever slow an episode down, so workload
/// speeds and recovery times report the episode quartile on the fast side
/// (the upper quartile of rates, the lower quartile of times); the send
/// percentiles come from `send_us`, every send sample of the run in order,
/// through windowed_percentile; set-up time and memory report the median.
void report_end_to_end(const std::vector<EpisodeFigures>& eps,
                       const std::vector<double>& send_us, Outcome& out);

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
