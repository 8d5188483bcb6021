#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double windowed_percentile(const std::vector<double>& samples, double q) {
  if (samples.size() < kLatencyWindow) return percentile(samples, q);
  std::vector<double> per_window;
  for (std::size_t at = 0; at + kLatencyWindow <= samples.size();
       at += kLatencyWindow)
    per_window.push_back(percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(at),
                            samples.begin() + static_cast<std::ptrdiff_t>(
                                                  at + kLatencyWindow)),
        q));
  return percentile(per_window, 0.25);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void report_end_to_end(const std::vector<EpisodeFigures>& eps,
                       const std::vector<double>& send_us, Outcome& out) {
  std::vector<double> setup, dps, cps, rec, rss;
  std::size_t stored_max = 0;
  std::uint64_t forced = 0, delivered = 0;
  for (std::size_t e = 0; e < eps.size(); ++e) {
    const EpisodeFigures& f = eps[e];
    setup.push_back(f.setup_s);
    dps.push_back(f.deliveries_per_s);
    cps.push_back(f.checkpoints_per_s);
    rec.push_back(f.recovery_p50_ms);
    rss.push_back(f.rss_mb);
    if (e < static_cast<std::size_t>(kMinEpisodes)) {
      stored_max = std::max(stored_max, f.stored_peak);
      forced += f.forced;
      delivered += f.deliveries;
    }
  }
  out.add("setup_s", median(setup), "s");
  out.add("deliveries_per_s", percentile(dps, 0.75), "1/s");
  out.add("checkpoints_per_s", percentile(cps, 0.75), "1/s");
  out.add("send_p50_us", windowed_percentile(send_us, 0.50), "us");
  out.add("send_p99_us", windowed_percentile(send_us, 0.99), "us");
  out.add("recovery_p50_ms", percentile(rec, 0.25), "ms");
  out.add("peak_rss_mb", median(rss), "MiB");
  out.add("stored_per_process_max", static_cast<double>(stored_max), "count");
  out.add("forced_per_delivery",
          delivered == 0 ? 0.0
                         : static_cast<double>(forced) /
                               static_cast<double>(delivered),
          "ratio");
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // reported in KiB
}

}  // namespace perfbench
