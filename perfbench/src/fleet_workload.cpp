// fleet: a real multi-process transport::ProcFleet driven command by
// command from this (parent) process, then certified by replaying its event
// log through the simulator.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "transport/event_log.hpp"
#include "transport/proc_fleet.hpp"
#include "transport/replay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rdtgc;

namespace {

constexpr std::size_t kProcesses = 4;
constexpr std::size_t kCommands = 8000;
constexpr double kSendShare = 0.8;
constexpr std::size_t kKills = 20;

struct FleetEpisode {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t commands = 0;
  std::uint64_t kills = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t basic = 0;
  std::uint64_t forced = 0;
  std::size_t stored_peak = 0;
  std::vector<double> send_us;
  std::vector<double> kill_ms;
  double rss_mb = 0;
  double replay_s = 0;
  std::size_t replay_events = 0;
};

/// Layers of the timed ProcFleet calls (all 0, unused, when untraced).
struct FleetSpans {
  Tracer::LayerId start = 0, send_app = 0, basic_checkpoint = 0,
                  kill_restart = 0, shutdown = 0, replay = 0;
};

FleetSpans fleet_spans(Tracer* t) {
  FleetSpans s;
  if (t == nullptr) return s;
  s.start = t->layer("transport.start");
  s.send_app = t->layer("transport.send_app");
  s.basic_checkpoint = t->layer("transport.basic_checkpoint");
  s.kill_restart = t->layer("transport.kill_restart");
  s.shutdown = t->layer("transport.shutdown");
  s.replay = t->layer("transport.replay");
  return s;
}

FleetEpisode run_fleet_episode(const RunContext& ctx, std::uint64_t seed,
                               const std::string& dir, Tracer* tracer,
                               Outcome& out) {
  FleetEpisode ep;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const FleetSpans ids = fleet_spans(tracer);

  transport::FleetConfig config;
  config.process_count = kProcesses;
  config.scratch_dir = dir;
  config.worker_binary = ctx.proc_bin;
  config.step_timeout_ms = 20000;
  config.worker_idle_timeout_ms = 40000;

  const auto t0 = Clock::now();
  transport::ProcFleet fleet(config);
  bool started = false;
  {
    Span span(tracer, ids.start);
    started = fleet.start();
  }
  const auto t1 = Clock::now();
  ep.setup_s = seconds_between(t0, t1);
  out.check(started, "fleet start: " + fleet.error());
  if (!started) return ep;

  util::Rng rng(mix_seed(seed, 1));
  const std::size_t kill_every = kCommands / kKills;
  for (std::size_t i = 0; i < kCommands; ++i) {
    if (i % kill_every == kill_every / 2) {
      const auto victim = static_cast<ProcessId>(rng.uniform(kProcesses));
      const auto a = Clock::now();
      bool ok = false;
      {
        Span span(tracer, ids.kill_restart);
        ok = fleet.kill_and_restart(victim);
      }
      ep.kill_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
      ++ep.kills;
      out.check(ok, "kill_and_restart: " + fleet.error());
      if (!ok) return ep;
    }
    const auto src = static_cast<ProcessId>(rng.uniform(kProcesses));
    bool ok = false;
    if (rng.bernoulli(kSendShare)) {
      const auto dst = static_cast<ProcessId>(
          (static_cast<std::uint64_t>(src) + 1 + rng.uniform(kProcesses - 1)) %
          kProcesses);
      const auto a = Clock::now();
      {
        Span span(tracer, ids.send_app);
        ok = fleet.send_app(src, dst);
      }
      ep.send_us.push_back(seconds_between(a, Clock::now()) * 1e6);
    } else {
      Span span(tracer, ids.basic_checkpoint);
      ok = fleet.basic_checkpoint(src);
    }
    ++ep.commands;
    if (!ok) {
      out.check(false, "command " + std::to_string(i) + ": " + fleet.error());
      return ep;
    }
  }
  out.count_ops(ep.commands);
  bool shut = false;
  {
    Span span(tracer, ids.shutdown);
    shut = fleet.shutdown();
  }
  ep.run_s = seconds_between(t1, Clock::now());
  ep.rss_mb = peak_rss_mb();
  out.check(shut && fleet.error().empty(), "fleet shutdown: " + fleet.error());
  if (!shut) return ep;

  // Certification: the merged event log must replay bit-for-bit.
  transport::ReplayConfig rc;
  rc.process_count = kProcesses;
  rc.scratch_dir = dir + "/replay";
  std::filesystem::create_directories(rc.scratch_dir);
  const auto r0 = Clock::now();
  transport::ReplayResult replay;
  {
    Span span(tracer, ids.replay);
    replay = transport::replay_event_log(fleet.log_path(), rc);
  }
  ep.replay_s = seconds_between(r0, Clock::now());
  ep.replay_events = replay.events_replayed;
  out.check(replay.ok && !replay.stopped_at.has_value(),
            "fleet replay certification: " + replay.error);
  if (replay.system != nullptr) {
    for (std::size_t p = 0; p < kProcesses; ++p)
      ep.stored_peak = std::max(
          ep.stored_peak,
          replay.system->node(static_cast<ProcessId>(p)).store().stats().peak_count);
  }
  for (const transport::Event& e : transport::read_event_log(fleet.log_path())) {
    if (e.kind == transport::EventKind::kDeliver) {
      ++ep.deliveries;
      ep.forced += e.forced;
    } else if (e.kind == transport::EventKind::kCheckpoint) {
      ++ep.basic;
    }
  }
  return ep;
}

}  // namespace

void measure_fleet(const RunContext& ctx, Outcome& out) {
  std::vector<FleetEpisode> eps;
  const auto start = Clock::now();
  for (int e = 0; e < kMinEpisodes || fits_another(start, e, ctx.seconds);
       ++e) {
    const std::string dir = ctx.work_dir + "/fleet-" + std::to_string(e);
    eps.push_back(
        run_fleet_episode(ctx, mix_seed(ctx.seed, 100 + e), dir, nullptr, out));
    std::filesystem::remove_all(dir);
    const FleetEpisode& ep = eps.back();
    std::fprintf(stderr,
                 "episode %d: setup %.6fs run %.3fs deliveries %llu "
                 "(%.0f/s) send p50 %.1fus p99 %.1fus replay %.3fs\n",
                 e, ep.setup_s, ep.run_s,
                 static_cast<unsigned long long>(ep.deliveries),
                 ep.run_s > 0 ? static_cast<double>(ep.deliveries) / ep.run_s
                              : 0.0,
                 percentile(ep.send_us, 0.50), percentile(ep.send_us, 0.99),
                 ep.replay_s);
    if (out.failed > 0) break;
  }

  std::vector<EpisodeFigures> figures;
  std::vector<double> send_us;
  for (const FleetEpisode& ep : eps) {
    if (ep.run_s <= 0) continue;  // failed before its timed region ended
    send_us.insert(send_us.end(), ep.send_us.begin(), ep.send_us.end());
    EpisodeFigures f;
    f.setup_s = ep.setup_s;
    f.deliveries_per_s = static_cast<double>(ep.deliveries) / ep.run_s;
    f.checkpoints_per_s = static_cast<double>(ep.basic + ep.forced) / ep.run_s;
    f.recovery_p50_ms = percentile(ep.kill_ms, 0.50);
    f.rss_mb = ep.rss_mb;
    f.stored_peak = ep.stored_peak;
    f.forced = ep.forced;
    f.deliveries = ep.deliveries;
    figures.push_back(f);
  }
  report_end_to_end(figures, send_us, out);
}

std::unique_ptr<Tracer> trace_fleet(const RunContext& ctx, Outcome& out) {
  const std::uint64_t seed = mix_seed(ctx.seed, 100);
  const std::string ref_dir = ctx.work_dir + "/fleet-ref";
  const FleetEpisode ref = run_fleet_episode(ctx, seed, ref_dir, nullptr, out);
  std::filesystem::remove_all(ref_dir);

  auto tracer = std::make_unique<Tracer>(
      static_cast<std::uint32_t>(WorkloadId::kFleet) + 1, "fleet",
      std::size_t{1} << 16);
  const std::string dir = ctx.work_dir + "/fleet-traced";
  const FleetEpisode tr = run_fleet_episode(ctx, seed, dir, tracer.get(), out);
  std::filesystem::remove_all(dir);

  // Delivery order across sockets is timing-dependent, so only the issued
  // commands are deterministic here.
  out.check(tr.commands == ref.commands && tr.kills == ref.kills,
            "fleet: traced run issued different commands than untraced");

  const Tracer& t = *tracer;
  // The traced total is the command phase plus shutdown (run_s) plus the
  // start and replay spans timed around it.
  const double start_ns = t.mean_ns("transport.start");
  const double replay_ns = t.mean_ns("transport.replay");
  const double total_ns = tr.run_s * 1e9 + start_ns + replay_ns;
  const double unattributed =
      total_ns > 0 ? (total_ns - static_cast<double>(t.self_sum_ns())) / total_ns
                   : 1.0;
  out.check(unattributed >= -kSelfTimeTolerance &&
                unattributed <= kSelfTimeTolerance,
            "fleet: per-layer self times miss the traced total by " +
                std::to_string(unattributed * 100) + "%");
  const double dps_ref =
      ref.run_s > 0 ? static_cast<double>(ref.deliveries) / ref.run_s : 0;
  const double dps_tr =
      tr.run_s > 0 ? static_cast<double>(tr.deliveries) / tr.run_s : 0;
  out.add("trace.fleet.overhead_frac",
          dps_ref > 0 ? 1.0 - dps_tr / dps_ref : 0.0, "ratio");
  out.add("trace.fleet.unattributed_frac", unattributed, "ratio");
  out.add("trace.fleet.total_s", total_ns / 1e9, "s");

  out.add("transport.send_app_us", t.mean_ns("transport.send_app") / 1e3, "us");
  out.add("transport.basic_checkpoint_us",
          t.mean_ns("transport.basic_checkpoint") / 1e3, "us");
  out.add("transport.kill_restart_ms", t.mean_ns("transport.kill_restart") / 1e6,
          "ms");
  out.add("transport.start_ms", start_ns / 1e6, "ms");
  out.add("transport.shutdown_ms", t.mean_ns("transport.shutdown") / 1e6, "ms");
  out.add("transport.replay_events_per_s",
          replay_ns > 0 ? static_cast<double>(tr.replay_events) / (replay_ns / 1e9)
                        : 0.0,
          "1/s");
  return tracer;
}

}  // namespace perfbench
