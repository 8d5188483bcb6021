// sim-mem and sim-durable: one episode body shared by the untraced rig
// (harness::System itself) and the traced rig (the same parts, assembled
// with the decorators of instruments.hpp exactly as System wires them).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ckpt/node.hpp"
#include "core/rdt_lgc.hpp"
#include "harness/system.hpp"
#include "instruments.hpp"
#include "recovery/recovery_manager.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rdtgc;

namespace {

struct SimSpec {
  WorkloadId id;
  std::size_t n;
  double checkpoint_probability;
  SimTime horizon;
  bool durable;
  SimTime churn_every;          ///< kill/attach + session spacing (durable)
  std::size_t bursts;           ///< timed bursts of the send probe
  std::size_t burst_sends;      ///< sends per burst
  std::size_t recovery_probes;  ///< in-process crash sessions (in-memory)
};

constexpr SimSpec kSimMem{WorkloadId::kSimMem, 64, 0.2, 150000, false, 0,
                          10000, 20, 30};
constexpr SimSpec kSimDurable{WorkloadId::kSimDurable, 8, 0.5, 32000, true,
                              2000, 20000, 1, 0};

const SimSpec& spec_of(WorkloadId id) {
  return id == WorkloadId::kSimMem ? kSimMem : kSimDurable;
}

harness::SystemConfig system_config(const SimSpec& spec, std::uint64_t seed,
                                    const std::string& media) {
  harness::SystemConfig config;
  config.process_count = spec.n;
  config.protocol = ckpt::ProtocolKind::kFdas;
  config.gc = harness::GcChoice::kRdtLgc;
  config.seed = seed;
  if (spec.durable) {
    config.node.storage.kind = ckpt::StorageBackendKind::kLogStructured;
    config.node.storage.directory = media;
    config.node.storage.durability = ckpt::DurabilityPolicy::GroupCommit(16);
  }
  return config;
}

/// harness::System's wiring with every layer boundary decorated.
class TracedRig {
 public:
  TracedRig(const harness::SystemConfig& config, Tracer& tracer,
            std::uint64_t& lag_peak)
      : config_(config),
        recorder_(config.process_count),
        network_(simulator_, util::Rng(config.seed ^ 0x6e6574ULL),
                 config.network),
        transport_(network_, tracer),
        tracer_(tracer),
        lag_peak_(lag_peak) {
    nodes_.reserve(config.process_count);
    for (std::size_t p = 0; p < config.process_count; ++p)
      nodes_.push_back(make_node(static_cast<ProcessId>(p),
                                 config.node.storage.open_mode));
  }

  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return network_; }
  ccp::CcpRecorder& recorder() { return recorder_; }
  std::size_t process_count() const { return nodes_.size(); }
  ckpt::Node& node(ProcessId p) { return *nodes_[static_cast<std::size_t>(p)]; }
  std::function<ckpt::Node&(ProcessId)> node_provider() {
    return [this](ProcessId p) -> ckpt::Node& { return node(p); };
  }
  ckpt::Node& restart_node(ProcessId p) {
    nodes_[static_cast<std::size_t>(p)].reset();
    transport_.disconnect(p);
    nodes_[static_cast<std::size_t>(p)] = make_node(p, ckpt::OpenMode::kAttach);
    ++restarts_;
    return node(p);
  }
  std::uint64_t restarts() const { return restarts_; }

 private:
  std::unique_ptr<ckpt::Node> make_node(ProcessId p, ckpt::OpenMode mode) {
    ckpt::Node::Config node_config = config_.node;
    node_config.storage.open_mode = mode;
    return std::make_unique<ckpt::Node>(
        p, config_.process_count, simulator_, transport_, recorder_,
        std::make_unique<TracingProtocol>(ckpt::make_protocol(config_.protocol),
                                          tracer_),
        std::make_unique<TracingGc>(
            std::make_unique<core::RdtLgc>(
                core::RdtLgc::RollbackSearch::kBinary),
            tracer_, lag_peak_),
        node_config);
  }

  harness::SystemConfig config_;
  sim::Simulator simulator_;
  ccp::CcpRecorder recorder_;
  sim::Network network_;
  TracingTransport transport_;
  Tracer& tracer_;
  std::uint64_t& lag_peak_;
  std::vector<std::unique_ptr<ckpt::Node>> nodes_;
  std::uint64_t restarts_ = 0;
};

/// The counts a traced episode must reproduce exactly.
struct Counts {
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  std::uint64_t activities = 0;
  std::uint64_t basic = 0;
  std::uint64_t forced = 0;
  std::uint64_t collected = 0;
  std::uint64_t restarts = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t msyncs = 0;

  bool operator==(const Counts&) const = default;
  std::string to_string() const {
    std::ostringstream s;
    s << "deliveries=" << deliveries << " events=" << events
      << " activities=" << activities << " basic=" << basic
      << " forced=" << forced << " collected=" << collected
      << " restarts=" << restarts << " fsyncs=" << fsyncs
      << " msyncs=" << msyncs;
    return s.str();
  }
};

struct Episode {
  double setup_s = 0;
  double run_s = 0;
  Counts counts;
  std::size_t stored_peak = 0;
  std::vector<double> send_us;
  std::vector<double> recovery_ms;
  std::uint64_t sessions = 0;
  std::uint64_t rolled_back = 0;
  double rss_mb = 0;
  double audit_s = 0;
  std::uint64_t recorded_rows = 0;
};

/// Correctness gates over the live CCP, one operation per process per gate:
/// no orphans; Theorem-1 non-obsolete ⊆ stored; stored = Corollary-1
/// retained (`exact`, failure-free runs) or stored ⊆ retained.
template <typename Rig>
void audit(Rig& rig, bool exact, const char* when, Outcome& out) {
  const ccp::CcpRecorder& recorder = rig.recorder();
  out.check(recorder.audit_no_orphans(),
            std::string(when) + ": orphan message in the live CCP");
  const ccp::DvPrecedence causal(recorder);
  const auto obsolete = ccp::obsolete_theorem1(recorder, causal);
  for (std::size_t p = 0; p < rig.process_count(); ++p) {
    const ckpt::ShardedCheckpointStore& store =
        rig.node(static_cast<ProcessId>(p)).store();
    bool safe = true;
    for (std::size_t g = 0; g < obsolete[p].size(); ++g)
      if (!obsolete[p][g] && !store.contains(static_cast<CheckpointIndex>(g)))
        safe = false;
    out.check(safe, std::string(when) + ": p" + std::to_string(p) +
                        " collected a Theorem-1 non-obsolete checkpoint");
    const auto retained =
        ccp::retained_corollary1(recorder, static_cast<ProcessId>(p));
    const std::set<CheckpointIndex> allowed(retained.begin(), retained.end());
    const std::vector<CheckpointIndex>& stored = store.stored_indices();
    bool ok = std::all_of(stored.begin(), stored.end(),
                          [&](CheckpointIndex g) { return allowed.count(g); });
    if (exact) ok = ok && stored.size() == allowed.size();
    out.check(ok, std::string(when) + ": p" + std::to_string(p) +
                      (exact ? " stored set != Corollary-1 retained set"
                             : " stores beyond the Corollary-1 retained set"));
  }
}

/// One episode: set up, run the workload to its horizon (the timed region),
/// then (untraced only) the closed-loop send and recovery probes, then the
/// gates.  `make_rig` builds either rig; `tracer` is null when untraced.
template <typename Rig>
Episode run_episode(const SimSpec& spec, std::uint64_t seed,
                    const std::function<std::unique_ptr<Rig>()>& make_rig,
                    Tracer* tracer, bool probes, Outcome& out) {
  Episode ep;
  const std::size_t n = spec.n;
  const Tracer::LayerId step_id = tracer ? tracer->layer("sim.step") : 0;
  const Tracer::LayerId attach_id = tracer ? tracer->layer("ckpt.attach") : 0;
  const Tracer::LayerId session_id =
      tracer ? tracer->layer("recovery.session") : 0;

  const auto t0 = Clock::now();
  std::unique_ptr<Rig> rig = make_rig();
  workload::WorkloadConfig wl;
  wl.kind = workload::WorkloadKind::kUniform;
  wl.checkpoint_probability = spec.checkpoint_probability;
  wl.seed = mix_seed(seed, 1);
  workload::WorkloadDriver driver(rig->simulator(), rig->node_provider(), n,
                                  wl);
  recovery::RecoveryManager manager(rig->simulator(), rig->network(),
                                    rig->recorder(), rig->node_provider(),
                                    recovery::RecoveryManager::Config{});
  driver.start(spec.horizon);

  // Killed incarnations take their counters with them; keep their totals.
  std::uint64_t dead_basic = 0, dead_forced = 0;
  if (spec.durable) {
    util::Rng churn(mix_seed(seed, 2));
    for (SimTime t = spec.churn_every; t < spec.horizon; t += spec.churn_every) {
      const SimTime at = t - static_cast<SimTime>(churn.uniform(
                                 static_cast<std::uint64_t>(spec.churn_every / 4)));
      const auto victim = static_cast<ProcessId>(churn.uniform(n));
      rig->simulator().at(at, [&, victim] {
        const auto k0 = Clock::now();
        {
          Span span(tracer, attach_id);
          const ckpt::Node::Counters& c = rig->node(victim).counters();
          dead_basic += c.basic_checkpoints;
          dead_forced += c.forced_checkpoints;
          // Flush first: an unflushed kill of a group-commit store resumes
          // from an earlier prefix, which the recovery session does not
          // handle yet (README.md, "unflushed kill").
          rig->node(victim).store().flush();
          rig->restart_node(victim);
        }
        recovery::RecoveryOutcome outcome;
        {
          Span span(tracer, session_id);
          outcome = manager.recover({victim});
        }
        ep.recovery_ms.push_back(seconds_between(k0, Clock::now()) * 1e3);
        ++ep.sessions;
        ep.rolled_back += outcome.rolled_back.size();
      });
    }
  }
  const auto t1 = Clock::now();
  if (tracer != nullptr) {
    sim::Simulator& simulator = rig->simulator();
    bool more = true;
    while (more) {
      Span span(tracer, step_id);
      more = simulator.step();
    }
  } else {
    rig->simulator().run();
  }
  const auto t2 = Clock::now();
  ep.setup_s = seconds_between(t0, t1);
  ep.run_s = seconds_between(t1, t2);

  Counts& c = ep.counts;
  c.deliveries = rig->network().stats().delivered;
  c.events = rig->simulator().events_processed();
  c.activities = driver.activities();
  c.restarts = rig->restarts();
  c.basic = dead_basic;
  c.forced = dead_forced;
  for (std::size_t p = 0; p < n; ++p) {
    const ckpt::Node& node = rig->node(static_cast<ProcessId>(p));
    c.basic += node.counters().basic_checkpoints;
    c.forced += node.counters().forced_checkpoints;
    c.collected += node.store().stats().collected;
    ep.stored_peak = std::max(ep.stored_peak, node.store().stats().peak_count);
  }
  out.count_ops(c.activities + c.restarts);

  if (probes) {
    // Closed-loop application sends on the quiescent system, each carried
    // through the simulated network to its processed delivery.  A sample is
    // the mean time per message over a burst: send the burst, then run the
    // simulator until every message of it has been delivered.  On sim-mem
    // one message takes about a microsecond, near this machine's jitter, so
    // its bursts are 20 sends.  On sim-durable the tail is a group commit's
    // fsyncs, milliseconds long, so every message is its own sample (bursts
    // of one).  A first, untimed burst warms the allocator.
    util::Rng rng(mix_seed(seed, 3));
    std::vector<std::pair<ProcessId, ProcessId>> burst(spec.burst_sends);
    ep.send_us.reserve(spec.bursts);
    for (std::size_t b = 0; b <= spec.bursts; ++b) {
      for (auto& [src, dst] : burst) {
        src = static_cast<ProcessId>(rng.uniform(n));
        dst = static_cast<ProcessId>(
            (static_cast<std::uint64_t>(src) + 1 + rng.uniform(n - 1)) % n);
      }
      const auto a = Clock::now();
      for (const auto& [src, dst] : burst) rig->node(src).send_app_message(dst);
      rig->simulator().run();
      const double us = seconds_between(a, Clock::now()) * 1e6;
      if (b > 0) ep.send_us.push_back(us / static_cast<double>(spec.burst_sends));
    }
    out.count_ops((spec.bursts + 1) * spec.burst_sends);
  }
  ep.rss_mb = peak_rss_mb();
  for (std::size_t p = 0; p < n; ++p)
    ep.recorded_rows +=
        rig->recorder().checkpoints(static_cast<ProcessId>(p)).size();
  ep.recorded_rows += rig->recorder().messages().size();

  const auto a0 = Clock::now();
  audit(*rig, !spec.durable, "end of run", out);
  ep.audit_s = seconds_between(a0, Clock::now());

  if (probes && spec.recovery_probes > 0) {
    // In-process crash sessions on the quiesced in-memory system (§2.4):
    // the faulty process rolls back to the Lemma-1 line in place.
    util::Rng rng(mix_seed(seed, 4));
    for (std::size_t k = 0; k < spec.recovery_probes; ++k) {
      const auto victim = static_cast<ProcessId>(rng.uniform(n));
      const auto a = Clock::now();
      const recovery::RecoveryOutcome outcome = manager.recover({victim});
      ep.recovery_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
      ++ep.sessions;
      ep.rolled_back += outcome.rolled_back.size();
    }
    out.count_ops(spec.recovery_probes);
    out.check(rig->recorder().audit_no_orphans(),
              "after recovery sessions: orphan message in the live CCP");
  }
  return ep;
}

std::string media_dir(const RunContext& ctx, const SimSpec& spec,
                      const std::string& tag) {
  return ctx.work_dir + "/" + workload_name(spec.id) + "-" + tag;
}

/// Fresh (empty) media directory for a durable episode.
void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

Episode untraced_episode(const SimSpec& spec, std::uint64_t seed,
                         const std::string& media, bool probes, Outcome& out) {
  if (spec.durable) fresh_dir(media);
  const harness::SystemConfig config = system_config(spec, seed, media);
  Episode ep = run_episode<harness::System>(
      spec, seed,
      [&] { return std::make_unique<harness::System>(config); }, nullptr,
      probes, out);
  if (spec.durable) std::filesystem::remove_all(media);
  return ep;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

const char* workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kSimMem:
      return "sim-mem";
    case WorkloadId::kSimDurable:
      return "sim-durable";
    case WorkloadId::kFleet:
      return "fleet";
  }
  return "?";
}

void measure_sim(WorkloadId id, const RunContext& ctx, Outcome& out) {
  const SimSpec& spec = spec_of(id);
  std::vector<Episode> eps;
  const auto start = Clock::now();
  for (int e = 0; e < kMinEpisodes || fits_another(start, e, ctx.seconds);
       ++e) {
    eps.push_back(untraced_episode(spec, mix_seed(ctx.seed, 100 + e),
                                   media_dir(ctx, spec, std::to_string(e)),
                                   true, out));
    const Episode& ep = eps.back();
    std::fprintf(stderr,
                 "episode %d: setup %.6fs run %.3fs deliveries %llu "
                 "(%.0f/s) send p50 %.3fus p99 %.3fus audit %.3fs\n",
                 e, ep.setup_s, ep.run_s,
                 static_cast<unsigned long long>(ep.counts.deliveries),
                 static_cast<double>(ep.counts.deliveries) / ep.run_s,
                 percentile(ep.send_us, 0.50), percentile(ep.send_us, 0.99),
                 ep.audit_s);
  }

  std::vector<EpisodeFigures> figures;
  std::vector<double> send_us;
  for (const Episode& ep : eps) {
    send_us.insert(send_us.end(), ep.send_us.begin(), ep.send_us.end());
    EpisodeFigures f;
    f.setup_s = ep.setup_s;
    f.deliveries_per_s = static_cast<double>(ep.counts.deliveries) / ep.run_s;
    f.checkpoints_per_s =
        static_cast<double>(ep.counts.basic + ep.counts.forced) / ep.run_s;
    f.recovery_p50_ms = percentile(ep.recovery_ms, 0.50);
    f.rss_mb = ep.rss_mb;
    f.stored_peak = ep.stored_peak;
    f.forced = ep.counts.forced;
    f.deliveries = ep.counts.deliveries;
    figures.push_back(f);
  }
  report_end_to_end(figures, send_us, out);
}

std::unique_ptr<Tracer> trace_sim(WorkloadId id, const RunContext& ctx,
                                  Outcome& out) {
  const SimSpec& spec = spec_of(id);
  const std::string name = workload_name(id);
  const std::uint64_t seed = mix_seed(ctx.seed, 100);

  // Reference: the untraced rig on the same seed, durability syscalls
  // counted (not timed) so the fsync/msync counts can be compared too.
  Episode ref;
  {
    IoHooks hooks(nullptr);
    ref = untraced_episode(spec, seed, media_dir(ctx, spec, "ref"), false, out);
    ref.counts.fsyncs = hooks.fsyncs();
    ref.counts.msyncs = hooks.msyncs();
  }

  auto tracer = std::make_unique<Tracer>(
      static_cast<std::uint32_t>(id) + 1, name, std::size_t{1} << 16);
  std::uint64_t lag_peak = 0;
  Episode tr;
  {
    const std::string media = media_dir(ctx, spec, "traced");
    if (spec.durable) fresh_dir(media);
    const harness::SystemConfig config = system_config(spec, seed, media);
    IoHooks hooks(tracer.get());
    tr = run_episode<TracedRig>(
        spec, seed,
        [&] { return std::make_unique<TracedRig>(config, *tracer, lag_peak); },
        tracer.get(), false, out);
    tr.counts.fsyncs = hooks.fsyncs();
    tr.counts.msyncs = hooks.msyncs();
    if (spec.durable) std::filesystem::remove_all(media);
  }
  out.check(tr.counts == ref.counts,
            name + ": traced counts differ from untraced (traced " +
                tr.counts.to_string() + " vs untraced " +
                ref.counts.to_string() + ")");

  const Tracer& t = *tracer;
  const double total_ns = tr.run_s * 1e9;
  const double unattributed =
      (total_ns - static_cast<double>(t.self_sum_ns())) / total_ns;
  out.check(t.self_sum_ns() == t.root_ns(),
            name + ": self times do not sum to the root spans");
  out.check(unattributed >= -kSelfTimeTolerance &&
                unattributed <= kSelfTimeTolerance,
            name + ": per-layer self times miss the traced total by " +
                std::to_string(unattributed * 100) + "%");
  const double dps_ref = static_cast<double>(ref.counts.deliveries) / ref.run_s;
  const double dps_tr = static_cast<double>(tr.counts.deliveries) / tr.run_s;
  out.add("trace." + name + ".overhead_frac", 1.0 - dps_tr / dps_ref, "ratio");
  out.add("trace." + name + ".unattributed_frac", unattributed, "ratio");
  out.add("trace." + name + ".total_s", tr.run_s, "s");

  const double deliveries = static_cast<double>(tr.counts.deliveries);
  if (id == WorkloadId::kSimMem) {
    out.add("sim.step_ns", t.mean_ns("sim.step"), "ns");
    out.add("sim.step_self_ns", t.mean_self_ns("sim.step"), "ns");
    out.add("sim.events_per_delivery",
            ratio(static_cast<double>(tr.counts.events), deliveries), "ratio");
    out.add("sim.network_send_ns", t.mean_ns("sim.network_send"), "ns");
    out.add("ckpt.deliver_ns", t.mean_ns("ckpt.deliver"), "ns");
    out.add("ckpt.deliver_self_ns", t.mean_self_ns("ckpt.deliver"), "ns");
    out.add("ckpt.protocol.must_force_ns",
            t.mean_ns("ckpt.protocol.must_force"), "ns");
    out.add("ckpt.protocol.on_send_ns", t.mean_ns("ckpt.protocol.on_send"),
            "ns");
    out.add("ckpt.protocol.on_deliver_ns",
            t.mean_ns("ckpt.protocol.on_deliver"), "ns");
    out.add("core.gc_deps_ns", t.mean_ns("core.gc_deps"), "ns");
    out.add("core.gc_ckpt_ns", t.mean_ns("core.gc_ckpt"), "ns");
    out.add("core.collections_per_delivery",
            ratio(static_cast<double>(tr.counts.collected), deliveries),
            "ratio");
    out.add("ccp.recorded_rows", static_cast<double>(tr.recorded_rows),
            "count");
    out.add("ccp.audit_s", tr.audit_s, "s");
    out.add("workload.activities", static_cast<double>(tr.counts.activities),
            "count");
  } else {
    const std::uint64_t fsyncs = t.count("ckpt.store.fsync");
    const std::uint64_t msyncs = t.count("ckpt.store.msync");
    out.add("ckpt.store.fsync_count", static_cast<double>(fsyncs), "count");
    out.add("ckpt.store.fsync_us", t.mean_ns("ckpt.store.fsync") / 1e3, "us");
    out.add("ckpt.store.msync_count", static_cast<double>(msyncs), "count");
    out.add("ckpt.store.msync_us", t.mean_ns("ckpt.store.msync") / 1e3, "us");
    out.add("ckpt.store.flushes_per_checkpoint",
            ratio(static_cast<double>(fsyncs + msyncs),
                  static_cast<double>(tr.counts.basic + tr.counts.forced)),
            "ratio");
    out.add("ckpt.durability.lag_ops_peak", static_cast<double>(lag_peak),
            "count");
    out.add("ckpt.attach_ms", t.mean_ns("ckpt.attach") / 1e6, "ms");
    out.add("recovery.session_ms", t.mean_ns("recovery.session") / 1e6, "ms");
    out.add("recovery.rolled_back_per_session",
            ratio(static_cast<double>(tr.rolled_back),
                  static_cast<double>(tr.sessions)),
            "ratio");
  }
  return tracer;
}

}  // namespace perfbench
