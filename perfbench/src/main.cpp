// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <sim-mem|sim-durable|fleet> --seed <n>
//             --seconds <s> --trace <0|1> --proc-bin <rdtgc_proc>
//             --work-dir <dir> [--trace-out <file.json>]
//
// --trace 0 runs the workload for --seconds and reports the end-to-end
// metrics.  --trace 1 runs the traced passes of all three workloads (each
// per-layer metric comes from the workload that exercises its layer) and
// reports the per-layer metrics; spans go to --trace-out as Chrome
// trace-event JSON.  Every run ends with the correctness gates.  The last
// stdout line is the result:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// perfbench/run.py builds this binary and is the command to run.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string proc_bin;
  std::string work_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sim-mem|sim-durable|fleet> --seed <n> --seconds <s> "
               "--trace <0|1> --proc-bin <path> --work-dir <dir> "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--proc-bin") {
      a.proc_bin = value;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (a.workload != "sim-mem" && a.workload != "sim-durable" &&
      a.workload != "fleet")
    usage("unknown workload");
  if (a.work_dir.empty() || a.proc_bin.empty()) usage("missing paths");
  return a;
}

/// Filesystem type of `path` from statfs(2).
std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0x858458f6UL: return "ramfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlay";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const std::string media_fs = fs_type(args.work_dir);
  std::printf("env: nproc=%ld compiler=\"%s\" build=%s media_fs=%s "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, media_fs.c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  // sim-durable measures real media: a RAM-backed directory would time the
  // store's CPU path, not fsync.  Traced runs include sim-durable.
  if ((args.trace || args.workload == "sim-durable") &&
      (media_fs == "tmpfs" || media_fs == "ramfs")) {
    std::fprintf(stderr,
                 "perfbench: media directory %s is %s (RAM-backed); "
                 "sim-durable needs disk-backed media\n",
                 args.work_dir.c_str(), media_fs.c_str());
    return 2;
  }

  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.work_dir = args.work_dir;
  ctx.proc_bin = args.proc_bin;

  Outcome out;
  try {
    if (args.trace) {
      std::vector<std::unique_ptr<Tracer>> tracers;
      tracers.push_back(trace_sim(WorkloadId::kSimMem, ctx, out));
      tracers.push_back(trace_sim(WorkloadId::kSimDurable, ctx, out));
      tracers.push_back(trace_fleet(ctx, out));
      probe_transport_floors(ctx, out);
      if (!args.trace_out.empty()) {
        std::vector<const Tracer*> views;
        for (const auto& t : tracers) views.push_back(t.get());
        out.check(write_chrome_trace(args.trace_out, views),
                  "cannot write " + args.trace_out);
      }
    } else if (args.workload == "fleet") {
      measure_fleet(ctx, out);
    } else {
      measure_sim(args.workload == "sim-mem" ? WorkloadId::kSimMem
                                             : WorkloadId::kSimDurable,
                  ctx, out);
    }
  } catch (const std::exception& e) {
    out.check(false, std::string("exception: ") + e.what());
  }
  if (!args.trace) {
    out.add("ops_ok_frac",
            out.attempted == 0 ? 0.0
                               : 1.0 - static_cast<double>(out.failed) /
                                           static_cast<double>(out.attempted),
            "ratio");
  }

  for (const Metric& m : out.metrics)
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& f : out.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  print_result(out);
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
