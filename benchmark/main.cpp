// ssau_benchmark — the repository benchmark's measuring binary (run.py
// builds and drives it).
//
//   ssau_benchmark --workload <stabilize-1m|recover-clique|serve-mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--small] --tmp-dir <dir> [--trace-out <file>]
//
// Prints human-readable lines under the paper's metric names, then one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when a
// correctness check failed, 2 on bad arguments.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int usage(const char* why) {
  std::fprintf(stderr, "ssau_benchmark: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options o;
  o.cpus = available_cpus();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--small") {
      o.small = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--tmp-dir") {
      o.tmp_dir = argv[++i];
    } else if (a == "--trace-out") {
      o.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (o.tmp_dir.empty()) return usage("--tmp-dir is required");
  std::filesystem::create_directories(o.tmp_dir);

  bench::Report report;
  try {
    if (o.workload == "stabilize-1m") {
      bench::run_stabilize(o, report);
    } else if (o.workload == "recover-clique") {
      bench::run_recover(o, report);
    } else if (o.workload == "serve-mixed") {
      bench::run_serve(o, report);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& ex) {
    report.violation(std::string("exception: ") + ex.what());
  }
  report.print(o.trace);
  return report.correct() ? 0 : 1;
}
