// gpumas benchmark: command-line entry point.
//
//   perfbench --workload sim_corun|grid_cold|store_warm --seed N
//             --seconds S --trace 0|1 [--digests FILE] [--out DIR]
//
// Prints every metric of the run as "name value unit" lines (notes and
// failed checks as '#' lines) and, as the last line, one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A traced run also writes its spans as a Chrome trace to
// DIR/trace/<workload>-seed<N>.json. Exits 0 when it printed a result, 2 on
// bad arguments and 1 when the workload could not run.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"

namespace {

namespace fs = std::filesystem;
using perfbench::MetricKind;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sim_corun|grid_cold|store_warm "
               "--seed N --seconds S --trace 0|1 [--digests FILE] "
               "[--out DIR]\n";
  return 2;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "digests" && key != "out") {
      return usage("unknown flag --" + key);
    }
  }
  const std::string workload = args["workload"];
  if (workload != "sim_corun" && workload != "grid_cold" &&
      workload != "store_warm") {
    return usage("unknown workload '" + workload + "'");
  }
  perfbench::Options opt;
  bool trace = false;
  try {
    opt.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    opt.seconds = std::stod(args.count("seconds") ? args["seconds"] : "15");
    trace = std::stoi(args.count("trace") ? args["trace"] : "0") != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  opt.threads = cpu_count();
  const fs::path out = args.count("out") ? args["out"] : ".bench_out";

  const fs::path work =
      out / "work" / (workload + "-" + std::to_string(getpid()));
  try {
    if (args.count("digests")) {
      opt.digests = perfbench::Digests::load(args["digests"]);
    }
    fs::create_directories(work);
    opt.work_dir = work.string();

    const std::string run_id = workload + "-seed" + std::to_string(opt.seed) +
                               "-pid" + std::to_string(getpid());
    perfbench::Tracer tracer(trace, run_id);
    perfbench::Report report;
    report.note("run " + run_id + ", " + std::to_string(opt.threads) +
                " threads, " + std::to_string(opt.seconds) + " s");
    if (workload == "sim_corun") {
      perfbench::run_sim_corun(opt, tracer, report);
    } else if (workload == "grid_cold") {
      perfbench::run_grid_cold(opt, tracer, report);
    } else {
      perfbench::run_store_warm(opt, tracer, report);
    }
    fs::remove_all(work);

    perfbench::finish_report(tracer, report);
    if (trace) {
      const fs::path file =
          out / "trace" /
          (workload + "-seed" + std::to_string(opt.seed) + ".json");
      fs::create_directories(file.parent_path());
      tracer.write_chrome_json(file.string());
      report.note("trace written to " + file.string());
    }
    report.print(std::cout,
                 trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    std::error_code ignored;
    fs::remove_all(work, ignored);
    return 1;
  }
  return 0;
}
