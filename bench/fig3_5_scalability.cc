// Reproduces Fig 3.5: scalability trends of selected benchmarks — solo IPC
// as the number of SMs grows from 10 to 30, normalized to the 10-SM point.
//
// Paper shape to match: GUPS *decreases* with more cores (row-buffer
// locality evaporates and contention grows), LUD is flat (no parallelism),
// HS scales near-ideally, FFT and LPS saturate, BFS2 scales but from a low
// base.
#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"
#include "workloads/suite.h"

int main(int argc, char** argv) {
  using namespace gpumas;
  bench::Harness h(argc, argv);
  h.print_setup();
  print_banner("Fig 3.5 — scalability trends (IPC normalized to 10 SMs)");

  const std::vector<int> sm_counts = {10, 15, 20, 25, 30};
  const std::vector<std::string> selected = {"BFS2", "LUD", "FFT",
                                             "LPS",  "GUPS", "HS"};

  std::vector<std::string> header = {"Benchmark"};
  for (int n : sm_counts) header.push_back(std::to_string(n) + " SMs");
  header.push_back("shape");
  Table table(header);

  for (const auto& name : selected) {
    const auto points =
        h.cache().scalability(h.config(), workloads::benchmark(name),
                              sm_counts, h.options().threads);
    table.begin_row().cell(name);
    const double base = points.front().ipc;
    for (const auto& pt : points) table.cell(pt.ipc / base, 3);
    const double last = points.back().ipc / base;
    const char* shape = last < 0.95  ? "decreasing"
                        : last < 1.3 ? "saturating/flat"
                        : last < 2.4 ? "sub-linear"
                                     : "near-ideal";
    table.cell(std::string(shape));
  }
  table.print();
  std::cout << "\nIdeal scaling from 10 to 30 SMs = 3.000\n"
            << "Paper: GUPS decreasing, LUD flat, FFT/LPS saturating, "
               "HS near-ideal, BFS2 scaling from a low base.\n";
  return 0;
}
