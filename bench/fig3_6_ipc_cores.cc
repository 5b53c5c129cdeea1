// Reproduces Fig 3.6: absolute solo IPC of every benchmark at 10, 15, 20
// and 30 SMs (the paper plots normalized bars; we print the raw series).
#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"
#include "workloads/suite.h"

int main(int argc, char** argv) {
  using namespace gpumas;
  bench::Harness h(argc, argv);
  h.print_setup();
  print_banner("Fig 3.6 — IPC of benchmarks with different numbers of cores");

  const std::vector<int> sm_counts = {10, 15, 20, 30};

  std::vector<std::string> header = {"Benchmark"};
  for (int n : sm_counts) header.push_back(std::to_string(n) + " cores");
  Table table(header);

  for (const auto& kp : workloads::suite()) {
    const auto points = h.cache().scalability(h.config(), kp, sm_counts,
                                              h.options().threads);
    table.begin_row().cell(kp.name);
    for (const auto& pt : points) table.cell(pt.ipc, 1);
  }
  table.print();
  return 0;
}
