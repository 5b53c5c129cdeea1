// Per-application and device statistics collected by the simulator.
//
// These are exactly the quantities the paper's methodology consumes:
// instruction counts and cycles (throughput, Eq 1.1), DRAM transactions
// (memory bandwidth), L1-fill counts (L2->L1 bandwidth), and the memory
// instruction fraction R used by the Table 3.1 classifier.
#pragma once

#include <cstdint>

namespace gpumas::sim {

struct AppStats {
  uint64_t warp_insns = 0;   // warp instructions issued
  uint64_t mem_insns = 0;    // memory warp instructions issued
  uint64_t l1_accesses = 0;  // per-transaction L1 probes
  uint64_t l1_hits = 0;
  uint64_t l1_fills = 0;     // fills into any L1 (L2->L1 traffic, one line each)
  uint64_t l2_accesses = 0;
  uint64_t l2_hits = 0;
  uint64_t dram_transactions = 0;  // lines fetched from DRAM
  uint64_t blocks_completed = 0;
  uint64_t warps_completed = 0;
  uint64_t finish_cycle = 0;  // cycle at which the app's last block retired
  bool done = false;

  uint64_t thread_insns(int warp_size) const {
    return warp_insns * static_cast<uint64_t>(warp_size);
  }
};

// Visits every AppStats counter of two records as (name, lhs, rhs). The
// byte-identity gates (tests/fastpath_test.cc, micro_sim_benchmark) compare
// through this single list, so a counter added above only needs to be added
// here once to stay covered by both.
template <typename Fn>
void for_each_app_stat(const AppStats& a, const AppStats& b, Fn fn) {
  fn("warp_insns", a.warp_insns, b.warp_insns);
  fn("mem_insns", a.mem_insns, b.mem_insns);
  fn("l1_accesses", a.l1_accesses, b.l1_accesses);
  fn("l1_hits", a.l1_hits, b.l1_hits);
  fn("l1_fills", a.l1_fills, b.l1_fills);
  fn("l2_accesses", a.l2_accesses, b.l2_accesses);
  fn("l2_hits", a.l2_hits, b.l2_hits);
  fn("dram_transactions", a.dram_transactions, b.dram_transactions);
  fn("blocks_completed", a.blocks_completed, b.blocks_completed);
  fn("warps_completed", a.warps_completed, b.warps_completed);
  fn("finish_cycle", a.finish_cycle, b.finish_cycle);
  fn("done", static_cast<uint64_t>(a.done), static_cast<uint64_t>(b.done));
}

// Bandwidth in GB/s given bytes moved over a cycle interval at `freq_ghz`.
inline double bandwidth_gbps(uint64_t bytes, uint64_t cycles, double freq_ghz) {
  if (cycles == 0) return 0.0;
  return static_cast<double>(bytes) * freq_ghz / static_cast<double>(cycles);
}

}  // namespace gpumas::sim
