// GPU hardware configuration.
//
// Defaults transcribe Table 4.1 of the paper (GTX 480-style device as the
// thesis configured GPGPU-Sim): 60 SMs @ 700 MHz, 48 warps and 8 blocks per
// SM, 16 kB L1D + 2 kB L1I per SM, 768 kB shared L2, GTO warp scheduler,
// FR-FCFS memory scheduling. The DRAM timing constants are sized so the
// aggregate peak bandwidth is ~179 GB/s, matching the GTX 480's 177 GB/s.
#pragma once

#include <cstdint>

namespace gpumas::sim {

enum class WarpSchedPolicy { kGto, kLrr };
enum class MemSchedPolicy { kFrFcfs, kFcfs };

// Simulation fidelity (not a hardware knob). kDetailed executes every
// non-skippable cycle through the full model and is the byte-identical
// reference; kSampled alternates detailed measurement windows with
// analytic fast-forward jumps (see Gpu::sample_tick) and trades a small,
// CI-gated accuracy loss for wall-clock speed.
enum class SimMode { kDetailed, kSampled };

// Upper bound of GpuConfig::max_warps_per_sm: each core's warp scheduler
// keeps one bit per warp slot in 64-bit masks. 64 is also the most warps
// per SM of any NVIDIA GPU so far.
constexpr int kMaxWarpsPerSm = 64;

// Geometry of one set-associative cache.
struct CacheConfig {
  uint32_t size_bytes = 0;
  uint32_t line_bytes = 128;
  uint32_t ways = 4;
  uint32_t mshr_entries = 32;

  uint32_t num_sets() const { return size_bytes / (line_bytes * ways); }
};

struct GpuConfig {
  // --- Table 4.1 ---
  int num_sms = 60;
  double core_freq_ghz = 0.7;
  int warp_size = 32;
  int max_warps_per_sm = 48;  // in [1, kMaxWarpsPerSm]
  int max_blocks_per_sm = 8;
  WarpSchedPolicy warp_sched = WarpSchedPolicy::kGto;
  MemSchedPolicy mem_sched = MemSchedPolicy::kFrFcfs;

  // --- SIMT core execution resources ---
  int schedulers_per_sm = 2;       // dual warp schedulers (Fermi)
  int alu_pipes = 2;               // SIMD execution pipes per SM
  int alu_initiation_interval = 2; // cycles a pipe is occupied per warp insn
  int alu_dep_latency = 10;        // result latency for dependent instructions
  int lsu_queue_size = 64;         // pending memory transactions per SM
  int l1_hit_latency = 24;         // cycles from issue to data for an L1 hit

  // --- L1 data cache (per SM, 16 kB) ---
  CacheConfig l1d{16 * 1024, 128, 4, 32};

  // --- Shared L2 (768 kB total, sliced per memory channel) ---
  CacheConfig l2{768 * 1024, 128, 8, 64};  // size is the TOTAL across slices
  int l2_latency = 80;                     // slice lookup-to-response cycles

  // --- Interconnect (SM <-> L2 crossbar) ---
  int icnt_latency = 8;   // one-way traversal cycles
  int icnt_vq_size = 4;   // per-SM virtual-queue depth at each slice input;
                          // when full, only that SM's LSU stalls

  // --- DRAM ---
  int num_channels = 6;
  int banks_per_channel = 8;
  int lines_per_row = 32;      // 32 x 128 B = 4 kB row buffer
  int row_hit_cycles = 12;     // bank busy time on a row-buffer hit
  int row_miss_cycles = 36;    // precharge + activate + access
  int data_bus_cycles = 3;     // channel data-bus occupancy per 128 B line
  int channel_queue_size = 48; // FR-FCFS scheduling window

  // --- Simulation (not hardware) ---
  // Event-horizon-aware execution: components that provably cannot act
  // this cycle (an SM with no response due and no runnable warp, a quiet
  // L2 slice) are skipped, and when a tick makes no progress anywhere on
  // the device, the clock fast-forwards to the earliest cycle at which any
  // component can act again. Results (cycles and every AppStats counter)
  // are byte-identical with the knob on or off — it only changes
  // wall-clock time. Off (--no-skip in the benches) forces the reference
  // loop that ticks every component every cycle, for debugging the
  // simulator core and validating the fast path against it.
  bool skip_idle_cycles = true;

  // Time-based sampled simulation (sim_mode = sampled): execute detailed
  // measurement windows of sample_detail_cycles, then jump up to
  // sample_skip_cycles by advancing per-app progress analytically at the
  // last closed window's observed per-app issue rate (the population mean
  // across windows only feeds the reported confidence interval), with
  // DRAM/L2/cache state carried across the gap. The first window is
  // warm-up — it joins the population but never drives a jump. Jumps
  // never cross a skip barrier (SMRA observation windows stay exact) and
  // shrink near each app's end of work, so completion always runs
  // detailed. Orthogonal to skip_idle_cycles, which stays exact in both
  // modes.
  SimMode sim_mode = SimMode::kDetailed;
  uint64_t sample_detail_cycles = 10'000;
  uint64_t sample_skip_cycles = 90'000;

  // --- Safety ---
  uint64_t max_cycles = 80'000'000;  // runaway-simulation guard

  // Peak DRAM bandwidth implied by the timing constants, in GB/s.
  double peak_bandwidth_gbps() const {
    const double lines_per_cycle =
        static_cast<double>(num_channels) / data_bus_cycles;
    return lines_per_cycle * l2.line_bytes * core_freq_ghz;
  }

  // Device-wide thread-instruction issue ceiling per cycle: each SM's ALU
  // pipes jointly sustain alu_pipes/initiation_interval warp insns/cycle
  // (capped by the scheduler count), times warp_size threads.
  double peak_thread_ipc() const {
    double per_sm = static_cast<double>(alu_pipes) / alu_initiation_interval;
    if (per_sm > schedulers_per_sm) per_sm = schedulers_per_sm;
    return per_sm * num_sms * warp_size;
  }

  uint32_t l2_slice_bytes() const { return l2.size_bytes / num_channels; }
};

// Throws std::logic_error, naming the config key, for the first field
// outside the range the simulator's constructors assume: every count, size
// and divisor positive, every latency non-negative, max_warps_per_sm in
// [1, kMaxWarpsPerSm], at least one set in the L1D and in each L2 slice,
// and positive sample periods in sampled mode. config_from_string and
// Gpu::Gpu both call it, so a bad device config fails before anything is
// sized from it.
void validate(const GpuConfig& cfg);

}  // namespace gpumas::sim
