// Top-level GPU device model.
//
// Composes the substrate of Fig 3.1: an array of SMs, a crossbar
// interconnect, a sliced shared L2, and per-slice FR-FCFS DRAM channels,
// plus the multi-application work distributor. Multiple kernels may be
// resident simultaneously; each owns a disjoint set of SMs (spatial
// multitasking) while physically sharing L2 capacity and DRAM bandwidth —
// the two contention surfaces the paper's methodology manages.
//
// The clock is event-horizon aware: every component reports the earliest
// future cycle at which its time-gated state can change, and when a tick
// makes no progress anywhere, tick() fast-forwards the cycle counter to the
// global minimum of those wake cycles. Skipped cycles are provably no-ops
// (see the invariant note at Gpu::fast_forward), so cycle counts and every
// AppStats counter are byte-identical with skipping on or off
// (GpuConfig::skip_idle_cycles).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/bitset.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/gpu_config.h"
#include "sim/kernel.h"
#include "sim/mshr_table.h"
#include "sim/sm.h"
#include "sim/stats.h"
#include "sim/work_distributor.h"

namespace gpumas::sim {

// Window-population estimate of one app's steady-state IPC in sampled
// mode (GpuConfig::sim_mode == kSampled): mean thread-instruction IPC over
// the detailed measurement windows the app was live in, with a 95%
// confidence interval (1.96 * stddev / sqrt(windows)). All zero in
// detailed mode.
struct SampleEstimate {
  uint64_t windows = 0;
  double mean_ipc = 0.0;
  double ci95 = 0.0;
};

// Result of running all launched kernels to completion.
struct RunResult {
  uint64_t cycles = 0;
  std::vector<AppStats> apps;
  // Per-app window-population IPC estimates; empty in detailed mode.
  std::vector<SampleEstimate> sample_estimates;
  int warp_size = 32;

  uint64_t total_thread_insns() const {
    uint64_t t = 0;
    for (const auto& a : apps) t += a.thread_insns(warp_size);
    return t;
  }
  // Device throughput, Eq 1.1 (thread instructions per cycle).
  double device_throughput() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(total_thread_insns()) /
                             static_cast<double>(cycles);
  }
  // Per-app IPC over that app's own residency (until its finish cycle).
  double app_ipc(size_t app) const {
    const uint64_t c = apps[app].finish_cycle;
    return c == 0 ? 0.0
                  : static_cast<double>(apps[app].thread_insns(warp_size)) /
                        static_cast<double>(c);
  }
};

class Gpu final : public MemoryFabric {
 public:
  explicit Gpu(const GpuConfig& cfg);

  // Launches a kernel as a new application context; returns its app id.
  // All launches must precede the first tick.
  int launch(const KernelParams& kernel);

  // --- SM partitioning ---
  // Splits the SMs as evenly as possible among all launched apps.
  void set_even_partition();
  // Assigns counts[i] SMs to app i (sum must not exceed num_sms; leftovers
  // round-robin to the first apps).
  void set_partition_counts(const std::vector<int>& counts);
  // Drain-based move of up to n SMs from one app to another; returns the
  // number of SMs actually redirected (SMRA's actuation primitive).
  int repartition(int from_app, int to_app, int n);
  std::vector<int> partition_counts() const;

  // --- execution ---
  void tick();
  bool done() const;
  uint64_t cycle() const { return cycle_; }
  RunResult run_to_completion();

  // Callers that observe the device at fixed cycle boundaries (e.g. the
  // SMRA controller's evaluation windows) must cap fast-forwarding at
  // their next observation cycle, or an idle-span jump could carry the
  // clock past it. The barrier persists until replaced; UINT64_MAX (the
  // default) disables it.
  void set_skip_barrier(uint64_t cycle) { skip_barrier_ = cycle; }

  // --- fast-forward accounting (cycle() == ticked + skipped) ---
  uint64_t ticked_cycles() const { return ticked_cycles_; }
  uint64_t skipped_cycles() const { return skipped_cycles_; }

  // --- sampled mode (GpuConfig::sim_mode == kSampled) ---
  // Detailed measurement windows closed so far.
  uint64_t sample_windows() const { return sample_windows_; }
  SampleEstimate sample_estimate(size_t app) const;

  const std::vector<AppStats>& stats() const { return stats_; }
  const GpuConfig& config() const { return cfg_; }
  int num_apps() const { return static_cast<int>(apps_.size()); }
  double device_ipc() const;

  // MemoryFabric: SM -> L2 request injection with per-slice buffering.
  bool try_send(const MemRequest& req, uint64_t cycle) override;

  // Diagnostics (tests / benches).
  uint64_t dram_row_hits() const;
  uint64_t dram_row_misses() const;
  // Ready interconnect heads whose admission the L2 slices evaluated (room
  // check, MSHR lookup, tag probe); heads the admission memo skipped or
  // admitted from a remembered verdict are not counted. Not part of
  // AppStats: the memo is off under --no-skip, so this count differs
  // between the two loops while every simulated result stays identical.
  uint64_t l2_head_probes() const;

 private:
  struct IcntPacket {
    uint64_t ready_cycle = 0;
    MemRequest req;
  };
  struct L2Waiter {
    uint16_t sm = 0;
    uint8_t app = 0;
  };
  struct L2MshrEntry {
    WaiterPool<L2Waiter>::Chain waiters;
  };
  struct L2Slice {
    Cache cache;
    MshrTable<L2MshrEntry> mshr;
    WaiterPool<L2Waiter> waiters;
    // Per-source-SM virtual queues with round-robin arbitration: a
    // saturating application backpressures only its own SMs' LSUs instead
    // of starving co-runners' injections (crossbar fairness). vq_mask
    // tracks the non-empty queues so arbitration probes only those.
    std::vector<std::deque<IcntPacket>> vq;
    DynBitset vq_mask;
    int rr = 0;  // round-robin arbitration pointer
    // Admission memo (skip_idle_cycles only): ready heads refused for lack
    // of room, so arbitration probes each head once instead of every
    // cycle. miss_blocked: a load that missed L2 with no MSHR entry for its
    // line; store_blocked: a store. A verdict holds until the head is
    // popped or, for miss_blocked, an MSHR entry for its line is emplaced —
    // an L2 miss turns into a hit only through such an entry, because L2
    // fills come only from DRAM completions of MSHR'd lines and a store
    // write-through only refreshes a line already present. While the
    // slice lacks room the scan skips these heads; once room exists a
    // miss_blocked head goes straight to the miss path.
    DynBitset miss_blocked;
    DynBitset store_blocked;
    uint64_t head_probes = 0;  // see Gpu::l2_head_probes
    // Accepted misses (and write-throughs) waiting for DRAM-queue space.
    // Keeping them out of the acceptance path means a saturated memory
    // controller does not head-of-line-block lookups that would hit.
    std::deque<DramRequest> miss_queue;
    DramChannel dram;
    explicit L2Slice(const GpuConfig& cfg, int index)
        : cache(CacheConfig{cfg.l2_slice_bytes(), cfg.l2.line_bytes,
                            cfg.l2.ways, cfg.l2.mshr_entries}),
          mshr(cfg.l2.mshr_entries),
          vq(static_cast<size_t>(cfg.num_sms)),
          vq_mask(static_cast<size_t>(cfg.num_sms)),
          miss_blocked(static_cast<size_t>(cfg.num_sms)),
          store_blocked(static_cast<size_t>(cfg.num_sms)),
          dram(cfg, index) {}
  };

  int slice_of(uint64_t line) const {
    return static_cast<int>(line % static_cast<uint64_t>(cfg_.num_channels));
  }
  void decompose(uint64_t line, uint32_t& bank, uint64_t& row) const;
  bool tick_l2_slice(L2Slice& slice);
  bool accept_from_vq(L2Slice& slice, int src, bool miss_room,
                      bool store_room);
  void admit_miss(L2Slice& slice, const MemRequest& req);
  uint64_t slice_next_wake(const L2Slice& slice, uint64_t cycle) const;
  void check_app_completion();
  void fast_forward();
  void sample_tick();
  void open_sample_window();
  void advance_analytically(uint64_t jump);
  void retime_inflight(uint64_t delta);
  // Response delivery that also reschedules the destination core.
  void deliver_fill(uint16_t sm, uint64_t line, uint64_t ready_cycle) {
    sms_[sm].schedule_fill(line, ready_cycle);
    if (ready_cycle < sm_wake_[sm]) sm_wake_[sm] = ready_cycle;
  }

  GpuConfig cfg_;
  uint64_t cycle_ = 0;
  uint64_t ticked_cycles_ = 0;
  uint64_t skipped_cycles_ = 0;
  uint64_t skip_barrier_ = ~0ull;
  std::vector<StreamingMultiprocessor> sms_;
  std::vector<L2Slice> slices_;
  std::vector<LaunchedApp> apps_;
  std::vector<AppStats> stats_;
  // Per-SM tick schedule: the next cycle each core must be ticked (0 =
  // immediately). Min-updated on fill delivery and block dispatch; cores
  // whose wake lies in the future are not visited at all. --no-skip
  // ignores it and ticks every core every cycle.
  std::vector<uint64_t> sm_wake_;
  std::vector<int> fed_sms_;          // scratch: SMs fed this cycle
  std::vector<uint16_t> retired_sms_; // scratch: SMs that retired a block
  WorkDistributor distributor_;
  bool started_ = false;

  // --- sampled-mode controller state (see sample_tick) ---
  bool sampling_ = false;             // cfg_.sim_mode == kSampled
  uint64_t window_start_ = 0;
  uint64_t window_end_ = 0;           // 0 = no window opened yet
  uint64_t sample_windows_ = 0;
  // Each window starts with a settle prefix (a quarter of the window):
  // the jump that opened it moved every warp forward in its instruction
  // stream while the caches still hold the pre-jump working set, and
  // that locality transient must not enter the rate estimate. The
  // snapshot is armed once the prefix has passed.
  uint64_t measure_from_ = 0;
  bool measuring_ = false;
  std::vector<AppStats> window_base_; // stats snapshot at settle point
  // Welford accumulators of each app's per-cycle warp-instruction rate
  // over the closed windows it was live in. The population feeds the
  // reported confidence interval only; jump crediting uses last_rate_
  // (the most recently closed window), which tracks phase changes the
  // population mean would smear over.
  std::vector<uint64_t> rate_n_;
  std::vector<double> rate_mean_;
  std::vector<double> rate_m2_;
  std::vector<double> last_rate_;
  // Per-app persistence regression from the last closed window: each
  // warp's window progress y regressed on its cumulative detailed
  // progress x, giving the per-warp credit predictor
  // y_bar + b * (x - x_bar). Under GTO's persistent priority ranks the
  // slope recovers the structural warp-rate spread (compute-bound
  // kernels — the spread must be credited forward or the end-of-app
  // drain phase vanishes); mean-reverting stall luck regresses to slope
  // ~0 and the predictor collapses to uniform (latency-bound random
  // access — crediting noise forward would over-disperse the warps).
  // See StreamingMultiprocessor::advance_warps_analytically.
  std::vector<double> pred_frac_;  // EMA of b / (y_bar/x_bar)
  std::vector<double> pred_b_;
  std::vector<double> pred_xbar_;
  std::vector<double> pred_ybar_;
  // Per-app empirical progress diffusion: how fast the cross-warp
  // variance of cumulative detailed progress grows per ticked cycle,
  // measured between consecutive window closes. Independent stall luck
  // random-walks the warps apart (variance linear in time) even when
  // the persistence slope is zero; jumps inject the equivalent zero-sum
  // spread (see StreamingMultiprocessor::advance_warps_analytically) so
  // the sampled device carries the same dispersion the detailed one
  // would — an under-dispersed device runs measurably faster and its
  // end-of-run drain collapses. Because the variance is measured on
  // detailed-only progress (analytic credits excluded), any physical
  // mean reversion that counteracts the injected spread shows up as
  // reduced growth and the estimate self-corrects.
  std::vector<double> diff_rate_;       // EMA, insns^2 per ticked cycle
  std::vector<double> diff_varx_prev_;  // -1 until first observation
  std::vector<double> diff_n_prev_;
  std::vector<uint64_t> diff_tick_prev_;
};

}  // namespace gpumas::sim
