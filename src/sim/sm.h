// Streaming Multiprocessor (SIMT core).
//
// Models the Fermi-style core of Fig 3.2/3.3: 48 warp contexts in 8 block
// slots, two GTO (greedy-then-oldest) warp schedulers, a pair of SIMD ALU
// pipes with an initiation interval, a load-store unit that injects one
// memory transaction per cycle into the L1, and an L1 data cache with MSHR
// merging. Warp-level timing comes from the kernel model's ilp (dependency
// stalls) and mlp (outstanding-miss budget) parameters.
//
// The per-cycle entry point reports whether the core made progress and
// exposes next_wake_cycle(), the earliest future cycle at which its
// time-gated state changes — the two ingredients the device uses to
// fast-forward over provably idle spans (see Gpu::tick).
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "sim/cache.h"
#include "sim/gpu_config.h"
#include "sim/kernel.h"
#include "sim/mshr_table.h"
#include "sim/stats.h"

namespace gpumas::sim {

// An L1-miss read (or write-through store) traveling from an SM to the L2.
struct MemRequest {
  uint64_t line = 0;
  uint16_t sm = 0;
  uint8_t app = 0;
  bool is_store = false;
};

// Interface through which the SM injects L1 misses into the interconnect.
// Implemented by Gpu; virtual dispatch is off the per-cycle fast path (it is
// paid once per L1 miss). try_send returns false when the destination
// slice's input buffer is full (credit-based flow control) — the LSU then
// stalls and retries.
class MemoryFabric {
 public:
  virtual ~MemoryFabric() = default;
  virtual bool try_send(const MemRequest& req, uint64_t cycle) = 0;
};

// What one SM tick did, for the device's progress/fast-forward tracking.
struct SmTickResult {
  bool progress = false;       // any state change this cycle
  bool block_retired = false;  // completed_blocks() is non-empty
};

class StreamingMultiprocessor {
 public:
  StreamingMultiprocessor(const GpuConfig& cfg, int sm_id);

  // --- block dispatch (called by the work distributor) ---
  bool can_accept_block(int warps_per_block) const;
  void dispatch_block(uint8_t app, const KernelParams* kp, uint64_t base_line,
                      uint32_t block_index);

  // Advances one cycle: drains due memory responses, lets each scheduler
  // issue at most one warp instruction, and pops one LSU transaction.
  SmTickResult tick(uint64_t cycle, MemoryFabric& fabric,
                    std::vector<AppStats>& stats);

  // Response path: `line` becomes available in this SM's L1 at `ready_cycle`.
  void schedule_fill(uint64_t line, uint64_t ready_cycle);

  // --- sampled-mode analytic advance (see Gpu::sample_tick) ---
  // Resident warps of `app` that can absorb analytic progress: at least two
  // instructions from the end, because the final instruction and retirement
  // always execute on the detailed path — completion bookkeeping
  // (maybe_retire, block drain, app finish) is never synthesized.
  int advanceable_warp_count(uint8_t app) const;

  // Snapshots every resident warp's instruction cursor; window progress
  // is measured against the latest snapshot. Taken by the sampling
  // controller at the start of each measurement span.
  void begin_progress_window();

  // Folds this core's advanceable warps of `app` into the persistence
  // regression sums (n, Σx, Σy, Σxx, Σyy, Σxy) where x is a warp's
  // cumulative detailed progress at the window snapshot (insns issued on
  // the detailed path — analytic credits excluded, they would echo the
  // model's own output back into its input) and y its progress within
  // the window. The sampling controller regresses y on x across the
  // device: under GTO's persistent priority ranks warps ahead keep
  // progressing faster (slope recovers the structural rate spread),
  // while mean-reverting stall luck regresses to slope ~0. x is
  // averaged over every window the warp has run, so the slope is not
  // attenuated by single-window noise the way a raw correlation is.
  void persistence_terms(uint8_t app, double sums[6]) const;

  // Sum over this core's advanceable warps of `app` of the regression
  // prediction max(y_bar + b * (x_i - x_bar), 0.01 * y_bar) — each
  // warp's expected per-window progress given its history. The weights
  // a jump's budget is split by, both across SMs (this sum) and across
  // each SM's warps. The floor keeps a freshly dispatched or
  // persistently starved warp from being frozen out of credit entirely.
  double predicted_weight(uint8_t app, double b, double x_bar,
                          double y_bar) const;

  // Bumps this core's advanceable warps of `app` by `sm_budget`
  // instructions in total, split proportionally to the same regression
  // predictions as predicted_weight. Crediting each warp at its
  // predicted rate preserves — and, under persistent GTO priority
  // ranks, keeps growing — the warp-progress spread that makes the
  // end-of-app drain phase (throughput decaying as warps finish
  // unevenly and latency hiding dries up) re-emerge when the tail runs
  // detailed; for latency-bound kernels whose window progress is
  // mean-reverting stall luck the slope shrinks the predictions toward
  // the mean and the split degenerates to uniform — crediting noise
  // forward would over-disperse the warps and stretch the drain.
  // Shares are capped at each warp's advanceable budget (the final
  // instruction and retirement always execute detailed). On top of the
  // regression prediction, `jitter` instructions of zero-sum dispersion
  // are folded in: consecutive advanceable warps are paired and one of
  // each pair gains what the other loses, with the direction drawn from
  // a hash of (salt, core, pair) so it is independent across jumps.
  // Detailed execution random-walks the warps apart even when no warp
  // is persistently faster (independent stall luck accumulates variance
  // linearly in time); the caller measures that diffusion from the
  // window population and injects the equivalent spread here, because a
  // jump that credits warps uniformly leaves them artificially
  // synchronized — an under-dispersed device runs measurably faster
  // than the detailed one (smoother DRAM channel interleaving) and its
  // end-of-run drain collapses. The skipped instruction indices are
  // walked through the same hash the detailed issue path uses, so the
  // memory-instruction cursor (mem_insns_done, next_is_mem) stays
  // exactly consistent with the address stream. Credits
  // warp_insns/mem_insns in `stats`; in-flight state (outstanding
  // misses, stalls, events) is deliberately untouched — it is re-timed
  // across the jump and drains in the next detailed window. Returns the
  // instructions credited.
  uint64_t advance_warps_analytically(uint8_t app, uint64_t sm_budget,
                                      double b, double x_bar, double y_bar,
                                      double jitter, uint64_t salt,
                                      std::vector<AppStats>& stats);

  // Shifts every pending timestamp later than `now` by `delta`: queued
  // response events, warp dependency stalls, and busy ALU pipes. Used by
  // the sampled-mode fast-forward to make the jump invisible to
  // in-flight work — the core resumes exactly where the window close
  // paused it instead of having every pending fill become due at once.
  void retime(uint64_t now, uint64_t delta);

  // Earliest cycle strictly after `cycle` at which this core's time-gated
  // state changes (a pending response arrives, a dependency stall expires,
  // an ALU pipe frees); UINT64_MAX when none. A non-empty LSU means "could
  // act as soon as the memory system unblocks" and contributes nothing here:
  // the unblocking component contributes its own wake cycle. Only
  // meaningful right after a tick that made no progress.
  uint64_t next_wake_cycle(uint64_t cycle) const;

  // Next cycle at which this core must be ticked, valid immediately after
  // tick(cycle): now+1 while the LSU is draining (its head was accepted and
  // more transactions wait), else the earliest event or runnable-warp cycle
  // (UINT64_MAX when fully drained). A refused LSU head (L1 MSHRs full, or
  // interconnect backpressure) does not keep the core awake: only a fill
  // or hit-done event, or the L2 popping this core's virtual queue, can
  // change the verdict, and the device min-updates its copy of the wake on
  // both (deliver_fill, accept_from_vq). Unlike next_wake_cycle this
  // schedules the core's own ticks, not the device-wide fast-forward.
  uint64_t post_tick_wake(uint64_t cycle) const {
    if (!lsu_.empty() && !lsu_refused_) return cycle + 1;
    uint64_t wake = warp_wake_cache_ == 0 ? cycle + 1 : warp_wake_cache_;
    if (!events_.empty() && events_.top().cycle < wake) {
      wake = events_.top().cycle;
    }
    return wake <= cycle ? cycle + 1 : wake;
  }

  // Blocks that completed during the last tick (app ids); cleared per tick.
  const std::vector<uint8_t>& completed_blocks() const {
    return completed_blocks_;
  }

  int resident_blocks() const { return resident_blocks_; }
  int resident_warps() const { return resident_warps_; }
  // The LSU head was refused on the last tick, and the core sleeps until
  // the memory system frees it (see post_tick_wake).
  bool lsu_stalled() const { return !lsu_.empty() && lsu_refused_; }
  bool quiescent() const {
    return resident_blocks_ == 0 && lsu_.empty() && events_.empty();
  }

  const Cache& l1() const { return l1_; }
  int id() const { return id_; }

 private:
  struct WarpCtx {
    const KernelParams* kp = nullptr;
    uint64_t base_line = 0;
    uint64_t not_before = 0;
    uint64_t age = 0;
    uint32_t gwarp = 0;
    int insns_done = 0;
    int analytic_insns = 0;     // share of insns_done credited by jumps
    int window_base_insns = 0;  // cursor at begin_progress_window()
    int mem_insns_done = 0;
    int outstanding = 0;
    uint8_t app = 0;
    uint8_t block_slot = 0;
    bool valid = false;
    bool waiting_mem = false;
    bool next_is_mem = false;
  };

  struct WarpScheduler {
    uint64_t owned = 0;    // warp slots congruent to its index
    int last_issued = -1;  // -1 if none
  };

  struct BlockSlot {
    int warps_left = 0;
    uint8_t app = 0;
    bool valid = false;
  };

  // `app` is carried in the transaction because stores are fire-and-forget:
  // the issuing warp may retire (and its slot be reused) while its stores
  // are still draining through the LSU.
  struct MemTx {
    uint64_t line = 0;
    uint16_t warp_slot = 0;
    uint8_t app = 0;
    bool is_store = false;
  };

  struct Event {
    uint64_t cycle = 0;
    uint64_t line = 0;       // kFill payload
    uint32_t warp_slot = 0;  // kHitDone payload
    uint8_t kind = 0;        // 0 = kFill, 1 = kHitDone
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.cycle > b.cycle;
    }
  };

  struct MshrEntry {
    WaiterPool<uint16_t>::Chain waiters;
    uint8_t app = 0;
  };

  bool drain_events(uint64_t cycle, std::vector<AppStats>& stats);
  bool scheduler_issue(int sched, uint64_t cycle, std::vector<AppStats>& stats);
  bool can_issue(const WarpCtx& w, uint64_t cycle, bool alu_pipe_free) const;
  void issue(int slot, uint64_t cycle, std::vector<AppStats>& stats);
  bool lsu_tick(uint64_t cycle, MemoryFabric& fabric,
                std::vector<AppStats>& stats);
  void complete_transaction(int slot, std::vector<AppStats>& stats);
  void maybe_retire(int slot, std::vector<AppStats>& stats);
  void refresh_ready(int slot);
  int free_alu_pipe(uint64_t cycle) const;
  uint64_t compute_warp_wake(uint64_t cycle) const;

  // --- configuration (copied; hot path avoids pointer chasing) ---
  int id_;
  int warp_size_;
  int max_warps_;
  int max_blocks_;
  int num_schedulers_;
  int alu_initiation_interval_;
  int alu_dep_latency_;
  int lsu_capacity_;
  int l1_hit_latency_;
  uint32_t l1_mshr_entries_;
  WarpSchedPolicy policy_;

  // --- state ---
  std::vector<WarpCtx> warps_;
  std::vector<BlockSlot> blocks_;
  std::vector<uint64_t> pipe_busy_until_;
  std::vector<WarpScheduler> scheds_;
  std::deque<MemTx> lsu_;
  Cache l1_;
  MshrTable<MshrEntry> l1_mshr_;
  WaiterPool<uint16_t> l1_waiters_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::vector<uint64_t> addr_scratch_;
  std::vector<uint8_t> completed_blocks_;
  // Valid warps, one bit per slot; visiting its bits lowest first walks
  // the resident warps in ascending slot order.
  uint64_t resident_mask_ = 0;
  // Issue candidates, one bit per slot: a warp is in exactly one of the two
  // (by next_is_mem) while it is valid, not waiting_mem and not finished.
  // not_before and the pipe/LSU resources are left to can_issue, so the
  // masks are a superset filter. refresh_ready keeps them current at every
  // mutation of those fields.
  uint64_t alu_ready_ = 0;
  uint64_t mem_ready_ = 0;
  // The last lsu_tick was refused (L1 MSHRs full or interconnect
  // backpressure); meaningful only while lsu_ is non-empty.
  bool lsu_refused_ = false;
  uint64_t age_counter_ = 0;
  // Earliest cycle at which some warp could issue (min not_before over
  // runnable warps, plus pipe-free times when a warp is ready but all pipes
  // are busy). 0 = unknown / could act now. Recomputed only when stale:
  // warp_wake_dirty_ marks any warp-state mutation since the last compute,
  // so a stalled core's tick degenerates to three compares.
  uint64_t warp_wake_cache_ = 0;
  bool warp_wake_dirty_ = true;
  bool fast_path_enabled_ = true;  // GpuConfig::skip_idle_cycles
  int resident_blocks_ = 0;
  int resident_warps_ = 0;
};

}  // namespace gpumas::sim
