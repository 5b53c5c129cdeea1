#include "sim/sm.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/check.h"

namespace gpumas::sim {

namespace {
// Calls fn(slot) for every set bit of `mask`, lowest slot first.
template <typename Fn>
void for_each_slot(uint64_t mask, Fn fn) {
  for (; mask != 0; mask &= mask - 1) fn(__builtin_ctzll(mask));
}
}  // namespace

StreamingMultiprocessor::StreamingMultiprocessor(const GpuConfig& cfg,
                                                 int sm_id)
    : id_(sm_id),
      warp_size_(cfg.warp_size),
      max_warps_(cfg.max_warps_per_sm),
      max_blocks_(cfg.max_blocks_per_sm),
      num_schedulers_(cfg.schedulers_per_sm),
      alu_initiation_interval_(cfg.alu_initiation_interval),
      alu_dep_latency_(cfg.alu_dep_latency),
      lsu_capacity_(cfg.lsu_queue_size),
      l1_hit_latency_(cfg.l1_hit_latency),
      l1_mshr_entries_(cfg.l1d.mshr_entries),
      policy_(cfg.warp_sched),
      warps_(static_cast<size_t>(max_warps_)),
      blocks_(static_cast<size_t>(cfg.max_blocks_per_sm)),
      pipe_busy_until_(static_cast<size_t>(cfg.alu_pipes), 0),
      scheds_(static_cast<size_t>(cfg.schedulers_per_sm)),
      l1_(cfg.l1d),
      l1_mshr_(cfg.l1d.mshr_entries),
      fast_path_enabled_(cfg.skip_idle_cycles) {
  for (int s = 0; s < num_schedulers_; ++s) {
    for (int slot = s; slot < max_warps_; slot += num_schedulers_) {
      scheds_[static_cast<size_t>(s)].owned |= 1ull << slot;
    }
  }
}

bool StreamingMultiprocessor::can_accept_block(int warps_per_block) const {
  if (resident_blocks_ >= max_blocks_) return false;
  return resident_warps_ + warps_per_block <= max_warps_;
}

void StreamingMultiprocessor::dispatch_block(uint8_t app,
                                             const KernelParams* kp,
                                             uint64_t base_line,
                                             uint32_t block_index) {
  GPUMAS_CHECK(can_accept_block(kp->warps_per_block));
  GPUMAS_CHECK(kp->insns_per_warp > 0);
  int slot = -1;
  for (int b = 0; b < max_blocks_; ++b) {
    if (!blocks_[static_cast<size_t>(b)].valid) {
      slot = b;
      break;
    }
  }
  GPUMAS_CHECK(slot >= 0);
  blocks_[static_cast<size_t>(slot)] =
      BlockSlot{kp->warps_per_block, app, true};
  ++resident_blocks_;

  int placed = 0;
  for (int w = 0; w < max_warps_ && placed < kp->warps_per_block; ++w) {
    WarpCtx& ctx = warps_[static_cast<size_t>(w)];
    if (ctx.valid) continue;
    ctx = WarpCtx{};
    ctx.kp = kp;
    ctx.base_line = base_line;
    ctx.age = age_counter_++;
    ctx.gwarp = block_index * static_cast<uint32_t>(kp->warps_per_block) +
                static_cast<uint32_t>(placed);
    ctx.app = app;
    ctx.block_slot = static_cast<uint8_t>(slot);
    ctx.valid = true;
    ctx.next_is_mem = insn_is_mem(*kp, ctx.gwarp, 0);
    resident_mask_ |= 1ull << w;
    refresh_ready(w);
    ++placed;
    ++resident_warps_;
  }
  GPUMAS_CHECK(placed == kp->warps_per_block);
  warp_wake_cache_ = 0;  // fresh warps can issue immediately
  warp_wake_dirty_ = true;
}

void StreamingMultiprocessor::schedule_fill(uint64_t line,
                                            uint64_t ready_cycle) {
  events_.push(Event{ready_cycle, line, 0, 0});
}

int StreamingMultiprocessor::advanceable_warp_count(uint8_t app) const {
  int n = 0;
  for_each_slot(resident_mask_, [&](int slot) {
    const WarpCtx& w = warps_[static_cast<size_t>(slot)];
    if (w.app == app && w.insns_done + 1 < w.kp->insns_per_warp) ++n;
  });
  return n;
}

void StreamingMultiprocessor::begin_progress_window() {
  for_each_slot(resident_mask_, [&](int slot) {
    WarpCtx& w = warps_[static_cast<size_t>(slot)];
    w.window_base_insns = w.insns_done;
  });
}

void StreamingMultiprocessor::persistence_terms(uint8_t app,
                                                double sums[6]) const {
  for_each_slot(resident_mask_, [&](int slot) {
    const WarpCtx& w = warps_[static_cast<size_t>(slot)];
    if (w.app != app || w.insns_done + 1 >= w.kp->insns_per_warp) return;
    // Analytic credits land between windows, so analytic_insns is
    // unchanged since the snapshot: base - analytic is the cumulative
    // detailed progress at window start.
    const double x =
        static_cast<double>(w.window_base_insns - w.analytic_insns);
    const double y = static_cast<double>(w.insns_done - w.window_base_insns);
    sums[0] += 1.0;
    sums[1] += x;
    sums[2] += y;
    sums[3] += x * x;
    sums[4] += y * y;
    sums[5] += x * y;
  });
}

double StreamingMultiprocessor::predicted_weight(uint8_t app, double b,
                                                 double x_bar,
                                                 double y_bar) const {
  double weight = 0.0;
  for_each_slot(resident_mask_, [&](int slot) {
    const WarpCtx& w = warps_[static_cast<size_t>(slot)];
    if (w.app != app || w.insns_done + 1 >= w.kp->insns_per_warp) return;
    const double x = static_cast<double>(w.insns_done - w.analytic_insns);
    weight += std::max(y_bar + b * (x - x_bar), 0.01 * y_bar);
  });
  return weight;
}

uint64_t StreamingMultiprocessor::advance_warps_analytically(
    uint8_t app, uint64_t sm_budget, double b, double x_bar, double y_bar,
    double jitter, uint64_t salt, std::vector<AppStats>& stats) {
  if (sm_budget == 0) return 0;
  const double total_weight = predicted_weight(app, b, x_bar, y_bar);
  if (total_weight <= 0.0) return 0;
  const auto bump = [&](int slot, uint64_t take) {
    WarpCtx& w = warps_[static_cast<size_t>(slot)];
    int mem = 0;
    const uint32_t first = static_cast<uint32_t>(w.insns_done);
    for (uint32_t idx = first; idx < first + take; ++idx) {
      if (insn_is_mem(*w.kp, w.gwarp, idx)) ++mem;
    }
    w.insns_done += static_cast<int>(take);
    w.analytic_insns += static_cast<int>(take);
    w.mem_insns_done += mem;
    w.next_is_mem =
        insn_is_mem(*w.kp, w.gwarp, static_cast<uint32_t>(w.insns_done));
    stats[w.app].warp_insns += take;
    stats[w.app].mem_insns += static_cast<uint64_t>(mem);
    refresh_ready(slot);
  };

  // Advanceable slots are collected first so the dispersion jitter can
  // be applied in exact zero-sum pairs (the odd warp out gets none).
  std::vector<int> adv;
  adv.reserve(static_cast<size_t>(resident_warps_));
  for_each_slot(resident_mask_, [&](int slot) {
    const WarpCtx& w = warps_[static_cast<size_t>(slot)];
    if (w.app != app || w.insns_done + 1 >= w.kp->insns_per_warp) return;
    adv.push_back(slot);
  });
  uint64_t credited = 0;
  for (size_t i = 0; i < adv.size(); ++i) {
    const WarpCtx& w = warps_[static_cast<size_t>(adv[i])];
    const double x = static_cast<double>(w.insns_done - w.analytic_insns);
    const double weight = std::max(y_bar + b * (x - x_bar), 0.01 * y_bar);
    const uint64_t cap =
        static_cast<uint64_t>(w.kp->insns_per_warp - 1 - w.insns_done);
    double quota = static_cast<double>(sm_budget) * weight / total_weight;
    if (jitter > 0.0 && (i ^ 1) < adv.size()) {
      // splitmix64-style hash of (jump, core, pair) picks which side of
      // the pair gains: independent across jumps (a fixed direction
      // would compound into structural spread, an alternating one would
      // cancel; an independent draw yields the random walk being
      // modeled).
      uint64_t h = (salt + 1) * 0x9E3779B97F4A7C15ull +
                   (static_cast<uint64_t>(id_) << 20) + (i >> 1);
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 27;
      const bool gains = ((h >> 13) ^ i) & 1;
      quota += gains ? jitter : -jitter;
    }
    const uint64_t take =
        std::min(quota <= 0.0 ? 0 : static_cast<uint64_t>(quota), cap);
    if (take == 0) continue;
    bump(adv[i], take);
    credited += take;
  }
  if (credited > 0) {
    warp_wake_cache_ = 0;
    warp_wake_dirty_ = true;
  }
  return credited;
}

bool StreamingMultiprocessor::drain_events(uint64_t cycle,
                                           std::vector<AppStats>& stats) {
  bool drained = false;
  while (!events_.empty() && events_.top().cycle <= cycle) {
    const Event ev = events_.top();
    events_.pop();
    drained = true;
    if (ev.kind == 0) {
      // Fill: line data arrived from L2/DRAM. Install in L1 and release all
      // transactions merged on this line's MSHR entry.
      l1_.fill(ev.line);
      MshrEntry* entry = l1_mshr_.find(ev.line);
      GPUMAS_CHECK_MSG(entry != nullptr, "fill without MSHR entry");
      stats[entry->app].l1_fills++;
      // The entry must be erased before waking waiters so that a waiter that
      // immediately re-misses on another line can allocate the freed slot.
      const WaiterPool<uint16_t>::Chain waiters = entry->waiters;
      l1_mshr_.erase(ev.line);
      l1_waiters_.consume(waiters, [&](uint16_t slot) {
        complete_transaction(slot, stats);
      });
    } else {
      complete_transaction(static_cast<int>(ev.warp_slot), stats);
    }
  }
  return drained;
}

void StreamingMultiprocessor::complete_transaction(
    int slot, std::vector<AppStats>& stats) {
  WarpCtx& w = warps_[static_cast<size_t>(slot)];
  GPUMAS_CHECK(w.valid && w.outstanding > 0);
  --w.outstanding;
  // Resume only when the next memory instruction's full burst fits within
  // the warp's mlp budget; otherwise divergent kernels would sustain
  // mlp + divergence outstanding transactions instead of mlp.
  const int resume =
      w.kp->mlp > w.kp->divergence ? w.kp->mlp - w.kp->divergence : 0;
  if (w.waiting_mem && w.outstanding <= resume) w.waiting_mem = false;
  warp_wake_dirty_ = true;
  maybe_retire(slot, stats);
  refresh_ready(slot);
}

void StreamingMultiprocessor::maybe_retire(int slot,
                                           std::vector<AppStats>& stats) {
  WarpCtx& w = warps_[static_cast<size_t>(slot)];
  if (!w.valid || w.insns_done < w.kp->insns_per_warp || w.outstanding > 0) {
    return;
  }
  stats[w.app].warps_completed++;
  BlockSlot& blk = blocks_[w.block_slot];
  GPUMAS_CHECK(blk.valid && blk.warps_left > 0);
  if (--blk.warps_left == 0) {
    blk.valid = false;
    --resident_blocks_;
    stats[w.app].blocks_completed++;
    completed_blocks_.push_back(w.app);
  }
  w.valid = false;
  resident_mask_ &= ~(1ull << slot);
  refresh_ready(slot);
  --resident_warps_;
}

void StreamingMultiprocessor::refresh_ready(int slot) {
  const uint64_t bit = 1ull << slot;
  const WarpCtx& w = warps_[static_cast<size_t>(slot)];
  alu_ready_ &= ~bit;
  mem_ready_ &= ~bit;
  if (w.valid && !w.waiting_mem && w.insns_done < w.kp->insns_per_warp) {
    (w.next_is_mem ? mem_ready_ : alu_ready_) |= bit;
  }
}

int StreamingMultiprocessor::free_alu_pipe(uint64_t cycle) const {
  for (size_t p = 0; p < pipe_busy_until_.size(); ++p) {
    if (pipe_busy_until_[p] <= cycle) return static_cast<int>(p);
  }
  return -1;
}

bool StreamingMultiprocessor::can_issue(const WarpCtx& w, uint64_t cycle,
                                        bool alu_pipe_free) const {
  if (!w.valid || w.waiting_mem || w.not_before > cycle ||
      w.insns_done >= w.kp->insns_per_warp) {
    return false;
  }
  if (w.next_is_mem) {
    return lsu_.size() + static_cast<size_t>(w.kp->divergence) <=
           static_cast<size_t>(lsu_capacity_);
  }
  return alu_pipe_free;
}

void StreamingMultiprocessor::issue(int slot, uint64_t cycle,
                                    std::vector<AppStats>& stats) {
  warp_wake_dirty_ = true;
  WarpCtx& w = warps_[static_cast<size_t>(slot)];
  stats[w.app].warp_insns++;
  if (w.next_is_mem) {
    stats[w.app].mem_insns++;
    const bool is_store =
        insn_is_store(*w.kp, w.gwarp, static_cast<uint32_t>(w.insns_done));
    addr_scratch_.clear();
    generate_addresses(*w.kp, w.base_line, w.gwarp,
                       static_cast<uint32_t>(w.mem_insns_done), addr_scratch_);
    for (uint64_t line : addr_scratch_) {
      lsu_.push_back(MemTx{line, static_cast<uint16_t>(slot), w.app, is_store});
    }
    if (!is_store) {
      // Stores drain through a write buffer and never block the warp.
      w.outstanding += w.kp->divergence;
      if (w.outstanding >= w.kp->mlp) w.waiting_mem = true;
    }
    w.mem_insns_done++;
    w.not_before = cycle + 1;
  } else {
    const int pipe = free_alu_pipe(cycle);
    GPUMAS_CHECK(pipe >= 0);
    pipe_busy_until_[static_cast<size_t>(pipe)] =
        cycle + static_cast<uint64_t>(alu_initiation_interval_);
    w.not_before =
        cycle + static_cast<uint64_t>(w.kp->alu_stall_cycles(alu_dep_latency_));
  }
  w.insns_done++;
  if (w.insns_done < w.kp->insns_per_warp) {
    w.next_is_mem =
        insn_is_mem(*w.kp, w.gwarp, static_cast<uint32_t>(w.insns_done));
  } else {
    maybe_retire(slot, stats);
  }
  refresh_ready(slot);
}

bool StreamingMultiprocessor::scheduler_issue(int sched, uint64_t cycle,
                                              std::vector<AppStats>& stats) {
  // One ALU-pipe availability probe per scheduler per cycle: at most one
  // instruction issues below, so pipe state cannot change between the warp
  // eligibility checks this result feeds.
  const bool alu_pipe_free = free_alu_pipe(cycle) >= 0;
  // Candidates: the warps this scheduler owns (slots congruent to its index
  // modulo num_schedulers_) whose next instruction's unit has room — a
  // free ALU pipe, or an LSU that is not full. can_issue still decides
  // (not_before, the whole burst fitting the LSU), but a warp outside this
  // set can never pass it, so an empty set means nothing issues.
  WarpScheduler& ws = scheds_[static_cast<size_t>(sched)];
  const uint64_t cand =
      ws.owned &
      ((alu_pipe_free ? alu_ready_ : 0) |
       (lsu_.size() < static_cast<size_t>(lsu_capacity_) ? mem_ready_ : 0));
  if (cand == 0) return false;
  const auto issuable = [&](int slot) {
    return can_issue(warps_[static_cast<size_t>(slot)], cycle, alu_pipe_free);
  };
  int& last = ws.last_issued;
  int best = -1;
  if (policy_ == WarpSchedPolicy::kGto) {
    // Greedy: keep issuing from the warp that issued last; otherwise fall
    // back to the oldest issuable candidate.
    if (last >= 0 && ((cand >> last) & 1) != 0 && issuable(last)) {
      issue(last, cycle, stats);
      return true;
    }
    uint64_t best_age = ~0ull;
    for_each_slot(cand, [&](int slot) {
      const uint64_t age = warps_[static_cast<size_t>(slot)].age;
      if (age < best_age && issuable(slot)) {
        best_age = age;
        best = slot;
      }
    });
  } else {
    // LRR visits this scheduler's slots in circular slot order starting
    // just after the last issued one: first the candidates above it, then
    // the wrapped-around ones up to and including it.
    const uint64_t after_last = last >= 0 ? ~1ull << last : ~0ull;
    for (const uint64_t part : {cand & after_last, cand & ~after_last}) {
      for (uint64_t m = part; m != 0 && best < 0; m &= m - 1) {
        const int slot = __builtin_ctzll(m);
        if (issuable(slot)) best = slot;
      }
    }
  }
  if (best >= 0) {
    issue(best, cycle, stats);
    last = best;
    return true;
  }
  return false;
}

bool StreamingMultiprocessor::lsu_tick(uint64_t cycle, MemoryFabric& fabric,
                                       std::vector<AppStats>& stats) {
  if (lsu_.empty()) return false;
  const MemTx tx = lsu_.front();
  if (tx.is_store) {
    // Write-through, no-allocate: bypass the L1 straight to the L2/DRAM.
    if (fabric.try_send(
            MemRequest{tx.line, static_cast<uint16_t>(id_), tx.app, true},
            cycle)) {
      stats[tx.app].l1_accesses++;
      lsu_.pop_front();
      return true;
    }
    return false;
  }
  const WarpCtx& w = warps_[tx.warp_slot];
  GPUMAS_CHECK(w.valid);
  MshrEntry* pending = l1_mshr_.find(tx.line);
  if (pending != nullptr) {
    // Merge with an in-flight miss for the same line.
    stats[w.app].l1_accesses++;
    l1_waiters_.append(pending->waiters, tx.warp_slot);
    lsu_.pop_front();
    return true;
  }
  if (l1_.access(tx.line)) {
    stats[w.app].l1_accesses++;
    stats[w.app].l1_hits++;
    events_.push(Event{cycle + static_cast<uint64_t>(l1_hit_latency_), 0,
                       tx.warp_slot, 1});
    lsu_.pop_front();
    return true;
  }
  if (l1_mshr_.size() >= l1_mshr_entries_) {
    // Structural stall: retry this transaction next cycle. AppStats counts
    // the access only once the miss is accepted; the L1's Cache-internal
    // probe counters may see retries, which is why profiling reads
    // AppStats. (The L2 slices' caches see no re-probes on the fast path:
    // a refused L2 head's verdict is remembered, see Gpu::L2Slice.)
    return false;
  }
  if (!fabric.try_send(
          MemRequest{tx.line, static_cast<uint16_t>(id_), w.app, false},
          cycle)) {
    return false;  // interconnect backpressure: retry next cycle
  }
  stats[w.app].l1_accesses++;
  MshrEntry& entry = l1_mshr_.emplace(tx.line);
  entry.app = w.app;
  l1_waiters_.append(entry.waiters, tx.warp_slot);
  lsu_.pop_front();
  return true;
}

uint64_t StreamingMultiprocessor::compute_warp_wake(uint64_t cycle) const {
  uint64_t wake = ~0ull;
  bool blocked_now = false;  // a runnable warp is gated on resources
  for_each_slot(alu_ready_ | mem_ready_, [&](int slot) {
    const uint64_t not_before = warps_[static_cast<size_t>(slot)].not_before;
    if (not_before <= cycle) {
      blocked_now = true;
    } else if (not_before < wake) {
      wake = not_before;
    }
  });
  if (blocked_now) {
    // The warp failed can_issue on a resource: a busy ALU pipe (wake when
    // the earliest pipe frees) or a full LSU (lsu_ is then non-empty and
    // space frees only when its head is accepted: the core stays awake
    // while the LSU drains, and the memory system wakes it when a refused
    // head can proceed — see post_tick_wake).
    bool pipe_pending = false;
    for (const uint64_t p : pipe_busy_until_) {
      if (p > cycle) {
        pipe_pending = true;
        if (p < wake) wake = p;
      }
    }
    if (!pipe_pending && lsu_.empty()) {
      // Defensive: an eligible warp with free pipes should have issued;
      // never sleep through it.
      wake = cycle + 1;
    }
  }
  return wake;
}

uint64_t StreamingMultiprocessor::next_wake_cycle(uint64_t cycle) const {
  uint64_t wake = warp_wake_cache_ == 0 ? compute_warp_wake(cycle)
                                        : warp_wake_cache_;
  if (!events_.empty() && events_.top().cycle < wake) {
    wake = events_.top().cycle;
  }
  return wake > cycle ? wake : ~0ull;
}

void StreamingMultiprocessor::retime(uint64_t now, uint64_t delta) {
  if (!events_.empty()) {
    // A uniform shift preserves heap order, but priority_queue hides its
    // container; events are few (bounded by in-flight fills), so rebuild.
    std::vector<Event> pending;
    pending.reserve(events_.size());
    while (!events_.empty()) {
      Event e = events_.top();
      events_.pop();
      if (e.cycle > now) e.cycle += delta;
      pending.push_back(e);
    }
    for (const Event& e : pending) events_.push(e);
  }
  for_each_slot(resident_mask_, [&](int slot) {
    WarpCtx& w = warps_[static_cast<size_t>(slot)];
    if (w.not_before > now) w.not_before += delta;
  });
  for (uint64_t& p : pipe_busy_until_) {
    if (p > now) p += delta;
  }
  // The cached wake is derived from the shifted times; shift it in step
  // (a stale value <= the post-jump cycle would be recomputed anyway).
  if (warp_wake_cache_ > now) warp_wake_cache_ += delta;
}

SmTickResult StreamingMultiprocessor::tick(uint64_t cycle,
                                           MemoryFabric& fabric,
                                           std::vector<AppStats>& stats) {
  SmTickResult result;
  completed_blocks_.clear();
  // Idle fast path: no response due, no warp runnable before the cached
  // wake cycle, and nothing queued in the LSU — this tick is provably a
  // no-op, so skip the scheduler and LSU scans entirely. Disabled in
  // --no-skip mode, which runs the reference every-component-every-cycle
  // loop the fast path is validated against.
  const bool events_due = !events_.empty() && events_.top().cycle <= cycle;
  if (fast_path_enabled_ && !events_due && lsu_.empty() &&
      warp_wake_cache_ > cycle) {
    return result;
  }
  if (events_due) result.progress |= drain_events(cycle, stats);
  bool issued = false;
  if ((alu_ready_ | mem_ready_) != 0) {
    for (int s = 0; s < num_schedulers_; ++s) {
      issued |= scheduler_issue(s, cycle, stats);
    }
  }
  result.progress |= issued;
  const bool lsu_moved = lsu_tick(cycle, fabric, stats);
  lsu_refused_ = !lsu_moved;
  result.progress |= lsu_moved;
  result.block_retired = !completed_blocks_.empty();
  // An issuing core is presumed active next cycle; otherwise refresh the
  // cached wake — but only when some warp state actually changed (or the
  // cached horizon has been reached), so a core stalled on the memory
  // system does not rescan its warps every cycle.
  if (issued) {
    warp_wake_cache_ = 0;
  } else if (warp_wake_dirty_ || warp_wake_cache_ <= cycle) {
    warp_wake_cache_ = compute_warp_wake(cycle);
    warp_wake_dirty_ = false;
  }
  return result;
}

}  // namespace gpumas::sim
