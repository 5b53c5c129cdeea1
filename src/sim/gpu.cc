#include "sim/gpu.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace gpumas::sim {

namespace {
// Each app gets a disjoint 1-TiB address region so that co-running apps
// never share lines: all cross-app interaction is capacity/bandwidth
// contention, as on real hardware with distinct contexts.
constexpr uint64_t kAppRegionLines = 1ull << 33;

// Capacity of the post-MSHR miss queue in front of each DRAM channel.
constexpr size_t kMissQueueCapacity = 96;

// cfg_ is the first member, so validating in its initializer runs before
// anything is sized from the config.
const GpuConfig& validated(const GpuConfig& cfg) {
  validate(cfg);
  return cfg;
}
}  // namespace

Gpu::Gpu(const GpuConfig& cfg)
    : cfg_(validated(cfg)),
      sm_wake_(static_cast<size_t>(cfg.num_sms), 0),
      distributor_(cfg.num_sms),
      sampling_(cfg.sim_mode == SimMode::kSampled) {
  sms_.reserve(static_cast<size_t>(cfg_.num_sms));
  for (int i = 0; i < cfg_.num_sms; ++i) sms_.emplace_back(cfg_, i);
  slices_.reserve(static_cast<size_t>(cfg_.num_channels));
  for (int i = 0; i < cfg_.num_channels; ++i) slices_.emplace_back(cfg_, i);
}

int Gpu::launch(const KernelParams& kernel) {
  GPUMAS_CHECK_MSG(!started_, "launch after simulation started");
  GPUMAS_CHECK_MSG(kernel.num_blocks > 0 && kernel.warps_per_block > 0 &&
                       kernel.insns_per_warp > 0,
                   "empty kernel '" << kernel.name << "'");
  GPUMAS_CHECK_MSG(kernel.warps_per_block <= cfg_.max_warps_per_sm,
                   "block of '" << kernel.name << "' exceeds SM warp capacity");
  GPUMAS_CHECK_MSG(apps_.size() < 200, "too many concurrent apps");
  const int app = static_cast<int>(apps_.size());
  LaunchedApp la;
  la.kernel = kernel;
  la.base_line = (static_cast<uint64_t>(app) + 1) * kAppRegionLines;
  apps_.push_back(std::move(la));
  stats_.emplace_back();
  return app;
}

void Gpu::set_even_partition() {
  GPUMAS_CHECK(!apps_.empty());
  const int n = static_cast<int>(apps_.size());
  std::vector<int> counts(static_cast<size_t>(n), cfg_.num_sms / n);
  for (int i = 0; i < cfg_.num_sms % n; ++i) counts[static_cast<size_t>(i)]++;
  set_partition_counts(counts);
}

void Gpu::set_partition_counts(const std::vector<int>& counts) {
  GPUMAS_CHECK(counts.size() == apps_.size());
  const int total = std::accumulate(counts.begin(), counts.end(), 0);
  GPUMAS_CHECK_MSG(total <= cfg_.num_sms, "partition exceeds SM count");
  int sm = 0;
  for (size_t app = 0; app < counts.size(); ++app) {
    GPUMAS_CHECK(counts[app] >= 0);
    for (int k = 0; k < counts[app]; ++k) {
      if (!started_) {
        distributor_.set_owner(sm, static_cast<int>(app));
      } else {
        distributor_.request_owner(sm, static_cast<int>(app));
      }
      ++sm;
    }
  }
  for (; sm < cfg_.num_sms; ++sm) {
    // Unassigned SMs stay idle (used by scalability sweeps with < 60 SMs).
    if (!started_) distributor_.set_owner(sm, -1);
  }
}

int Gpu::repartition(int from_app, int to_app, int n) {
  GPUMAS_CHECK(from_app >= 0 && from_app < num_apps());
  GPUMAS_CHECK(to_app >= 0 && to_app < num_apps());
  GPUMAS_CHECK(from_app != to_app && n >= 0);
  // Move the SMs that will drain fastest: fewest resident blocks first.
  std::vector<int> candidates;
  for (int sm = 0; sm < cfg_.num_sms; ++sm) {
    if (distributor_.effective_owner(sm) == from_app) candidates.push_back(sm);
  }
  std::sort(candidates.begin(), candidates.end(), [this](int a, int b) {
    return sms_[static_cast<size_t>(a)].resident_blocks() <
           sms_[static_cast<size_t>(b)].resident_blocks();
  });
  int moved = 0;
  for (int sm : candidates) {
    if (moved >= n) break;
    distributor_.request_owner(sm, to_app);
    ++moved;
  }
  return moved;
}

std::vector<int> Gpu::partition_counts() const {
  return distributor_.partition_counts(num_apps());
}

void Gpu::decompose(uint64_t line, uint32_t& bank, uint64_t& row) const {
  const uint64_t in_chan = line / static_cast<uint64_t>(cfg_.num_channels);
  const uint64_t lines_per_row = static_cast<uint64_t>(cfg_.lines_per_row);
  const uint64_t banks = static_cast<uint64_t>(cfg_.banks_per_channel);
  bank = static_cast<uint32_t>((in_chan / lines_per_row) % banks);
  row = in_chan / (lines_per_row * banks);
}

bool Gpu::try_send(const MemRequest& req, uint64_t cycle) {
  L2Slice& slice = slices_[static_cast<size_t>(slice_of(req.line))];
  std::deque<IcntPacket>& q = slice.vq[req.sm];
  if (q.size() >= static_cast<size_t>(cfg_.icnt_vq_size)) {
    return false;  // backpressure to this SM's LSU only
  }
  if (q.empty()) slice.vq_mask.set(req.sm);
  q.push_back(
      IcntPacket{cycle + static_cast<uint64_t>(cfg_.icnt_latency), req});
  return true;
}

// Tries to accept the head packet of virtual queue `src`; returns true on
// acceptance (the packet was consumed). `miss_room` / `store_room` say
// whether the slice can take a new miss / a write-through this cycle.
bool Gpu::accept_from_vq(L2Slice& slice, int src, bool miss_room,
                         bool store_room) {
  const size_t s = static_cast<size_t>(src);
  std::deque<IcntPacket>& q = slice.vq[s];
  if (q.front().ready_cycle > cycle_) return false;
  const MemRequest req = q.front().req;
  // Verdicts are remembered only on the fast path; --no-skip re-probes
  // every ready head every cycle, which makes it the memo's oracle.
  const bool memo = cfg_.skip_idle_cycles;
  const bool remembered_miss = slice.miss_blocked.test(s);
  if (!remembered_miss) ++slice.head_probes;
  bool processed = false;
  if (remembered_miss) {
    // A miss with no MSHR entry for its line. The scan skips such heads
    // while miss room is lacking, so there is room now, and the lookups
    // would only repeat the verdict.
    admit_miss(slice, req);
    processed = true;
  } else if (req.is_store) {
    // Write-through: update the L2 copy if present (no timing effect) and
    // queue the write toward DRAM, where it competes for banks and bus.
    if (store_room) {
      if (slice.cache.contains(req.line)) slice.cache.fill(req.line);
      stats_[req.app].l2_accesses++;
      stats_[req.app].dram_transactions++;
      uint32_t bank = 0;
      uint64_t row = 0;
      decompose(req.line, bank, row);
      slice.miss_queue.push_back(
          DramRequest{req.line, bank, row, req.app, cycle_, true});
      processed = true;
    } else if (memo) {
      slice.store_blocked.set(s);
    }
  } else if (L2MshrEntry* pending = slice.mshr.find(req.line)) {
    // Merge with the in-flight DRAM fetch of the same line.
    stats_[req.app].l2_accesses++;
    slice.waiters.append(pending->waiters, L2Waiter{req.sm, req.app});
    processed = true;
  } else if (slice.cache.access(req.line)) {
    stats_[req.app].l2_accesses++;
    stats_[req.app].l2_hits++;
    deliver_fill(req.sm, req.line,
                 cycle_ + static_cast<uint64_t>(cfg_.l2_latency +
                                                cfg_.icnt_latency));
    processed = true;
  } else if (miss_room) {
    admit_miss(slice, req);
    processed = true;
  } else if (memo) {
    slice.miss_blocked.set(s);
  }
  if (processed) {
    q.pop_front();
    slice.miss_blocked.clear(s);
    slice.store_blocked.clear(s);
    if (q.empty()) slice.vq_mask.clear(s);
    slice.rr = (src + 1) % cfg_.num_sms;
    // The freed slot may unblock src's LSU head, which sleeps after a
    // backpressure refusal (see StreamingMultiprocessor::post_tick_wake).
    uint64_t& wake = sm_wake_[static_cast<size_t>(src)];
    if (sms_[static_cast<size_t>(src)].lsu_stalled() && cycle_ + 1 < wake) {
      wake = cycle_ + 1;
    }
  }
  return processed;
}

// Allocates an MSHR entry for a load that missed L2 and queues its fetch
// toward DRAM. Remembered misses on the same line now have an entry to
// merge onto, so their verdicts are dropped.
void Gpu::admit_miss(L2Slice& slice, const MemRequest& req) {
  stats_[req.app].l2_accesses++;
  stats_[req.app].dram_transactions++;
  slice.waiters.append(slice.mshr.emplace(req.line).waiters,
                       L2Waiter{req.sm, req.app});
  uint32_t bank = 0;
  uint64_t row = 0;
  decompose(req.line, bank, row);
  slice.miss_queue.push_back(
      DramRequest{req.line, bank, row, req.app, cycle_});
  for (int j = slice.miss_blocked.find_at_or_after(0); j >= 0;
       j = slice.miss_blocked.find_at_or_after(static_cast<size_t>(j) + 1)) {
    if (slice.vq[static_cast<size_t>(j)].front().req.line == req.line) {
      slice.miss_blocked.clear(static_cast<size_t>(j));
    }
  }
}

bool Gpu::tick_l2_slice(L2Slice& slice) {
  // Idle fast path: no queued packets, no pending misses, and a quiet
  // memory controller — nothing in this slice can change state this cycle.
  // (A non-empty MSHR implies DRAM work somewhere: in the miss queue, the
  // channel queue, or in flight.) Disabled in --no-skip reference mode.
  const bool vq_work = slice.vq_mask.any();
  if (cfg_.skip_idle_cycles && !vq_work && slice.miss_queue.empty() &&
      slice.dram.quiet_at(cycle_)) {
    return false;
  }

  bool progress = false;

  // 1. DRAM completions: install lines in L2 and answer merged requesters.
  for (const DramCompletion& c : slice.dram.drain_completions(cycle_)) {
    progress = true;
    if (c.is_write) continue;  // stores retire silently
    if (!apps_[c.app].kernel.l2_streaming_bypass) slice.cache.fill(c.line);
    L2MshrEntry* entry = slice.mshr.find(c.line);
    GPUMAS_CHECK_MSG(entry != nullptr, "DRAM fill without L2 MSHR entry");
    const WaiterPool<L2Waiter>::Chain chain = entry->waiters;
    slice.mshr.erase(c.line);
    slice.waiters.consume(chain, [&](const L2Waiter& w) {
      deliver_fill(w.sm, c.line,
                   cycle_ + static_cast<uint64_t>(cfg_.icnt_latency));
    });
  }

  // 2. Accept at most one request per cycle from the interconnect,
  // arbitrating round-robin across the non-empty per-SM virtual queues. A
  // head blocked on full L2 MSHRs or a full miss queue does not stall
  // other sources (hit-under-miss across queues). The bitsets restrict
  // probing to non-empty queues, in the same circular order the full scan
  // used, and — while the slice lacks the room they wait for — skip the
  // heads the admission memo already saw refused, so each such head is
  // probed once rather than every cycle. Room cannot change during the
  // scan: nothing is accepted before the scan stops.
  if (vq_work) {
    const bool store_room = slice.miss_queue.size() < kMissQueueCapacity;
    const bool miss_room =
        store_room && slice.mshr.size() < cfg_.l2.mshr_entries;
    const auto next = [&](size_t i) {
      if (miss_room) return slice.vq_mask.find_at_or_after(i);
      return slice.vq_mask.find_at_or_after_excluding(
          i, slice.miss_blocked,
          store_room ? slice.miss_blocked : slice.store_blocked);
    };
    bool accepted = false;
    for (int src = next(static_cast<size_t>(slice.rr)); src >= 0;
         src = next(static_cast<size_t>(src) + 1)) {
      if (accept_from_vq(slice, src, miss_room, store_room)) {
        accepted = true;
        break;
      }
    }
    if (!accepted) {
      const int wrap = slice.rr;
      for (int src = next(0); src >= 0 && src < wrap;
           src = next(static_cast<size_t>(src) + 1)) {
        if (accept_from_vq(slice, src, miss_room, store_room)) {
          accepted = true;
          break;
        }
      }
    }
    progress |= accepted;
  }

  // 3. Drain accepted misses into the memory controller as space frees up,
  // then let it issue.
  while (!slice.miss_queue.empty() && !slice.dram.full()) {
    GPUMAS_CHECK(slice.dram.enqueue(slice.miss_queue.front()));
    slice.miss_queue.pop_front();
    progress = true;
  }
  progress |= slice.dram.tick(cycle_);
  return progress;
}

void Gpu::check_app_completion() {
  // Only cores that reported a retirement this cycle are inspected; a
  // skipped core's completed_blocks() is stale from its last tick and must
  // not be re-read.
  for (const uint16_t i : retired_sms_) {
    for (uint8_t app : sms_[i].completed_blocks()) {
      LaunchedApp& la = apps_[app];
      la.blocks_done++;
      GPUMAS_CHECK(la.blocks_done <=
                   static_cast<uint32_t>(la.kernel.num_blocks));
      if (la.blocks_done == static_cast<uint32_t>(la.kernel.num_blocks)) {
        la.done = true;
        stats_[app].done = true;
        stats_[app].finish_cycle = cycle_ + 1;
      }
    }
  }
}

// Invariant behind the jump: a tick that made no progress left every piece
// of device state except the cycle counter unchanged, and every transition
// guard in the model is monotone in the cycle with an explicit threshold —
// SM event arrivals, warp not_before stalls, ALU pipe busy-untils,
// interconnect packet ready-cycles, DRAM bank/bus busy-untils, and
// in-flight completion ready-cycles. Guards already satisfied (thresholds
// <= now) are blocked on a non-time resource whose release is itself one of
// the listed thresholds, and the work distributor's guards are
// cycle-independent. Hence no transition can fire strictly before the
// minimum future threshold, and every cycle up to it would replay as an
// identical no-op: jumping there preserves the trajectory bit for bit. The
// SM service-order rotation (cycle % n) is unaffected because no SM acts on
// a skipped cycle.
void Gpu::fast_forward() {
  const uint64_t now = cycle_ - 1;  // the no-progress cycle just executed
  uint64_t wake = ~0ull;
  for (const auto& sm : sms_) {
    const uint64_t w = sm.next_wake_cycle(now);
    if (w < wake) wake = w;
  }
  for (const auto& slice : slices_) {
    const uint64_t w = slice_next_wake(slice, now);
    if (w < wake) wake = w;
  }
  // A wake of UINT64_MAX means no component can ever act again: jump to the
  // runaway guard so the caller's max_cycles check fires exactly as the
  // cycle-by-cycle loop's would.
  uint64_t target = std::min(wake, cfg_.max_cycles);
  target = std::min(target, skip_barrier_);
  if (target > cycle_) {
    skipped_cycles_ += target - cycle_;
    cycle_ = target;
  }
}

uint64_t Gpu::slice_next_wake(const L2Slice& slice, uint64_t cycle) const {
  uint64_t wake = slice.dram.next_work_cycle(cycle);
  // Queued packets still traversing the interconnect (heads are per-queue
  // minima: ready cycles are enqueued in nondecreasing order). Heads ready
  // but unaccepted are blocked on MSHR/miss-queue space, which frees only
  // with DRAM progress — covered by the channel's wake above. A non-empty
  // miss queue with no DRAM-queue space likewise waits on the channel.
  for (int src = slice.vq_mask.find_at_or_after(0); src >= 0;
       src = slice.vq_mask.find_at_or_after(static_cast<size_t>(src) + 1)) {
    const uint64_t t = slice.vq[static_cast<size_t>(src)].front().ready_cycle;
    if (t > cycle && t < wake) wake = t;
  }
  return wake;
}

void Gpu::tick() {
  started_ = true;
  fed_sms_.clear();
  retired_sms_.clear();
  bool progress = distributor_.dispatch(sms_, apps_, &fed_sms_);
  for (const int sm : fed_sms_) sm_wake_[static_cast<size_t>(sm)] = cycle_;
  // Rotate the SM service order every cycle: within a cycle, earlier SMs
  // enqueue interconnect packets ahead of later ones, so a fixed order would
  // hand low-numbered SMs (hence the first-launched app) systematically
  // better memory service under saturation. Only cores whose wake is due
  // are visited (skipped cores' ticks are provably no-ops); --no-skip
  // visits every core as the reference loop does.
  const bool sched = cfg_.skip_idle_cycles;
  const size_t n = sms_.size();
  const size_t start = static_cast<size_t>(cycle_ % n);
  const auto run_sm = [&](size_t i) {
    if (sched && sm_wake_[i] > cycle_) return;
    const SmTickResult r = sms_[i].tick(cycle_, *this, stats_);
    progress |= r.progress;
    if (r.block_retired) retired_sms_.push_back(static_cast<uint16_t>(i));
    sm_wake_[i] = sms_[i].post_tick_wake(cycle_);
  };
  for (size_t i = start; i < n; ++i) run_sm(i);
  for (size_t i = 0; i < start; ++i) run_sm(i);
  for (auto& slice : slices_) progress |= tick_l2_slice(slice);
  // Completion scan only when some SM actually retired a block this cycle.
  if (!retired_sms_.empty()) check_app_completion();
  ++cycle_;
  ++ticked_cycles_;
  if (!progress && cfg_.skip_idle_cycles) fast_forward();
  if (sampling_) sample_tick();
}

void Gpu::open_sample_window() {
  window_start_ = cycle_;
  window_end_ = cycle_ + cfg_.sample_detail_cycles;
  measuring_ = false;  // snapshot armed after the settle prefix
  window_base_ = stats_;
  if (rate_n_.size() != apps_.size()) {
    rate_n_.assign(apps_.size(), 0);
    rate_mean_.assign(apps_.size(), 0.0);
    rate_m2_.assign(apps_.size(), 0.0);
    last_rate_.assign(apps_.size(), 0.0);
    pred_frac_.assign(apps_.size(), 0.0);
    pred_b_.assign(apps_.size(), 0.0);
    pred_xbar_.assign(apps_.size(), 0.0);
    pred_ybar_.assign(apps_.size(), 1.0);
    diff_rate_.assign(apps_.size(), 0.0);
    diff_varx_prev_.assign(apps_.size(), -1.0);
    diff_n_prev_.assign(apps_.size(), 0.0);
    diff_tick_prev_.assign(apps_.size(), 0);
  }
}

// The sampled-mode controller, run after every tick: while a measurement
// window is open, execution is fully detailed (including idle-cycle
// fast-forwarding, which is exact). When the window closes, each live
// app's observed warp-issue rate joins its Welford population, the clock
// jumps up to sample_skip_cycles while per-app progress is advanced
// analytically at the rate the window just observed, and a fresh window
// opens. Everything time-gated that was in flight at the jump — DRAM/L2
// state, pending fills, warp stalls — is carried across the gap by
// shifting its timestamps (retime_inflight), so the next window resumes
// the memory system at exactly the occupancy this one closed with.
void Gpu::sample_tick() {
  if (window_end_ == 0) {  // first tick of a sampled run
    open_sample_window();
    return;
  }
  // Arm the measurement snapshot once the settle prefix has passed: the
  // jump that opened this window moved every warp forward in its
  // instruction stream while the caches still hold the pre-jump working
  // set, and that locality transient must not enter the rate estimate.
  if (!measuring_ && cycle_ >= window_start_ + cfg_.sample_detail_cycles / 4) {
    measure_from_ = cycle_;
    window_base_ = stats_;
    for (auto& sm : sms_) sm.begin_progress_window();
    measuring_ = true;
  }
  if (cycle_ < window_end_ || done()) return;

  // Close the window. The elapsed span is measured, not assumed: an
  // idle-span fast-forward can overshoot the nominal window end (or even
  // swallow the whole measurement span, in which case the previous
  // window's rates stand).
  ++sample_windows_;
  if (measuring_ && cycle_ > measure_from_) {
    const uint64_t elapsed = cycle_ - measure_from_;
    for (size_t a = 0; a < apps_.size(); ++a) {
      if (stats_[a].done) continue;
      const double rate =
          static_cast<double>(stats_[a].warp_insns -
                              window_base_[a].warp_insns) /
          static_cast<double>(elapsed);
      last_rate_[a] = rate;
      const uint64_t n = ++rate_n_[a];
      const double d = rate - rate_mean_[a];
      rate_mean_[a] += d / static_cast<double>(n);
      rate_m2_[a] += d * (rate - rate_mean_[a]);
      // Persistence regression across the device's warps: window
      // progress y on cumulative detailed progress x. Warps that stay
      // in rank order window after window (persistent GTO bias) yield a
      // positive slope; mean-reverting stall luck regresses to ~0. Kept
      // at the previous fit when the window carries no signal.
      double sums[6] = {0, 0, 0, 0, 0, 0};
      for (const auto& sm : sms_) {
        sm.persistence_terms(static_cast<uint8_t>(a), sums);
      }
      const double n_w = sums[0];
      if (n_w >= 2.0) {
        const double cov = sums[5] - sums[1] * sums[2] / n_w;
        const double var_x = sums[3] - sums[1] * sums[1] / n_w;
        const double var_y = sums[4] - sums[2] * sums[2] / n_w;
        const double xb = sums[1] / n_w;
        const double yb = sums[2] / n_w;
        double struct_growth = 0.0;  // per-warp var_x growth from the slope
        if (var_x > 0.0 && xb > 0.0 && yb > 0.0) {
          // The naive slope cov/var_x is attenuated: x is itself a sum
          // of ~x_bar/y_bar noisy window progresses, so var_x carries
          // an accumulated-noise share on top of the structural rate
          // spread. Method of moments: under y = r*span + eps with
          // persistent per-warp rate r, cov = var_r*T*span, so the
          // structural part of var_y is cov*(span/T) = cov*y_bar/x_bar,
          // the rest is noise, and x has accumulated ~x_bar/y_bar
          // windows of it. Subtracting that share recovers the
          // structural slope; full proportionality (predictions ~ x,
          // through the origin) is b = y_bar/x_bar, and the fit is
          // capped at twice that.
          const double ratio = yb / xb;
          const double var_eps = std::max(0.0, var_y - cov * ratio);
          const double var_x_struct = var_x - var_eps / ratio;
          // Under the all-noise null, cov's sampling variance is
          // ~var_x*var_y/n: a covariance within two standard errors of
          // zero (or a noise estimate swallowing all of var_x) is read
          // as no structural spread, not amplified by a tiny divisor.
          double b = 0.0;
          if (var_x_struct > 0.0 &&
              cov * cov > 4.0 * var_x * var_y / n_w && cov > 0.0) {
            b = std::min(cov / var_x_struct, 2.0 * ratio);
          }
          // The scale-free slope fraction b/ratio is smoothed across
          // windows, adopting increases immediately and decaying losses
          // slowly: the structural spread is a property of the kernel
          // and scheduler, not of one window, and drain-phase windows
          // (retiring warps, exploding variance) would otherwise zero
          // the dispersion exactly when the drain is being reproduced —
          // while a window that measures strong persistence is evidence
          // the spread was there all along.
          const double frac = ratio > 0.0 ? b / ratio : 0.0;
          pred_frac_[a] = std::max(frac, 0.5 * pred_frac_[a] + 0.5 * frac);
          pred_b_[a] = pred_frac_[a] * ratio;
          pred_xbar_[a] = xb;
          pred_ybar_[a] = yb;
          // One window of persistent-rate spread widens var(x+y) by
          // 2cov + var_y_struct = 2cov + cov*ratio — growth the slope
          // already reproduces, to be excluded from the random walk.
          if (b > 0.0) struct_growth = (2.0 * cov + cov * ratio) / n_w;
        }
        // Progress-diffusion update: growth of the per-warp progress
        // variance per ticked cycle since the previous window close,
        // net of the structural share. Skipped when the advanceable
        // population changed (dispatch or retirement moves the variance
        // for bookkeeping reasons, not physical ones); negative
        // observations — mean reversion pulled the warps back together
        // — decay the EMA toward zero.
        const double vx = var_x / n_w;
        if (diff_varx_prev_[a] >= 0.0 && n_w == diff_n_prev_[a] &&
            ticked_cycles_ > diff_tick_prev_[a]) {
          const double d_obs =
              (vx - diff_varx_prev_[a] - struct_growth) /
              static_cast<double>(ticked_cycles_ - diff_tick_prev_[a]);
          diff_rate_[a] = 0.5 * diff_rate_[a] + 0.5 * std::max(d_obs, 0.0);
        }
        diff_varx_prev_[a] = vx;
        diff_n_prev_[a] = n_w;
        diff_tick_prev_[a] = ticked_cycles_;
      }
    }
  }

  // Warm-up guard: the first window observes cold caches and an
  // unsettled DRAM row state, so its rate would bias the first jump.
  // Measure a second window before skipping anything.
  if (sample_windows_ == 1) {
    open_sample_window();
    return;
  }

  // Jump length: the configured skip, clipped to the skip barrier (SMRA
  // observation windows are never jumped over), the runaway guard, and
  // half of each live app's remaining work at its observed rate. The
  // half is load-bearing: completion is approached geometrically, so the
  // drain phase — warps finishing unevenly (GTO spread) and throughput
  // decaying as latency hiding dries up — is re-measured by windows at
  // its decaying rate instead of being jumped over at the steady one,
  // and the final stretch of every app runs detailed. When that horizon
  // (not the configured skip) is what limits the jump, some app is being
  // approached and its rate is decaying faster than the window cadence
  // can track, so the jump is further capped at two detail windows: the
  // drain gets sampled densely instead of extrapolated from stale
  // steady-state rates.
  uint64_t jump = cfg_.sample_skip_cycles;
  if (skip_barrier_ != ~0ull) {
    jump = skip_barrier_ > cycle_ ? std::min(jump, skip_barrier_ - cycle_)
                                  : 0;
  }
  jump = cycle_ < cfg_.max_cycles ? std::min(jump, cfg_.max_cycles - cycle_)
                                  : 0;
  uint64_t horizon_min = ~0ull;
  for (size_t a = 0; a < apps_.size(); ++a) {
    if (stats_[a].done || last_rate_[a] <= 0.0) continue;
    const uint64_t remaining =
        apps_[a].kernel.total_warp_insns() - stats_[a].warp_insns;
    const uint64_t horizon = static_cast<uint64_t>(
        static_cast<double>(remaining) / (2.0 * last_rate_[a]));
    horizon_min = std::min(horizon_min, horizon);
  }
  if (horizon_min < jump) {
    jump = std::min(horizon_min, 2 * cfg_.sample_detail_cycles);
  }
  if (jump > 0) {
    advance_analytically(jump);
    retime_inflight(jump);
    skipped_cycles_ += jump;
    cycle_ += jump;
    // A core whose LSU head was refused sleeps until the memory system
    // frees it, but the credits may have turned its LSU-blocked warps'
    // next instructions into ALU ones that could issue now: tick it on
    // the first cycle after the jump, as the reference loop would.
    for (size_t i = 0; i < sms_.size(); ++i) {
      if (sms_[i].lsu_stalled()) sm_wake_[i] = std::min(sm_wake_[i], cycle_);
    }
  }
  open_sample_window();
}

// Makes the jump invisible to in-flight work: every pending timestamp in
// the device — SM response events and warp stalls, crossbar packets,
// DRAM bank/bus timing and in-flight completions — shifts forward by the
// jump, so the next window resumes the memory system mid-steady-state at
// exactly the occupancy the previous window closed with. Without this, a
// jump longer than the memory round trip drains everything and delivers
// it all at once at the window open; the synchronized re-issue burst
// then keeps every DRAM channel's queue deep through the whole
// measurement span, and each window measures peak bandwidth instead of
// the true average (which includes the throughput lost whenever a
// channel's queue runs dry) — a systematic early-finish bias on
// bandwidth-bound apps. Queued requests' enqueue stamps shift too, so
// queue-wait statistics stay jump-free.
void Gpu::retime_inflight(uint64_t delta) {
  const uint64_t now = cycle_;
  for (auto& sm : sms_) sm.retime(now, delta);
  for (uint64_t& w : sm_wake_) {
    if (w != ~0ull && w > now) w += delta;
  }
  for (auto& slice : slices_) {
    for (auto& q : slice.vq) {
      for (IcntPacket& p : q) {
        if (p.ready_cycle > now) p.ready_cycle += delta;
      }
    }
    for (DramRequest& r : slice.miss_queue) r.enqueue_cycle += delta;
    slice.dram.retime(now, delta);
  }
}

// Advances per-app progress across a jump of `jump` cycles: each live app
// is credited floor(last_window_rate * jump) warp instructions — the most
// recently closed window's observed rate, so a phase change (a co-runner
// finishing, a working set falling out of L2) is picked up within one
// window instead of being smeared over the whole run — split over its
// SMs, and then over each core's warps, by a persistence-weighted blend
// of cumulative detailed-progress share and uniform share (see
// advance_warps_analytically; completion is never synthesized — each
// warp's final instruction and retirement stay detailed). Warps that
// clamp at their advanceable cap forfeit their surplus, which later
// passes redistribute over the still advanceable warps so the aggregate
// rate holds to the end of the jump. Downstream
// memory-hierarchy counters are credited proportionally to the closed
// window's per-instruction traffic, so sampled profiles (hit rates,
// bandwidths, the Table 3.1 classifier inputs) track the detailed ones.
void Gpu::advance_analytically(uint64_t jump) {
  std::vector<double> sm_weight(sms_.size());
  for (size_t a = 0; a < apps_.size(); ++a) {
    if (stats_[a].done || last_rate_[a] <= 0.0) continue;
    const uint64_t budget = static_cast<uint64_t>(
        last_rate_[a] * static_cast<double>(jump));
    if (budget == 0) continue;
    const uint64_t window_insns =
        stats_[a].warp_insns - window_base_[a].warp_insns;
    const AppStats base = window_base_[a];
    const AppStats before = stats_[a];
    const double b = pred_b_[a];
    const double x_bar = pred_xbar_[a];
    const double y_bar = pred_ybar_[a];
    // Dispersion the detailed run would have accumulated over the jump:
    // the random walk grows variance linearly in time, so each warp's
    // share of the budget is jittered by its square root (zero-sum
    // within warp pairs, direction independent across jumps).
    const double sigma =
        std::sqrt(diff_rate_[a] * static_cast<double>(jump));
    uint64_t credited = 0;
    uint64_t leftover = budget;
    for (int pass = 0; pass < 3 && leftover > 0; ++pass) {
      double total_weight = 0.0;
      for (size_t s = 0; s < sms_.size(); ++s) {
        sm_weight[s] = sms_[s].predicted_weight(static_cast<uint8_t>(a), b,
                                                x_bar, y_bar);
        total_weight += sm_weight[s];
      }
      if (total_weight <= 0.0) break;
      uint64_t pass_credit = 0;
      for (size_t s = 0; s < sms_.size(); ++s) {
        if (sm_weight[s] <= 0.0) continue;
        const uint64_t sm_budget = static_cast<uint64_t>(
            static_cast<double>(leftover) * sm_weight[s] / total_weight);
        pass_credit += sms_[s].advance_warps_analytically(
            static_cast<uint8_t>(a), sm_budget, b, x_bar, y_bar,
            pass == 0 ? sigma : 0.0, sample_windows_, stats_);
      }
      if (pass_credit == 0) break;
      credited += pass_credit;
      leftover -= pass_credit;
    }
    if (credited == 0 || window_insns == 0) continue;
    const double scale = static_cast<double>(credited) /
                         static_cast<double>(window_insns);
    const auto credit = [&](uint64_t AppStats::* f) {
      stats_[a].*f += static_cast<uint64_t>(std::llround(
          static_cast<double>(before.*f - base.*f) * scale));
    };
    // warp_insns/mem_insns are exact (bumped by the SMs above); the
    // memory-system counters are extrapolated from the window.
    credit(&AppStats::l1_accesses);
    credit(&AppStats::l1_hits);
    credit(&AppStats::l1_fills);
    credit(&AppStats::l2_accesses);
    credit(&AppStats::l2_hits);
    credit(&AppStats::dram_transactions);
  }
}

SampleEstimate Gpu::sample_estimate(size_t app) const {
  SampleEstimate e;
  if (app >= rate_n_.size() || rate_n_[app] == 0) return e;
  const uint64_t n = rate_n_[app];
  const double threads = static_cast<double>(cfg_.warp_size);
  e.windows = n;
  e.mean_ipc = rate_mean_[app] * threads;
  if (n > 1) {
    const double var = rate_m2_[app] / static_cast<double>(n - 1);
    const double sd = var > 0.0 ? std::sqrt(var) : 0.0;
    e.ci95 = 1.96 * sd / std::sqrt(static_cast<double>(n)) * threads;
  }
  return e;
}

bool Gpu::done() const {
  for (const auto& a : apps_) {
    if (!a.done) return false;
  }
  return true;
}

double Gpu::device_ipc() const {
  if (cycle_ == 0) return 0.0;
  uint64_t insns = 0;
  for (const auto& s : stats_) insns += s.thread_insns(cfg_.warp_size);
  return static_cast<double>(insns) / static_cast<double>(cycle_);
}

RunResult Gpu::run_to_completion() {
  GPUMAS_CHECK_MSG(!apps_.empty(), "nothing launched");
  if (!started_) {
    // Default to an even split if the caller never partitioned.
    bool any = false;
    for (int sm = 0; sm < cfg_.num_sms; ++sm) {
      if (distributor_.owner(sm) >= 0) any = true;
    }
    if (!any) set_even_partition();
  }
  while (!done()) {
    GPUMAS_CHECK_MSG(cycle_ < cfg_.max_cycles,
                     "simulation exceeded max_cycles = " << cfg_.max_cycles);
    tick();
  }
  RunResult r;
  r.cycles = cycle_;
  r.apps = stats_;
  r.warp_size = cfg_.warp_size;
  if (sampling_) {
    r.sample_estimates.reserve(apps_.size());
    for (size_t a = 0; a < apps_.size(); ++a) {
      r.sample_estimates.push_back(sample_estimate(a));
    }
  }
  return r;
}

uint64_t Gpu::dram_row_hits() const {
  uint64_t v = 0;
  for (const auto& s : slices_) v += s.dram.row_hits();
  return v;
}

uint64_t Gpu::dram_row_misses() const {
  uint64_t v = 0;
  for (const auto& s : slices_) v += s.dram.row_misses();
  return v;
}

uint64_t Gpu::l2_head_probes() const {
  uint64_t v = 0;
  for (const auto& s : slices_) v += s.head_probes;
  return v;
}

}  // namespace gpumas::sim
