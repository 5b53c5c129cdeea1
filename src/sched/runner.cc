#include "sched/runner.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/parallel.h"
#include "sim/gpu.h"

namespace gpumas::sched {

namespace {
// SM-count grid at which ProfileBased's offline curves are sampled.
constexpr int kScalabilityGrid[] = {5, 10, 15, 20, 25, 30, 40, 50};
constexpr int kSplitStep = 5;  // granularity of the ProfileBased split search

// Execution-mode tag of an SMRA-dynamic group for the group-run cache: the
// dynamics (and hence the record) depend on every controller parameter, so
// all of them key the entry. Doubles carry full precision — two parameter
// sweeps differing in the 17th digit are different experiments.
std::string smra_mode_tag(const SmraParams& smra) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "smra tc=" << smra.tc << " ipc_thr=" << smra.ipc_thr
     << " bw_thr=" << smra.bw_thr << " nr=" << smra.nr
     << " rmin=" << smra.rmin;
  return os.str();
}

// Solo IPC at `sms` SMs, linearly interpolated between the curve's points
// and clamped to its ends.
double interpolate_ipc(const std::vector<profile::ScalabilityPoint>& pts,
                       int sms) {
  GPUMAS_CHECK(!pts.empty());
  if (sms <= pts.front().sms) return pts.front().ipc;
  if (sms >= pts.back().sms) return pts.back().ipc;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (sms <= pts[i].sms) {
      const double t = static_cast<double>(sms - pts[i - 1].sms) /
                       static_cast<double>(pts[i].sms - pts[i - 1].sms);
      return pts[i - 1].ipc + t * (pts[i].ipc - pts[i - 1].ipc);
    }
  }
  return pts.back().ipc;
}
}  // namespace

QueueRunner::QueueRunner(const sim::GpuConfig& cfg,
                         const std::vector<profile::AppProfile>& suite_profiles,
                         const interference::SlowdownModel& model,
                         profile::ProfileCache* cache, int threads)
    : cfg_(cfg), model_(&model), cache_(cache), threads_(threads) {
  if (cache_ == nullptr) {
    owned_cache_ = std::make_shared<profile::ProfileCache>();
    cache_ = owned_cache_.get();
  }
  // Stable name sort with the map's last-wins duplicate semantics: keep
  // only the final occurrence of each name.
  profiles_ = suite_profiles;
  std::stable_sort(
      profiles_.begin(), profiles_.end(),
      [](const profile::AppProfile& a, const profile::AppProfile& b) {
        return a.name < b.name;
      });
  const auto last_of_name = std::unique(
      profiles_.rbegin(), profiles_.rend(),
      [](const profile::AppProfile& a, const profile::AppProfile& b) {
        return a.name == b.name;
      });
  profiles_.erase(profiles_.begin(), last_of_name.base());
}

uint64_t QueueRunner::solo_cycles(const std::string& name) const {
  const auto it = std::lower_bound(
      profiles_.begin(), profiles_.end(), name,
      [](const profile::AppProfile& p, const std::string& n) {
        return p.name < n;
      });
  GPUMAS_CHECK_MSG(it != profiles_.end() && it->name == name,
                   "no profile for '" << name << "'");
  return it->solo_cycles;
}

std::vector<int> QueueRunner::profile_based_partition(
    const std::vector<Job>& group) const {
  const int total = cfg_.num_sms;
  const int k = static_cast<int>(group.size());
  if (k == 1) return {total};
  if (k > 3) {
    // Larger groups: fall back to an even split.
    std::vector<int> even(static_cast<size_t>(k), total / k);
    for (int i = 0; i < total % k; ++i) even[static_cast<size_t>(i)]++;
    return even;
  }

  // Each member's offline curve, fetched once for the whole split search.
  // Memoized in the (thread-safe) ProfileCache, so this const method is
  // safe to call from concurrently running experiment workers.
  std::vector<int> grid;
  for (int n : kScalabilityGrid) {
    if (n <= cfg_.num_sms) grid.push_back(n);
  }
  std::vector<std::vector<profile::ScalabilityPoint>> curves;
  curves.reserve(group.size());
  for (const Job& job : group) {
    curves.push_back(cache_->scalability(cfg_, job.kernel, grid, threads_));
  }

  // Maximize the sum of profiled solo IPCs over the split grid. This is
  // exactly the offline scheme of [17]: it knows each app's scalability but
  // is blind to contention and runtime phase behaviour.
  if (k == 2) {
    int best_a = total / 2;
    double best_score = -1.0;
    for (int a = kSplitStep; a <= total - kSplitStep; a += kSplitStep) {
      const double score = interpolate_ipc(curves[0], a) +
                           interpolate_ipc(curves[1], total - a);
      if (score > best_score) {
        best_score = score;
        best_a = a;
      }
    }
    return {best_a, total - best_a};
  }
  std::vector<int> best{total / 3, total / 3, total - 2 * (total / 3)};
  double best_score = -1.0;
  for (int a = kSplitStep; a <= total - 2 * kSplitStep; a += kSplitStep) {
    for (int b = kSplitStep; b <= total - a - kSplitStep; b += kSplitStep) {
      const int c = total - a - b;
      const double score = interpolate_ipc(curves[0], a) +
                           interpolate_ipc(curves[1], b) +
                           interpolate_ipc(curves[2], c);
      if (score > best_score) {
        best_score = score;
        best = {a, b, c};
      }
    }
  }
  return best;
}

namespace {

// Simulates one SMRA-dynamic group (canonical member order): the group-run
// cache's GroupSimulator for IlpSmra groups.
profile::GroupRunRecord simulate_smra_group(
    const sim::GpuConfig& cfg, const std::vector<sim::KernelParams>& kernels,
    const std::vector<int>& partition, const SmraParams& smra) {
  sim::Gpu gpu(cfg);
  for (const auto& kp : kernels) gpu.launch(kp);
  gpu.set_partition_counts(partition);

  SmraController controller(smra, cfg);
  while (!gpu.done()) {
    GPUMAS_CHECK_MSG(gpu.cycle() < cfg.max_cycles,
                     "group exceeded max_cycles");
    // The controller observes the device at fixed window boundaries;
    // cap idle-cycle fast-forwarding there so the evaluation happens at
    // the same cycle (with the same windowed stats) as without skipping.
    gpu.set_skip_barrier(controller.next_eval());
    gpu.tick();
    controller.on_tick(gpu);
  }

  profile::GroupRunRecord record;
  record.group_cycles = gpu.cycle();
  record.ticked_cycles = gpu.ticked_cycles();
  record.skipped_cycles = gpu.skipped_cycles();
  record.sample_windows = gpu.sample_windows();
  record.smra_adjustments = controller.adjustments();
  record.smra_reverts = controller.reverts();
  for (size_t i = 0; i < kernels.size(); ++i) {
    const sim::AppStats& s = gpu.stats()[i];
    record.names.push_back(kernels[i].name);
    record.app_cycles.push_back(s.finish_cycle);
    record.app_thread_insns.push_back(s.thread_insns(cfg.warp_size));
  }
  return record;
}

}  // namespace

GroupReport QueueRunner::run_group(
    const std::vector<Job>& group, Policy policy, const SmraParams& smra,
    const std::vector<int>& partition_override) const {
  const bool pinned = partition_override.size() == group.size();

  // Resolve the partition the policy declares (empty = even split, which
  // canonicalize_group resolves over the canonical member order so every
  // permutation of the same group shares one record).
  std::vector<int> partition;
  if (pinned) {
    partition = partition_override;
  } else if (group.size() == 1) {
    partition = {cfg_.num_sms};
  } else if (policy == Policy::kProfileBased) {
    partition = profile_based_partition(group);
  }

  std::vector<sim::KernelParams> kernels;
  kernels.reserve(group.size());
  for (const Job& job : group) kernels.push_back(job.kernel);

  // A pinned group runs with a static split: SMRA would immediately drift
  // away from the override, defeating static-allocation sweeps.
  const bool dynamic = policy == Policy::kIlpSmra && group.size() > 1 &&
                       !pinned;
  profile::GroupSimulator simulate;  // empty = static simulator
  if (dynamic) {
    simulate = [&smra](const sim::GpuConfig& cfg,
                       const std::vector<sim::KernelParams>& ks,
                       const std::vector<int>& part) {
      return simulate_smra_group(cfg, ks, part, smra);
    };
  }

  const profile::CanonicalGroup canon = profile::canonicalize_group(
      cfg_, kernels, partition, dynamic ? smra_mode_tag(smra) : "static");
  const profile::GroupRunRecord record =
      cache_->group_run(cfg_, canon, simulate);

  // Map the canonical-order record back to job order; slowdowns and serial
  // time are derived from the suite's solo cycles at report time, so a
  // record served from disk renders byte-identically to a fresh simulation.
  GroupReport report;
  report.cycles = record.group_cycles;
  report.smra_adjustments = record.smra_adjustments;
  report.smra_reverts = record.smra_reverts;
  report.ticked_cycles = record.ticked_cycles;
  report.skipped_cycles = record.skipped_cycles;
  report.sample_windows = record.sample_windows;
  report.names.resize(group.size());
  report.app_cycles.resize(group.size());
  report.app_thread_insns.resize(group.size());
  report.slowdowns.resize(group.size());
  for (size_t c = 0; c < group.size(); ++c) {
    const size_t i = canon.perm[c];
    const uint64_t solo = solo_cycles(group[i].kernel.name);
    report.names[i] = group[i].kernel.name;
    report.app_cycles[i] = record.app_cycles[c];
    report.app_thread_insns[i] = record.app_thread_insns[c];
    report.slowdowns[i] = static_cast<double>(record.app_cycles[c]) /
                          static_cast<double>(solo);
    report.serial_cycles += solo;
  }
  return report;
}

RunReport QueueRunner::run(const std::vector<Job>& queue, Policy policy,
                           int nc, const SmraParams& smra,
                           const std::vector<int>& partition_override) const {
  RunReport report;
  report.policy = policy;
  // The grouping is decided up front and run_group is const, so the groups
  // are independent: each writes its own slot, and the totals are summed
  // afterwards in group order.
  const auto groups = form_groups(queue, policy, nc, *model_);
  report.groups.resize(groups.size());
  parallel_for(resolve_width(threads_), groups.size(), [&](size_t i) {
    report.groups[i] = run_group(groups[i], policy, smra, partition_override);
  });
  for (const GroupReport& g : report.groups) {
    report.total_cycles += g.cycles;
    report.total_ticked_cycles += g.ticked_cycles;
    report.total_skipped_cycles += g.skipped_cycles;
    report.total_sample_windows += g.sample_windows;
    for (uint64_t insns : g.app_thread_insns) {
      report.total_thread_insns += insns;
    }
  }
  return report;
}

std::vector<std::pair<std::string, double>> RunReport::per_app_ipc() const {
  // Collect one sample per group appearance, then sort and average runs of
  // equal names in place — no per-name node allocations.
  std::vector<std::pair<std::string, double>> samples;
  for (const auto& g : groups) {
    for (size_t i = 0; i < g.names.size(); ++i) {
      if (g.app_cycles[i] == 0) continue;
      samples.emplace_back(g.names[i],
                           static_cast<double>(g.app_thread_insns[i]) /
                               static_cast<double>(g.app_cycles[i]));
    }
  }
  // Stable: equal names keep group order, so the float summation order (and
  // hence the rendered tables) is reproducible.
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::string, double>> averaged;
  for (size_t i = 0; i < samples.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < samples.size() && samples[j].first == samples[i].first) {
      sum += samples[j].second;
      ++j;
    }
    averaged.emplace_back(samples[i].first,
                          sum / static_cast<double>(j - i));
    i = j;
  }
  return averaged;
}

}  // namespace gpumas::sched
