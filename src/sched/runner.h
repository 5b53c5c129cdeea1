// Queue runner: executes a job queue under a scheduling policy and reports
// the metrics the paper's evaluation plots — device throughput (Eq 1.1),
// per-group cycles versus serial time, and per-application throughput.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "interference/interference.h"
#include "profile/profile.h"
#include "profile/profile_cache.h"
#include "sched/policies.h"
#include "sched/queue_gen.h"
#include "sched/smra.h"
#include "sim/gpu_config.h"

namespace gpumas::sched {

// One executed co-run group.
struct GroupReport {
  std::vector<std::string> names;
  std::vector<uint64_t> app_cycles;        // each member's finish cycle
  std::vector<uint64_t> app_thread_insns;
  std::vector<double> slowdowns;           // vs. solo on the full device
  uint64_t cycles = 0;                     // group completion cycle
  uint64_t serial_cycles = 0;              // sum of members' solo cycles
  uint64_t smra_adjustments = 0;  // SMRA moves during this group (IlpSmra)
  uint64_t smra_reverts = 0;      // moves undone by the throughput guard
  // Simulator-efficiency accounting for this group's run (cycles ==
  // ticked + skipped; sample_windows > 0 only in sampled mode).
  uint64_t ticked_cycles = 0;
  uint64_t skipped_cycles = 0;
  uint64_t sample_windows = 0;

  std::string label() const {
    std::string s;
    for (size_t i = 0; i < names.size(); ++i) {
      if (i) s += "-";
      s += names[i];
    }
    return s;
  }
};

struct RunReport {
  Policy policy = Policy::kSerial;
  std::vector<GroupReport> groups;
  uint64_t total_cycles = 0;
  uint64_t total_thread_insns = 0;
  // Queue-wide simulator-efficiency totals (sums over groups).
  uint64_t total_ticked_cycles = 0;
  uint64_t total_skipped_cycles = 0;
  uint64_t total_sample_windows = 0;

  // Device throughput over the whole queue, Eq 1.1.
  double device_throughput() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(total_thread_insns) /
                     static_cast<double>(total_cycles);
  }

  // Average per-benchmark IPC during its group run (Figs 4.4-4.8, 4.12),
  // as a name-sorted vector: it is rebuilt on every report render inside
  // the bench table loops, where a flat sorted array beats a node-based
  // map both to build and to binary-search.
  std::vector<std::pair<std::string, double>> per_app_ipc() const;
};

// Lookup in a name-sorted per_app_ipc() vector; nullptr when absent.
inline const double* find_app_ipc(
    const std::vector<std::pair<std::string, double>>& ipc,
    const std::string& name) {
  const auto it = std::lower_bound(
      ipc.begin(), ipc.end(), name,
      [](const std::pair<std::string, double>& e, const std::string& n) {
        return e.first < n;
      });
  return it != ipc.end() && it->first == name ? &it->second : nullptr;
}

// The runner is immutable after construction: run() is const and touches no
// runner state besides the (thread-safe) ProfileCache, so one instance can
// be shared by any number of experiment worker threads.
class QueueRunner {
 public:
  // `cache` supplies the memoized solo scalability curves ProfileBased [17]
  // needs AND the group-run layer every executed group is memoized in —
  // two policies (or a warm store) that pick the same (kernels, partition,
  // mode) group share one simulation. It must outlive the runner; when
  // null, the runner owns a private cache (convenient for tests and
  // one-off uses, at the cost of not sharing measurements with other
  // runners).
  // `threads` is the width run() fans a queue's co-run groups (and
  // ProfileBased's curve points) out over on the shared pool: 1 is a
  // serial loop, 0 the pool's full width. Reports are byte-identical for
  // any width.
  QueueRunner(const sim::GpuConfig& cfg,
              const std::vector<profile::AppProfile>& suite_profiles,
              const interference::SlowdownModel& model,
              profile::ProfileCache* cache = nullptr, int threads = 1);

  // `partition_override` pins the SM split of every group whose size
  // matches it (static-allocation sweeps, e.g. capacity planning); a
  // pinned group runs statically — SMRA is disabled for it. Empty keeps
  // each policy's own choice.
  RunReport run(const std::vector<Job>& queue, Policy policy, int nc,
                const SmraParams& smra = {},
                const std::vector<int>& partition_override = {}) const;

  // The SM split ProfileBased [17] chooses for a group, from offline solo
  // scalability curves (exposed for tests and ablations).
  std::vector<int> profile_based_partition(
      const std::vector<Job>& group) const;

 private:
  GroupReport run_group(const std::vector<Job>& group, Policy policy,
                        const SmraParams& smra,
                        const std::vector<int>& partition_override) const;
  uint64_t solo_cycles(const std::string& name) const;

  sim::GpuConfig cfg_;
  // Name-sorted, binary-searched by solo_cycles() — the per_app_ipc()
  // precedent: a flat sorted array beats a node-based map on this hot
  // lookup path.
  std::vector<profile::AppProfile> profiles_;
  const interference::SlowdownModel* model_;
  profile::ProfileCache* cache_;
  std::shared_ptr<profile::ProfileCache> owned_cache_;  // when none injected
  int threads_;
};

}  // namespace gpumas::sched
