#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/prng.h"
#include "common/text.h"
#include "workloads/suite.h"

namespace perfbench {

using gpumas::Prng;
namespace exp = gpumas::exp;
namespace profile = gpumas::profile;
namespace sched = gpumas::sched;
namespace sim = gpumas::sim;

const char* group_kind_name(GroupKind kind) {
  switch (kind) {
    case GroupKind::kMemory: return "mem";
    case GroupKind::kCompute: return "compute";
    case GroupKind::kMixed: return "mixed";
  }
  return "?";
}

namespace {

// The suite's calibrated Table 3.1 classes (workloads/suite.h), in suite
// order.
const std::vector<std::vector<std::string>>& class_members() {
  static const std::vector<std::vector<std::string>> kMembers = {
      {"BLK", "GUPS"},                       // M
      {"BP", "FFT", "3DS", "LPS", "RAY"},    // MC
      {"BFS2", "SPMV"},                      // C
      {"LUD", "JPEG", "HS", "SAD", "NN"}};  // A
  return kMembers;
}

// True for the members of class M or MC.
bool memory_side(const std::string& app) {
  for (size_t c = 0; c < 2; ++c) {
    for (const std::string& m : class_members()[c]) {
      if (m == app) return true;
    }
  }
  return false;
}

}  // namespace

bool CorunGroup::even() const {
  return std::all_of(partition.begin(), partition.end(),
                     [&](int s) { return s == partition.front(); });
}

std::string CorunGroup::label() const {
  std::string s;
  for (size_t i = 0; i < apps.size(); ++i) s += (i ? "+" : "") + apps[i];
  s += "@";
  for (size_t i = 0; i < partition.size(); ++i) {
    s += (i ? "/" : "") + std::to_string(partition[i]);
  }
  return s;
}

namespace {

GroupKind kind_of(const std::vector<std::string>& apps) {
  const size_t mem = static_cast<size_t>(
      std::count_if(apps.begin(), apps.end(), memory_side));
  if (mem == apps.size()) return GroupKind::kMemory;
  if (mem == 0) return GroupKind::kCompute;
  return GroupKind::kMixed;
}

template <typename T>
void shuffle(std::vector<T>& xs, Prng& prng) {
  for (size_t i = xs.size(); i > 1; --i) {
    std::swap(xs[i - 1], xs[prng.next_below(i)]);
  }
}

// Uneven splits of `num_sms`: a pair gets 2:1, a triple 3:2:1, in a seeded
// member order.
std::vector<int> uneven_split(size_t members, int num_sms, Prng& prng) {
  std::vector<int> parts;
  if (members == 2) {
    parts = {num_sms * 2 / 3, num_sms - num_sms * 2 / 3};
  } else {
    const int unit = num_sms / 6;
    parts = {3 * unit, 2 * unit, num_sms - 5 * unit};
  }
  shuffle(parts, prng);
  return parts;
}

// The group shapes every draw fills, as class slots (0 = M, 1 = MC, 2 = C,
// 3 = A) and split kind. They use each class exactly as often as the suite
// has members (2 M, 5 MC, 2 C, 5 A), so a draw is a partition of the whole
// suite, and they fix the class mix of each group so that the simulated
// work, and hence the cost of a round, varies little between seeds.
struct Slot {
  std::vector<int> classes;
  bool uneven;
};
const Slot kSlots[] = {
    {{0, 1}, false},     // memory-bound pair
    {{2, 3}, true},      // compute-bound pair
    {{0, 3}, true},      // mixed pairs
    {{1, 2}, false},
    {{1, 1, 3}, true},   // mixed triples
    {{1, 3, 3}, false},
};

}  // namespace

std::vector<CorunGroup> draw_corun_groups(uint64_t seed, int num_sms,
                                          int partitions) {
  std::vector<CorunGroup> all;
  for (int p = 0; p < partitions; ++p) {
    Prng prng(gpumas::hash_combine(gpumas::hash_combine(seed, 0xC02u),
                                   static_cast<uint64_t>(p)));
    // Seeded member order within each class; slots take members in turn.
    std::vector<std::vector<std::string>> pool = class_members();
    for (auto& members : pool) shuffle(members, prng);
    std::vector<size_t> next(pool.size(), 0);
    std::vector<CorunGroup> groups;
    for (const Slot& slot : kSlots) {
      CorunGroup g;
      for (const int c : slot.classes) {
        const size_t k = static_cast<size_t>(c);
        g.apps.push_back(pool[k][next[k]++]);
      }
      shuffle(g.apps, prng);
      g.kind = kind_of(g.apps);
      const int n = static_cast<int>(g.apps.size());
      if (slot.uneven) {
        g.partition = uneven_split(g.apps.size(), num_sms, prng);
      } else {
        g.partition.assign(g.apps.size(), num_sms / n);
        g.partition[0] += num_sms % n;
      }
      groups.push_back(std::move(g));
    }
    shuffle(groups, prng);
    all.insert(all.end(), groups.begin(), groups.end());
  }
  return all;
}

const std::vector<sched::Policy> kGridPolicies = {
    sched::Policy::kEven, sched::Policy::kProfileBased, sched::Policy::kIlp,
    sched::Policy::kIlpSmra};

std::vector<exp::ScenarioSpec> policy_grid(uint64_t seed, int queue_length) {
  const uint64_t queue_seed = gpumas::hash_combine(seed, 0x6B1Du);
  std::vector<exp::ScenarioSpec> specs;
  for (const sched::Policy policy : kGridPolicies) {
    exp::ScenarioSpec spec;
    spec.name = std::string("Equal/") + sched::policy_name(policy);
    spec.queue = exp::QueueSpec::Distribution(sched::QueueDistribution::kEqual,
                                              queue_length, queue_seed);
    spec.policy = policy;
    spec.nc = 2;
    spec.model_samples_per_cell = 1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

PadEntry pad_entry(const sim::GpuConfig& cfg, uint64_t seed, uint64_t index) {
  Prng prng(gpumas::hash_combine(gpumas::hash_combine(seed, 0x9AD), index));
  const auto& suite = gpumas::workloads::suite();
  const size_t members = 2 + prng.next_below(2);
  std::vector<sim::KernelParams> kernels;
  for (size_t m = 0; m < members; ++m) {
    kernels.push_back(suite[prng.next_below(suite.size())]);
  }
  std::vector<int> partition(members, 0);
  int left = cfg.num_sms;
  for (size_t m = 0; m + 1 < members; ++m) {
    const int max_share = left - static_cast<int>(members - m - 1);
    partition[m] = 1 + static_cast<int>(prng.next_below(
                           static_cast<uint64_t>(max_share)));
    left -= partition[m];
  }
  partition[members - 1] = left;
  // The mode tag makes every index its own store key; an SMRA-style tag
  // keeps the record shaped like a dynamic group's.
  char mode[48];
  std::snprintf(mode, sizeof(mode), "smra:pad:%llu",
                static_cast<unsigned long long>(index));

  PadEntry e;
  e.canon = profile::canonicalize_group(cfg, kernels, partition, mode);
  auto& r = e.record;
  for (const auto& kp : e.canon.kernels) {
    r.names.push_back(kp.name);
    r.app_cycles.push_back(20'000 + prng.next_below(400'000));
    r.app_thread_insns.push_back(static_cast<uint64_t>(kp.num_blocks) *
                                 static_cast<uint64_t>(kp.warps_per_block) *
                                 static_cast<uint64_t>(kp.insns_per_warp) *
                                 static_cast<uint64_t>(cfg.warp_size));
  }
  r.group_cycles = *std::max_element(r.app_cycles.begin(), r.app_cycles.end());
  r.smra_adjustments = prng.next_below(12);
  r.smra_reverts = prng.next_below(r.smra_adjustments + 1);
  r.skipped_cycles = prng.next_below(r.group_cycles / 20 + 1);
  r.ticked_cycles = r.group_cycles - r.skipped_cycles;
  return e;
}

std::string digest(const std::string& bytes) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(gpumas::fnv1a(bytes)));
  return buf;
}

}  // namespace perfbench
