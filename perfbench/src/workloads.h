// Seeded input generators of the three benchmark workloads.
//
// Every generator is a pure function of its seed (and size arguments), so
// the same seed always yields the same inputs and two different seeds
// yield different ones. Nothing here simulates: the runners in run_*.cc
// execute what these functions describe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "profile/profile_cache.h"
#include "sim/gpu_config.h"
#include "sim/kernel.h"

namespace perfbench {

// Class mix of a co-run group, by the members' Table 3.1 classes:
// memory-bound = M/MC members only, compute-bound = C/A members only.
enum class GroupKind { kMemory, kCompute, kMixed };
const char* group_kind_name(GroupKind kind);

struct CorunGroup {
  std::vector<std::string> apps;
  std::vector<int> partition;  // SMs per member, sums to the device's SMs
  GroupKind kind = GroupKind::kMixed;

  bool even() const;
  std::string label() const;  // e.g. "BLK+HS@40/20"
};

// sim_corun's groups: `partitions` seeded partitions of the whole 14-app
// suite, each into four pairs and two triples, so every app runs exactly
// `partitions` times per round and the simulated instruction count is the
// same for every seed. Each group of a partition has a fixed class mix and
// split kind (kSlots in workloads.cc): a memory-bound pair, a
// compute-bound pair, mixed pairs and triples, even and uneven splits. The
// seed draws which member of each class fills each slot, the member order,
// the orientation of the uneven splits and the group order; two partitions
// per round average out what one draw's grouping costs.
std::vector<CorunGroup> draw_corun_groups(uint64_t seed, int num_sms,
                                          int partitions = 2);

// The §4.1 policy grid (Even / Profile-based / ILP / ILP-SMRA, nc = 2) on
// one equal-distribution queue of `queue_length` jobs whose arrival order
// is drawn from `seed`. The ILP model is measured with one app pair per
// class cell, as the quick figure benches do.
extern const std::vector<gpumas::sched::Policy> kGridPolicies;
std::vector<gpumas::exp::ScenarioSpec> policy_grid(uint64_t seed,
                                                   int queue_length);

// One synthetic group-layer entry of store_warm's padding: a seeded
// (kernels, partition, mode) group of suite kernels, unique per index, and
// the seeded record the benchmark's GroupSimulator returns for it.
struct PadEntry {
  gpumas::profile::CanonicalGroup canon;
  gpumas::profile::GroupRunRecord record;
};
PadEntry pad_entry(const gpumas::sim::GpuConfig& cfg, uint64_t seed,
                   uint64_t index);

// Digest (FNV-1a, hex) of a string; the digests recorded with the
// benchmark are of this form.
std::string digest(const std::string& bytes);

}  // namespace perfbench
