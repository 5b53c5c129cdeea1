// ExperimentRunner: executes a batch of ScenarioSpecs across a thread pool.
//
// The engine stages the expensive offline artifacts per device
// configuration — suite solo profiles, the pairwise SlowdownModel and the
// reusable const QueueRunner — as independently memoized lazy stages, each
// behind its own shared_future. A scenario forces only the stages its queue
// kind and policy actually need: suite/distribution queues force the
// profile stage, the ILP policies force the model stage, and an
// explicit-queue scenario under Even/Serial forces neither (its kernels are
// profiled individually through the artifact store). Profiles, models and
// the co-run groups the scenarios execute are memoized and persisted by
// the shared profile::ProfileCache, so a warm store makes every stage a
// pure load and re-running a batch simulates nothing at all.
//
// Workers pull scenarios from a shared index and write into a pre-sized
// result vector, so `run()` returns reports in declaration order and
// byte-identical results regardless of the thread count (the simulator
// itself is deterministic and each scenario is independent). The same
// `threads` width bounds the independent simulations nested inside a
// scenario: the suite solos of the profile stage, each ProfileBased
// scalability curve's points and a queue's co-run groups fan out on the
// shared pool and are accumulated in declaration order too. A width of 1
// keeps every level a serial loop that never starts the shared pool.
//
// A batch can additionally be sharded: `run(scenarios, Shard{i, n})` runs the
// deterministic i-of-n slice (scenario j belongs to shard j % n), leaving
// the other entries empty, so independent processes or machines can split
// one batch and merge the unions trivially.
#pragma once

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "exp/scenario.h"
#include "interference/interference.h"
#include "profile/profile_cache.h"
#include "sched/runner.h"

namespace gpumas::exp {

// A deterministic i-of-n slice of a scenario batch: scenario j is executed
// iff j % count == index. Round-robin keeps the expensive scenarios of a
// grid (which benches declare in clustered order) balanced across shards.
struct Shard {
  int index = 0;
  int count = 1;  // 1 = the whole batch
};

// Optional per-batch execution hooks, the engine half of checkpoint/resume
// (bench::Harness wires them to its journal).
struct RunHooks {
  // When set and skip(i) is true, scenario i is not executed: its entry
  // keeps the scenario name and no reps, exactly like an off-shard entry.
  // Callers substitute previously-recorded reports afterwards; records
  // do not depend on which scenarios ran, so a resumed batch stays
  // byte-identical to an uninterrupted one.
  std::function<bool(size_t)> skip;
  // Invoked once per executed scenario as it completes — in completion
  // order, NOT declaration order, from whichever worker finished it, but
  // serialized under an engine-internal mutex. `i` is the scenario's index
  // in the batch. Exceptions thrown here propagate through the engine's
  // fail-fast path and abort the batch; callers that must survive hook
  // failures (a full disk mid-checkpoint) catch inside the hook.
  std::function<void(size_t, const ScenarioResult&)> on_result;
};

class ExperimentRunner {
 public:
  // `cache` outlives the runner and may be shared with other engines and
  // with direct Profiler users; `threads` <= 0 selects 1. `suite` is the
  // application population that suite/distribution queues draw from and
  // that the interference model is measured over; empty selects the
  // paper's 14-benchmark suite.
  explicit ExperimentRunner(profile::ProfileCache& cache, int threads = 1,
                            std::vector<sim::KernelParams> suite = {});

  // Executes every scenario of this shard; results[i] always corresponds
  // to scenarios[i], and entries outside the shard carry the scenario name
  // but no reps (ScenarioResult::has_reps() is false). Worker exceptions
  // (e.g. a scenario exceeding max_cycles) propagate to the caller after
  // the pool drains; once one worker fails, the remaining workers stop
  // claiming new scenarios instead of simulating the rest of the batch.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& scenarios,
                                  const Shard& shard = {},
                                  const RunHooks& hooks = {});

  // Convenience for the common single-scenario case.
  ScenarioResult run_one(const ScenarioSpec& scenario);

  int threads() const { return threads_; }
  profile::ProfileCache& cache() { return *cache_; }

 private:
  // Offline stages shared by every scenario on one (config, thresholds,
  // model sampling) key. Each stage is an independently memoized
  // shared_future: the slot is invalid until the first scenario that needs
  // the stage forces it, and concurrent forcers of one stage block on a
  // single computation. Two runner flavours exist so that non-ILP policies
  // never force the model: `runner` (profiles + measured model) and
  // `lite_runner` (profiles + a never-consulted neutral model).
  struct Env {
    sim::GpuConfig config;
    profile::ClassifierThresholds thresholds;
    int model_samples = 0;

    std::mutex mu;  // guards the stage slots below
    std::shared_future<std::shared_ptr<const std::vector<profile::AppProfile>>>
        profiles;
    std::shared_future<std::shared_ptr<const interference::SlowdownModel>>
        model;
    std::shared_future<std::shared_ptr<const sched::QueueRunner>> runner;
    std::shared_future<std::shared_ptr<const sched::QueueRunner>> lite_runner;
  };

  std::shared_ptr<Env> env_for(const ScenarioSpec& spec);
  std::shared_ptr<const std::vector<profile::AppProfile>> profiles_stage(
      Env& env);
  std::shared_ptr<const interference::SlowdownModel> model_stage(Env& env);
  std::shared_ptr<const sched::QueueRunner> runner_stage(Env& env,
                                                         bool with_model);

  ScenarioResult run_scenario(const ScenarioSpec& spec);
  std::vector<sched::Job> build_queue(
      const ScenarioSpec& spec, int rep,
      const std::vector<profile::AppProfile>& suite_profiles) const;

  profile::ProfileCache* cache_;
  int threads_;
  std::vector<sim::KernelParams> suite_;
  std::mutex mu_;
  // Keyed by (config fingerprint, thresholds fingerprint, model sampling).
  std::map<std::tuple<uint64_t, uint64_t, int>, std::shared_ptr<Env>> envs_;
};

}  // namespace gpumas::exp
