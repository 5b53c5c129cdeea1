#include "exp/experiment.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "common/text.h"
#include "workloads/suite.h"

namespace gpumas::exp {

ExperimentRunner::ExperimentRunner(profile::ProfileCache& cache, int threads,
                                   std::vector<sim::KernelParams> suite)
    : cache_(&cache),
      threads_(threads > 0 ? threads : 1),
      suite_(suite.empty() ? workloads::suite() : std::move(suite)) {}

namespace {

uint64_t thresholds_fingerprint(const profile::ClassifierThresholds& t) {
  std::string bytes(4 * sizeof(double), '\0');
  const double vals[] = {t.alpha, t.beta, t.gamma, t.epsilon};
  std::memcpy(bytes.data(), vals, sizeof(vals));
  return fnv1a(bytes);
}

// Placeholder model for runners serving Even/Serial/ProfileBased scenarios:
// those policies never consult the model, and its default-constructed zero
// entries make pattern_weights() CHECK loudly if an ILP policy were ever
// routed to it by mistake.
const interference::SlowdownModel& neutral_model() {
  static const interference::SlowdownModel kNeutral;
  return kNeutral;
}

// Once-per-key stage forcing: the first caller computes `make()` outside
// the lock and fulfils the shared promise; everyone else (and every later
// caller) waits on / reads the same shared_future. An invalid slot means
// the stage has not been forced yet.
template <typename T, typename Make>
std::shared_ptr<const T> force_stage(
    std::mutex& mu, std::shared_future<std::shared_ptr<const T>>& slot,
    Make make) {
  std::promise<std::shared_ptr<const T>> promise;
  std::shared_future<std::shared_ptr<const T>> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (slot.valid()) {
      future = slot;
    } else {
      future = promise.get_future().share();
      slot = future;
      owner = true;
    }
  }
  if (owner) {
    try {
      promise.set_value(make());
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

}  // namespace

std::shared_ptr<ExperimentRunner::Env> ExperimentRunner::env_for(
    const ScenarioSpec& spec) {
  const auto key = std::make_tuple(profile::config_fingerprint(spec.config),
                                   thresholds_fingerprint(spec.thresholds),
                                   spec.model_samples_per_cell);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = envs_[key];
  if (!slot) {
    // Creating an Env is cheap — no simulation happens until a scenario
    // forces one of its stages.
    slot = std::make_shared<Env>();
    slot->config = spec.config;
    slot->thresholds = spec.thresholds;
    slot->model_samples = spec.model_samples_per_cell;
  }
  return slot;
}

std::shared_ptr<const std::vector<profile::AppProfile>>
ExperimentRunner::profiles_stage(Env& env) {
  return force_stage(env.mu, env.profiles, [&] {
    return std::make_shared<const std::vector<profile::AppProfile>>(
        cache_->suite_profiles(suite_, env.config, env.thresholds, threads_));
  });
}

std::shared_ptr<const interference::SlowdownModel>
ExperimentRunner::model_stage(Env& env) {
  return force_stage(env.mu, env.model, [&] {
    // Forces the profile stage: the model is measured over the classified
    // suite. The measurement itself is memoized (and persisted) by the
    // artifact store, so a warm store performs zero co-run simulations; a
    // cold one fans the matrix cells out over this engine's worker count.
    const auto profiles = profiles_stage(env);
    return cache_->model(env.config, suite_, *profiles, env.model_samples,
                         /*with_triples=*/false, threads_);
  });
}

std::shared_ptr<const sched::QueueRunner> ExperimentRunner::runner_stage(
    Env& env, bool with_model) {
  auto& slot = with_model ? env.runner : env.lite_runner;
  return force_stage(env.mu, slot, [&] {
    const auto profiles = profiles_stage(env);
    const interference::SlowdownModel* model = &neutral_model();
    std::shared_ptr<const interference::SlowdownModel> measured;
    if (with_model) {
      measured = model_stage(env);
      model = measured.get();
    }
    // The model outlives the runner: measured models are owned by the
    // artifact store (which outlives the engine by contract) and the
    // neutral model is a process-lifetime static.
    return std::make_shared<const sched::QueueRunner>(env.config, *profiles,
                                                      *model, cache_, threads_);
  });
}

std::vector<sched::Job> ExperimentRunner::build_queue(
    const ScenarioSpec& spec, int rep,
    const std::vector<profile::AppProfile>& suite_profiles) const {
  switch (spec.queue.kind) {
    case QueueSpec::Kind::kSuite: {
      std::vector<sched::Job> queue;
      for (const auto& job :
           sched::make_suite_queue(suite_, suite_profiles)) {
        const auto& ex = spec.queue.exclude;
        if (std::find(ex.begin(), ex.end(), job.kernel.name) == ex.end()) {
          queue.push_back(job);
        }
      }
      return queue;
    }
    case QueueSpec::Kind::kDistribution:
      return sched::make_queue(suite_, suite_profiles,
                               spec.queue.dist, spec.queue.length,
                               spec.queue.seed + static_cast<uint64_t>(rep));
    case QueueSpec::Kind::kExplicit: {
      std::vector<sched::Job> queue;
      for (size_t i = 0; i < spec.queue.kernels.size(); ++i) {
        const auto& kp = spec.queue.kernels[i];
        queue.push_back(sched::Job{
            kp, cache_->solo(spec.config, kp, -1, spec.thresholds).cls,
            static_cast<int>(i)});
      }
      return queue;
    }
  }
  GPUMAS_CHECK_MSG(false, "unhandled queue kind");
}

ScenarioResult ExperimentRunner::run_scenario(const ScenarioSpec& spec) {
  const std::shared_ptr<Env> env = env_for(spec);
  const bool needs_model = spec.policy == sched::Policy::kIlp ||
                           spec.policy == sched::Policy::kIlpSmra;

  // Force only the stages this scenario reads. Explicit queues never touch
  // the suite: their kernels are profiled individually through the shared
  // store and a scenario-local runner serves them, so an Even/Serial
  // explicit scenario builds neither suite profiles nor the model.
  std::shared_ptr<const std::vector<profile::AppProfile>> suite_profiles;
  if (spec.queue.kind != QueueSpec::Kind::kExplicit) {
    suite_profiles = profiles_stage(*env);
  }

  const sched::QueueRunner* runner = nullptr;
  std::shared_ptr<const sched::QueueRunner> shared;
  std::unique_ptr<sched::QueueRunner> local;
  if (spec.queue.kind == QueueSpec::Kind::kExplicit) {
    // QueueRunner keys profiles by name, so two distinct kernels sharing a
    // name would silently alias — reject the spec instead.
    std::map<std::string, uint64_t> seen;
    for (const auto& kp : spec.queue.kernels) {
      const uint64_t fp = profile::kernel_fingerprint(kp);
      const auto [it, inserted] = seen.emplace(kp.name, fp);
      GPUMAS_CHECK_MSG(inserted || it->second == fp,
                       "scenario '" << spec.name
                                    << "': two different kernels share the "
                                       "name '"
                                    << kp.name << "'");
    }
    std::vector<profile::AppProfile> profiles;
    profiles.reserve(spec.queue.kernels.size());
    for (const auto& kp : spec.queue.kernels) {
      profiles.push_back(cache_->solo(spec.config, kp, -1, spec.thresholds));
    }
    const interference::SlowdownModel* model = &neutral_model();
    std::shared_ptr<const interference::SlowdownModel> measured;
    if (needs_model) {
      measured = model_stage(*env);
      model = measured.get();
    }
    local = std::make_unique<sched::QueueRunner>(spec.config, profiles,
                                                 *model, cache_, threads_);
    runner = local.get();
  } else {
    shared = runner_stage(*env, needs_model);
    runner = shared.get();
  }

  ScenarioResult result;
  result.name = spec.name;
  const int reps = spec.repetitions > 0 ? spec.repetitions : 1;
  result.reps.reserve(static_cast<size_t>(reps));
  static const std::vector<profile::AppProfile> kNoSuiteProfiles;
  for (int rep = 0; rep < reps; ++rep) {
    const auto queue = build_queue(
        spec, rep, suite_profiles ? *suite_profiles : kNoSuiteProfiles);
    result.reps.push_back(runner->run(queue, spec.policy, spec.nc, spec.smra,
                                      spec.fixed_partition));
  }
  return result;
}

std::vector<ScenarioResult> ExperimentRunner::run(
    const std::vector<ScenarioSpec>& scenarios, const Shard& shard,
    const RunHooks& hooks) {
  GPUMAS_CHECK_MSG(shard.count >= 1 && shard.index >= 0 &&
                       shard.index < shard.count,
                   "invalid shard " << shard.index << "/" << shard.count);
  std::vector<ScenarioResult> results(scenarios.size());
  // Every entry carries its scenario name so sharded outputs stay
  // identifiable; off-shard entries keep reps empty.
  for (size_t i = 0; i < scenarios.size(); ++i) {
    results[i].name = scenarios[i].name;
  }
  std::vector<size_t> mine;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (static_cast<int>(i % static_cast<size_t>(shard.count)) ==
        shard.index) {
      mine.push_back(i);
    }
  }
  // Fail fast (parallel_for): once any worker records an error, the rest
  // stop claiming new scenarios instead of simulating the remainder of the
  // batch, and the first error rethrows here.
  std::mutex hook_mu;
  parallel_for(threads_, mine.size(), [&](size_t k) {
    const size_t i = mine[k];
    if (hooks.skip && hooks.skip(i)) return;
    results[i] = run_scenario(scenarios[i]);
    if (hooks.on_result) {
      std::lock_guard<std::mutex> lock(hook_mu);
      hooks.on_result(i, results[i]);
    }
  });
  return results;
}

ScenarioResult ExperimentRunner::run_one(const ScenarioSpec& scenario) {
  return run({scenario}).front();
}

}  // namespace gpumas::exp
