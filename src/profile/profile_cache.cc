#include "profile/profile_cache.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/text.h"
#include "sim/config_io.h"
#include "sim/gpu.h"

namespace gpumas::profile {

namespace {

std::string render_double(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

// The on-disk rendering of an artifact's simulation fidelity (the inverse
// of EntryFields::accuracy).
const char* accuracy_name(sim::SimMode m) {
  return m == sim::SimMode::kSampled ? "sampled" : "detailed";
}

}  // namespace

uint64_t config_fingerprint(const sim::GpuConfig& cfg) {
  return fnv1a(sim::config_to_string(cfg));
}

uint64_t kernel_fingerprint(const sim::KernelParams& kp) {
  // Canonical key = value rendering of every field that shapes the address
  // and instruction streams (sim::kernel_to_string), hashed like the config.
  return fnv1a(sim::kernel_to_string(kp));
}

CanonicalGroup canonicalize_group(const sim::GpuConfig& cfg,
                                  const std::vector<sim::KernelParams>& kernels,
                                  const std::vector<int>& partition,
                                  const std::string& mode) {
  GPUMAS_CHECK(!kernels.empty());
  GPUMAS_CHECK(partition.empty() || partition.size() == kernels.size());
  const size_t k = kernels.size();

  std::vector<uint64_t> fps(k);
  for (size_t i = 0; i < k; ++i) fps[i] = kernel_fingerprint(kernels[i]);

  // Stable sort by (kernel fingerprint, declared SM share): members with
  // identical kernels AND shares are interchangeable, so the stable
  // tie-break only fixes which caller slot maps to which record slot.
  CanonicalGroup canon;
  canon.perm.resize(k);
  std::iota(canon.perm.begin(), canon.perm.end(), size_t{0});
  std::stable_sort(canon.perm.begin(), canon.perm.end(),
                   [&](size_t a, size_t b) {
                     if (fps[a] != fps[b]) return fps[a] < fps[b];
                     if (!partition.empty() && partition[a] != partition[b]) {
                       return partition[a] < partition[b];
                     }
                     return false;
                   });

  canon.kernels.reserve(k);
  std::vector<uint64_t> canon_fps(k);
  for (size_t c = 0; c < k; ++c) {
    canon.kernels.push_back(kernels[canon.perm[c]]);
    canon_fps[c] = fps[canon.perm[c]];
  }
  if (partition.empty()) {
    // Resolve the even split over the canonical order, so the remainder
    // SMs land on the same members for every caller-side permutation.
    canon.partition.assign(k, cfg.num_sms / static_cast<int>(k));
    for (size_t c = 0; c < static_cast<size_t>(cfg.num_sms) % k; ++c) {
      canon.partition[c]++;
    }
  } else {
    canon.partition.reserve(k);
    for (size_t c = 0; c < k; ++c) {
      canon.partition.push_back(partition[canon.perm[c]]);
    }
  }

  canon.config_fp = config_fingerprint(cfg);
  canon.group_fp =
      fnv1a(sim::group_to_string(canon_fps, canon.partition, mode));
  canon.accuracy = cfg.sim_mode;
  return canon;
}

GroupRunRecord simulate_static_group(
    const sim::GpuConfig& cfg, const std::vector<sim::KernelParams>& kernels,
    const std::vector<int>& partition) {
  sim::Gpu gpu(cfg);
  for (const auto& kp : kernels) gpu.launch(kp);
  gpu.set_partition_counts(partition);
  const sim::RunResult run = gpu.run_to_completion();

  GroupRunRecord record;
  record.group_cycles = run.cycles;
  record.ticked_cycles = gpu.ticked_cycles();
  record.skipped_cycles = gpu.skipped_cycles();
  record.sample_windows = gpu.sample_windows();
  record.names.reserve(kernels.size());
  for (size_t i = 0; i < kernels.size(); ++i) {
    record.names.push_back(kernels[i].name);
    record.app_cycles.push_back(run.apps[i].finish_cycle);
    record.app_thread_insns.push_back(run.apps[i].thread_insns(run.warp_size));
  }
  return record;
}

uint64_t model_suite_fingerprint(const std::vector<sim::KernelParams>& kernels,
                                 const std::vector<AppProfile>& profiles) {
  GPUMAS_CHECK(kernels.size() == profiles.size());
  std::ostringstream os;
  for (size_t i = 0; i < kernels.size(); ++i) {
    os << kernel_fingerprint(kernels[i]) << ":"
       << static_cast<int>(profiles[i].cls) << "\n";
  }
  return fnv1a(os.str());
}

// --- the three layer codecs: each entry's exact on-disk bytes ---

struct ProfileCache::ProfileCodec {
  static constexpr const char* kName = "profile";

  static std::string header(uint64_t) { return "# gpumas profile cache v2\n"; }

  static std::string render(const Key& key, const AppProfile& p, uint64_t) {
    std::ostringstream os;
    os << "[profile]\n"
       << "config = " << key.config_fp << "\n"
       << "kernel = " << key.kernel_fp << "\n"
       << "sms = " << key.sms << "\n"
       << "accuracy = " << accuracy_name(key.accuracy) << "\n"
       << "name = " << p.name << "\n"
       << "mb_gbps = " << render_double(p.mb_gbps) << "\n"
       << "l2l1_gbps = " << render_double(p.l2l1_gbps) << "\n"
       << "ipc = " << render_double(p.ipc) << "\n"
       << "r = " << render_double(p.r) << "\n"
       << "l1_hit_rate = " << render_double(p.l1_hit_rate) << "\n"
       << "l2_hit_rate = " << render_double(p.l2_hit_rate) << "\n"
       << "solo_cycles = " << p.solo_cycles << "\n"
       << "thread_insns = " << p.thread_insns << "\n";
    return os.str();
  }

  static void parse(EntryFields& f, Key* key, AppProfile* p, uint64_t*) {
    key->config_fp = f.u64("config");
    key->kernel_fp = f.u64("kernel");
    key->sms = f.int_in("sms", 1, INT_MAX);
    key->accuracy = f.accuracy();
    p->name = f.str("name");
    p->mb_gbps = f.real("mb_gbps");
    p->l2l1_gbps = f.real("l2l1_gbps");
    p->ipc = f.real("ipc");
    p->r = f.real("r");
    p->l1_hit_rate = f.real("l1_hit_rate");
    p->l2_hit_rate = f.real("l2_hit_rate");
    p->solo_cycles = f.u64("solo_cycles");
    p->thread_insns = f.u64("thread_insns");
  }
};

struct ProfileCache::ModelCodec {
  using Model = std::shared_ptr<const interference::SlowdownModel>;
  static constexpr const char* kName = "model";

  static std::string header(uint64_t) { return "# gpumas model cache v2\n"; }

  static std::string render(const ModelKey& key, const Model& m, uint64_t) {
    std::ostringstream os;
    os << "[model]\n"
       << "config = " << key.config_fp << "\n"
       << "suite = " << key.suite_fp << "\n"
       << "samples_per_cell = " << key.samples << "\n"
       << "triples = " << (key.triples ? 1 : 0) << "\n"
       << "accuracy = " << accuracy_name(key.accuracy) << "\n"
       << m->to_string();
    return os.str();
  }

  static void parse(EntryFields& f, ModelKey* key, Model* m, uint64_t*) {
    key->config_fp = f.u64("config");
    key->suite_fp = f.u64("suite");
    key->samples = f.int_in("samples_per_cell", 0, INT_MAX);
    key->triples = f.int_in("triples", 0, 1) == 1;
    key->accuracy = f.accuracy();
    // The remaining lines are the model body; from_string validates it
    // (every cell present, multi_count consistent).
    *m = std::make_shared<interference::SlowdownModel>(
        interference::SlowdownModel::from_string(f.rest()));
  }
};

struct ProfileCache::GroupCodec {
  static constexpr const char* kName = "group";

  // Only the group layer is evicted, so only its file carries the
  // lifecycle generation (and each entry its `gen =` stamp).
  static std::string header(uint64_t generation) {
    return "# gpumas group-run cache v2\n# generation = " +
           std::to_string(generation) + "\n";
  }

  static std::string render(const GroupKey& key, const GroupRunRecord& r,
                            uint64_t gen) {
    const auto join = [](const std::vector<uint64_t>& xs) {
      std::string s;
      for (size_t i = 0; i < xs.size(); ++i) {
        if (i) s += ',';
        s += std::to_string(xs[i]);
      }
      return s;
    };
    std::string names;
    for (size_t i = 0; i < r.names.size(); ++i) {
      if (i) names += ',';
      names += percent_escape(r.names[i]);
    }
    std::ostringstream os;
    os << "[group]\n"
       << "config = " << key.config_fp << "\n"
       << "group = " << key.group_fp << "\n"
       << "accuracy = " << accuracy_name(key.accuracy) << "\n"
       << "apps = " << r.names.size() << "\n"
       << "names = " << names << "\n"
       << "app_cycles = " << join(r.app_cycles) << "\n"
       << "app_insns = " << join(r.app_thread_insns) << "\n"
       << "cycles = " << r.group_cycles << "\n"
       << "ticked_cycles = " << r.ticked_cycles << "\n"
       << "skipped_cycles = " << r.skipped_cycles << "\n"
       << "sample_windows = " << r.sample_windows << "\n"
       << "smra_adjustments = " << r.smra_adjustments << "\n"
       << "smra_reverts = " << r.smra_reverts << "\n"
       << "gen = " << gen << "\n";
    return os.str();
  }

  // `gen` is optional on read, so pre-lifecycle stores still load: their
  // entries default to generation 0, the oldest eviction candidates. The
  // three lists must have exactly `apps` elements.
  static void parse(EntryFields& f, GroupKey* key, GroupRunRecord* r,
                    uint64_t* gen) {
    key->config_fp = f.u64("config");
    key->group_fp = f.u64("group");
    key->accuracy = f.accuracy();
    const uint64_t apps = f.u64("apps");
    GPUMAS_CHECK_MSG(apps >= 1, "apps must be >= 1");
    const auto list = [&](const char* what) {
      const auto parts = split_commas(f.str(what));
      GPUMAS_CHECK_MSG(parts.size() == apps, what << " has " << parts.size()
                                                  << " elements, expected "
                                                  << apps);
      return parts;
    };
    for (const auto& name : list("names")) {
      // percent_unescape throws std::logic_error on a malformed escape.
      r->names.push_back(percent_unescape(name));
    }
    const auto u64_list = [&](const char* what) {
      std::vector<uint64_t> out;
      for (const auto& part : list(what)) {
        const auto v = text::parse_u64_strict(part);
        GPUMAS_CHECK_MSG(v.has_value(), "bad " << what << " element '"
                                               << part << "'");
        out.push_back(*v);
      }
      return out;
    };
    r->app_cycles = u64_list("app_cycles");
    r->app_thread_insns = u64_list("app_insns");
    r->group_cycles = f.u64("cycles");
    r->ticked_cycles = f.u64("ticked_cycles");
    r->skipped_cycles = f.u64("skipped_cycles");
    r->sample_windows = f.u64("sample_windows");
    r->smra_adjustments = f.u64("smra_adjustments");
    r->smra_reverts = f.u64("smra_reverts");
    *gen = f.u64_or("gen", 0);
  }
};

uint64_t ProfileCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

AppProfile ProfileCache::raw_solo(const sim::GpuConfig& cfg,
                                  const sim::KernelParams& kp, int num_sms) {
  if (num_sms <= 0) num_sms = cfg.num_sms;
  return lookup(Key{config_fingerprint(cfg), kernel_fingerprint(kp), num_sms,
                    cfg.sim_mode},
                cfg, kp, num_sms);
}

AppProfile ProfileCache::lookup(const Key& key, const sim::GpuConfig& cfg,
                                const sim::KernelParams& kp, int num_sms,
                                bool scalability) {
  GPUMAS_CHECK_MSG(num_sms <= cfg.num_sms,
                   "profile request for " << num_sms << " SMs on a "
                                          << cfg.num_sms << "-SM device");
  return profiles_.lookup(
      key, generation(), [&] { return Profiler(cfg).profile(kp, num_sms); },
      scalability);
}

AppProfile ProfileCache::solo(const sim::GpuConfig& cfg,
                              const sim::KernelParams& kp, int num_sms,
                              const ClassifierThresholds& t) {
  AppProfile p = raw_solo(cfg, kp, num_sms);
  p.cls = classify(p, t);
  return p;
}

std::vector<ScalabilityPoint> ProfileCache::scalability(
    const sim::GpuConfig& cfg, const sim::KernelParams& kp,
    const std::vector<int>& sm_counts, int threads) {
  // Validate the whole grid before any point simulates: a bad count must
  // not leave the points ahead of it measured and others in flight.
  for (const int n : sm_counts) GPUMAS_CHECK(n > 0 && n <= cfg.num_sms);
  // The fingerprints are invariant across the grid; hash once, not per
  // point.
  const Key base{config_fingerprint(cfg), kernel_fingerprint(kp), 0,
                 cfg.sim_mode};
  // A fully resident curve is read inline: a pool job for a handful of map
  // reads costs more than the reads (the warm ProfileBased path).
  size_t missing = 0;
  for (const int n : sm_counts) {
    Key key = base;
    key.sms = n;
    if (!profiles_.contains(key)) ++missing;
  }
  std::vector<ScalabilityPoint> points(sm_counts.size());
  parallel_for(missing > 1 ? resolve_width(threads) : 1, sm_counts.size(),
               [&](size_t i) {
                 Key key = base;
                 key.sms = sm_counts[i];
                 points[i] = ScalabilityPoint{
                     key.sms, lookup(key, cfg, kp, key.sms,
                                     /*scalability=*/true).ipc};
               });
  return points;
}

std::vector<AppProfile> ProfileCache::suite_profiles(
    const std::vector<sim::KernelParams>& kernels, const sim::GpuConfig& cfg,
    const ClassifierThresholds& t, int threads) {
  // Each solo writes its own slot, so the vector is in suite order whatever
  // order the workers finish in.
  std::vector<AppProfile> profiles(kernels.size());
  parallel_for(resolve_width(threads), kernels.size(),
               [&](size_t i) { profiles[i] = solo(cfg, kernels[i], -1, t); });
  return profiles;
}

std::shared_ptr<const interference::SlowdownModel> ProfileCache::model(
    const sim::GpuConfig& cfg, const std::vector<sim::KernelParams>& kernels,
    const std::vector<AppProfile>& profiles, int max_samples_per_cell,
    bool with_triples, int measure_threads) {
  const ModelKey key{config_fingerprint(cfg),
                     model_suite_fingerprint(kernels, profiles),
                     max_samples_per_cell, with_triples, cfg.sim_mode};
  // Same-key waiters block on one measurement instead of duplicating the
  // ~N^2 co-run simulations.
  return models_.lookup(key, generation(), [&] {
    // The measurement's co-runs route back through this store's group
    // layer (memoized + persisted), so a warm store re-measures nothing
    // and a cold one simulates each unordered pair exactly once, fanned
    // out over `measure_threads` workers.
    auto measured = std::make_shared<interference::SlowdownModel>(
        interference::SlowdownModel::measure_pairwise(
            cfg, kernels, profiles, max_samples_per_cell, this,
            measure_threads));
    if (with_triples) {
      measured->measure_triples(cfg, kernels, profiles, this,
                                measure_threads);
    }
    return std::shared_ptr<const interference::SlowdownModel>(
        std::move(measured));
  });
}

GroupRunRecord ProfileCache::group_run(const sim::GpuConfig& cfg,
                                       const CanonicalGroup& canon,
                                       const GroupSimulator& simulate) {
  // Same-group waiters (two policies picking the same split, the two
  // ordered pairs of a matrix cell, a warm re-run) block on one shared
  // record; a hit refreshes the entry's LRU stamp, so warm entries outlive
  // the eviction of long-unused ones.
  return groups_.lookup(
      GroupKey{canon.config_fp, canon.group_fp, canon.accuracy}, generation(),
      [&] {
        return simulate ? simulate(cfg, canon.kernels, canon.partition)
                        : simulate_static_group(cfg, canon.kernels,
                                                canon.partition);
      });
}

uint64_t ProfileCache::hits() const { return profiles_.counters().hits; }
uint64_t ProfileCache::misses() const { return profiles_.counters().misses; }
size_t ProfileCache::size() const { return profiles_.size(); }
uint64_t ProfileCache::scalability_hits() const {
  return profiles_.counters().sub_hits;
}
uint64_t ProfileCache::scalability_misses() const {
  return profiles_.counters().sub_misses;
}
uint64_t ProfileCache::model_hits() const { return models_.counters().hits; }
uint64_t ProfileCache::model_misses() const {
  return models_.counters().misses;
}
size_t ProfileCache::model_count() const { return models_.size(); }
uint64_t ProfileCache::group_hits() const { return groups_.counters().hits; }
uint64_t ProfileCache::group_misses() const {
  return groups_.counters().misses;
}
size_t ProfileCache::group_count() const { return groups_.size(); }

ProfileCache::AccuracySplit ProfileCache::profile_split() const {
  return profiles_.split();
}
ProfileCache::AccuracySplit ProfileCache::model_split() const {
  return models_.split();
}
ProfileCache::AccuracySplit ProfileCache::group_split() const {
  return groups_.split();
}

ProfileCache::QuarantineStats ProfileCache::quarantine_stats() const {
  return QuarantineStats{profiles_.quarantined(), models_.quarantined(),
                         groups_.quarantined()};
}

void ProfileCache::set_group_byte_limit(uint64_t bytes) {
  groups_.set_byte_limit(bytes);
}

ProfileCache::LifecycleStats ProfileCache::lifecycle_stats() const {
  LifecycleStats ls;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ls.generation = generation_;
    ls.last_compaction = last_compaction_;
  }
  ls.evicted_groups = groups_.evicted();
  const auto p = profiles_.bytes();
  const auto m = models_.bytes();
  const auto g = groups_.bytes();
  ls.profile_live_bytes = p.live;
  ls.profile_dead_bytes = p.dead;
  ls.model_live_bytes = m.live;
  ls.model_dead_bytes = m.dead;
  ls.group_live_bytes = g.live;
  ls.group_dead_bytes = g.dead;
  return ls;
}

void ProfileCache::save_store(const std::string& dir) {
  // The save doubles as the store's compaction: quarantined entries are
  // already absent, the group byte bound is applied here, and the files
  // are rewritten with this run's generation stamped.
  uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gen = last_compaction_ = generation_;
  }
  groups_.compact(gen);
  std::filesystem::create_directories(dir);
  // Each member file is replaced atomically, so a crash at any point of
  // the save leaves every file either old-and-complete or new-and-complete
  // (at worst a stray *.tmp, which loaders never read).
  common::atomic_write_file(dir + "/profiles.txt", profiles_.render(gen));
  common::atomic_write_file(dir + "/models.txt", models_.render(gen));
  common::atomic_write_file(dir + "/groups.txt", groups_.render(gen));
}

bool ProfileCache::load_store_if_exists(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return false;

  // All-or-nothing with per-entry salvage: every member file is parsed
  // into a scratch cache first, so a schema-version mismatch in the LAST
  // file still installs nothing from the first two. Corrupt entries never
  // abort the load: each is quarantined with the parser's reason, its key
  // stays absent, so the run re-measures it and the next save_store
  // writes a healed file.
  ProfileCache staged;
  std::string reports[3];
  const uint64_t loaded_gen =
      std::max({staged.profiles_.load_file(dir, &reports[0]),
                staged.models_.load_file(dir, &reports[1]),
                staged.groups_.load_file(dir, &reports[2])});
  profiles_.install(staged.profiles_);
  models_.install(staged.models_);
  groups_.install(staged.groups_);
  // The store was last written at `loaded_gen`, so this run is
  // `loaded_gen + 1`.
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation_ = std::max(generation_, loaded_gen + 1);
    last_compaction_ = std::max(last_compaction_, loaded_gen);
  }
  const char* stems[3] = {"profiles", "models", "groups"};
  for (int i = 0; i < 3; ++i) {
    if (!reports[i].empty()) write_quarantine(dir, stems[i], reports[i]);
  }
  return true;
}

size_t ProfileCache::merge_store(const std::string& dir) {
  // Stage the incoming store through the salvaging loader, so its corrupt
  // entries are quarantined (to the incoming store's own quarantine/)
  // exactly as a direct load would, then union the survivors.
  ProfileCache incoming;
  if (!incoming.load_store_if_exists(dir)) return 0;
  const uint64_t gen = generation();
  std::string report;
  const size_t conflicts =
      profiles_.merge(incoming.profiles_, gen, dir, &report) +
      models_.merge(incoming.models_, gen, dir, &report) +
      groups_.merge(incoming.groups_, gen, dir, &report);
  if (!report.empty()) write_quarantine(dir, "merge", report);
  return conflicts;
}

}  // namespace gpumas::profile
