#include "profile/profile_cache.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <set>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/text.h"
#include "sim/config_io.h"
#include "sim/gpu.h"

namespace gpumas::profile {

namespace {

// Defined with the store scanner below; merge_store names quarantine
// reports with it too.
std::string hex16(uint64_t v);

std::string render_double(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

// The on-disk rendering of an artifact's simulation fidelity. Loaders
// accept exactly these two strings; anything else marks a mangled store.
const char* accuracy_name(sim::SimMode m) {
  return m == sim::SimMode::kSampled ? "sampled" : "detailed";
}

bool accuracy_from_name(const std::string& v, sim::SimMode* out) {
  if (v == "detailed") {
    *out = sim::SimMode::kDetailed;
    return true;
  }
  if (v == "sampled") {
    *out = sim::SimMode::kSampled;
    return true;
  }
  return false;
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
  std::promise<AppProfile> promise;
  std::shared_future<AppProfile> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    profile_touched_[key] = true;
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      if (scalability) ++scalability_hits_;
      future = it->second;
    } else {
      ++misses_;
      if (scalability) ++scalability_misses_;
      future = promise.get_future().share();
      entries_.emplace(key, future);
      owner = true;
    }
  }
  // The inserting thread runs the simulation outside the lock, so distinct
  // keys profile concurrently while same-key waiters block on the future.
  if (owner) {
    try {
      promise.set_value(Profiler(cfg).profile(kp, num_sms));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int n : sm_counts) {
      Key key = base;
      key.sms = n;
      if (entries_.count(key) == 0) ++missing;
    }
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
  std::promise<std::shared_ptr<const interference::SlowdownModel>> promise;
  std::shared_future<std::shared_ptr<const interference::SlowdownModel>>
      future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    model_touched_[key] = true;
    const auto it = models_.find(key);
    if (it != models_.end()) {
      ++model_hits_;
      future = it->second;
    } else {
      ++model_misses_;
      future = promise.get_future().share();
      models_.emplace(key, future);
      owner = true;
    }
  }
  // As with solo profiles, the inserting thread measures outside the lock;
  // same-key waiters block on the future instead of duplicating the ~N^2
  // co-run simulations.
  if (owner) {
    try {
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
      promise.set_value(std::move(measured));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

GroupRunRecord ProfileCache::group_run(const sim::GpuConfig& cfg,
                                       const CanonicalGroup& canon,
                                       const GroupSimulator& simulate) {
  const GroupKey key{canon.config_fp, canon.group_fp, canon.accuracy};
  std::promise<GroupRunRecord> promise;
  std::shared_future<GroupRunRecord> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // LRU stamp: a hit refreshes the entry's generation, so warm entries
    // outlive the eviction of long-unused ones.
    group_meta_[key] = EntryMeta{generation_, true};
    const auto it = groups_.find(key);
    if (it != groups_.end()) {
      ++group_hits_;
      future = it->second;
    } else {
      ++group_misses_;
      future = promise.get_future().share();
      groups_.emplace(key, future);
      owner = true;
    }
  }
  // The inserting thread simulates outside the lock; same-group waiters
  // (two policies picking the same split, the two ordered pairs of a
  // matrix cell, a warm re-run) block on the shared record instead.
  if (owner) {
    try {
      promise.set_value(simulate
                            ? simulate(cfg, canon.kernels, canon.partition)
                            : simulate_static_group(cfg, canon.kernels,
                                                    canon.partition));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

void ProfileCache::insert_loaded_group(const GroupKey& key,
                                       GroupRunRecord record, uint64_t gen) {
  std::promise<GroupRunRecord> promise;
  promise.set_value(std::move(record));
  std::lock_guard<std::mutex> lock(mu_);
  if (groups_.emplace(key, promise.get_future().share()).second) {
    group_meta_.emplace(key, EntryMeta{gen, false});  // loaded, not touched
  }
}

void ProfileCache::insert_loaded_model(const ModelKey& key,
                                       interference::SlowdownModel model) {
  std::promise<std::shared_ptr<const interference::SlowdownModel>> promise;
  promise.set_value(
      std::make_shared<interference::SlowdownModel>(std::move(model)));
  std::lock_guard<std::mutex> lock(mu_);
  models_.emplace(key, promise.get_future().share());  // keep existing entry
}

uint64_t ProfileCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ProfileCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t ProfileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t ProfileCache::scalability_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scalability_hits_;
}

uint64_t ProfileCache::scalability_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scalability_misses_;
}

uint64_t ProfileCache::group_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_hits_;
}

uint64_t ProfileCache::group_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_misses_;
}

size_t ProfileCache::group_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return groups_.size();
}

uint64_t ProfileCache::model_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_hits_;
}

uint64_t ProfileCache::model_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_misses_;
}

size_t ProfileCache::model_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

ProfileCache::AccuracySplit ProfileCache::profile_split() const {
  AccuracySplit split;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, future] : entries_) {
    (key.accuracy == sim::SimMode::kSampled ? split.sampled : split.detailed)++;
  }
  return split;
}

ProfileCache::AccuracySplit ProfileCache::model_split() const {
  AccuracySplit split;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, future] : models_) {
    (key.accuracy == sim::SimMode::kSampled ? split.sampled : split.detailed)++;
  }
  return split;
}

ProfileCache::AccuracySplit ProfileCache::group_split() const {
  AccuracySplit split;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, future] : groups_) {
    (key.accuracy == sim::SimMode::kSampled ? split.sampled : split.detailed)++;
  }
  return split;
}

void ProfileCache::insert_loaded(const Key& key, const AppProfile& p) {
  std::promise<AppProfile> promise;
  promise.set_value(p);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(key, promise.get_future().share());  // keep existing entry
}

std::string ProfileCache::render_profile_entry(const Key& key,
                                               const AppProfile& p) {
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

void ProfileCache::save(const std::string& path) const {
  std::ostringstream os;
  os << "# gpumas profile cache v2\n";
  std::map<Key, std::shared_future<AppProfile>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = entries_;
  }
  for (const auto& [key, future] : snapshot) {
    // detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;  // still being measured by another thread
    }
    AppProfile p;
    try {
      p = future.get();
    } catch (const std::exception&) {
      continue;  // failed measurements are not persisted
    }
    os << render_profile_entry(key, p);
  }
  // Durable replace: a crash mid-save must leave the previous file, never
  // a truncated one.
  common::atomic_write_file(path, os.str());
}

void ProfileCache::load(const std::string& path) {
  std::ifstream in(path);
  GPUMAS_CHECK_MSG(in.good(), "cannot open profile cache '" << path << "'");
  load_profiles(in);
}

void ProfileCache::load_profiles(std::istream& in) {
  // save() writes 13 keys per entry (config, kernel, sms, accuracy, name
  // and the 8 measurement fields); an entry must carry all of them,
  // otherwise the file was truncated or hand-mangled and loading it would
  // serve silently zeroed measurements.
  constexpr size_t kNumRequired = 13;

  Key key;
  AppProfile p;
  bool in_entry = false;
  int entry_line = 0;
  std::set<std::string> seen;
  const auto flush = [&] {
    if (in_entry) {
      GPUMAS_CHECK_MSG(seen.size() == kNumRequired,
                       "profile cache entry at line "
                           << entry_line << " is incomplete ("
                           << seen.size() << "/" << kNumRequired
                           << " fields)");
      insert_loaded(key, p);
    }
    key = Key{};
    p = AppProfile{};
    seen.clear();
    in_entry = false;
  };

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = trim(line);
    // Unlike config_io, '#' only opens a comment at the start of a line:
    // kernel names are free-form and may legitimately contain '#'.
    if (line.empty() || line.front() == '#') continue;
    if (line == "[profile]") {
      flush();
      in_entry = true;
      entry_line = line_no;
      continue;
    }
    const size_t eq = line.find('=');
    GPUMAS_CHECK_MSG(eq != std::string::npos && in_entry,
                     "profile cache line " << line_no << ": malformed");
    const std::string k = trim(line.substr(0, eq));
    const std::string v = trim(line.substr(eq + 1));
    GPUMAS_CHECK_MSG(!v.empty() || k == "name",
                     "profile cache line " << line_no << ": empty value");
    std::istringstream vs(v);
    bool ok = true;
    if (k == "config") ok = static_cast<bool>(vs >> key.config_fp);
    else if (k == "kernel") ok = static_cast<bool>(vs >> key.kernel_fp);
    else if (k == "sms") ok = static_cast<bool>(vs >> key.sms);
    else if (k == "accuracy") ok = accuracy_from_name(v, &key.accuracy);
    else if (k == "name") p.name = v;
    else if (k == "mb_gbps") ok = static_cast<bool>(vs >> p.mb_gbps);
    else if (k == "l2l1_gbps") ok = static_cast<bool>(vs >> p.l2l1_gbps);
    else if (k == "ipc") ok = static_cast<bool>(vs >> p.ipc);
    else if (k == "r") ok = static_cast<bool>(vs >> p.r);
    else if (k == "l1_hit_rate") ok = static_cast<bool>(vs >> p.l1_hit_rate);
    else if (k == "l2_hit_rate") ok = static_cast<bool>(vs >> p.l2_hit_rate);
    else if (k == "solo_cycles") ok = static_cast<bool>(vs >> p.solo_cycles);
    else if (k == "thread_insns") ok = static_cast<bool>(vs >> p.thread_insns);
    else {
      GPUMAS_CHECK_MSG(false, "profile cache line " << line_no
                                                    << ": unknown key '" << k
                                                    << "'");
    }
    GPUMAS_CHECK_MSG(ok, "profile cache line " << line_no
                                               << ": cannot parse value '" << v
                                               << "'");
    seen.insert(k);
  }
  flush();
}

bool ProfileCache::load_if_exists(const std::string& path) {
  // Open once and parse that stream: probing with a throwaway ifstream and
  // reopening raced with a concurrent writer replacing the file between
  // the two opens.
  std::ifstream in(path);
  if (!in.good()) return false;
  load_profiles(in);
  return true;
}

void ProfileCache::save_models(const std::string& path) const {
  std::ostringstream os;
  os << "# gpumas model cache v2\n";
  std::map<ModelKey,
           std::shared_future<std::shared_ptr<const interference::SlowdownModel>>>
      snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = models_;
  }
  for (const auto& [key, future] : snapshot) {
    // detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;  // still being measured by another thread
    }
    std::shared_ptr<const interference::SlowdownModel> model;
    try {
      model = future.get();
    } catch (const std::exception&) {
      continue;  // failed measurements are not persisted
    }
    os << render_model_entry(key, *model);
  }
  common::atomic_write_file(path, os.str());
}

std::string ProfileCache::render_model_entry(
    const ModelKey& key, const interference::SlowdownModel& m) {
  std::ostringstream os;
  os << "[model]\n"
     << "config = " << key.config_fp << "\n"
     << "suite = " << key.suite_fp << "\n"
     << "samples_per_cell = " << key.samples << "\n"
     << "triples = " << (key.triples ? 1 : 0) << "\n"
     << "accuracy = " << accuracy_name(key.accuracy) << "\n"
     << m.to_string();
  return os.str();
}

void ProfileCache::load_models(const std::string& path) {
  std::ifstream in(path);
  GPUMAS_CHECK_MSG(in.good(), "cannot open model cache '" << path << "'");
  load_models(in);
}

void ProfileCache::load_models(std::istream& in) {
  ModelKey key;
  std::set<std::string> seen_keys;
  std::string model_text;  // non-key lines, parsed by SlowdownModel
  bool in_entry = false;
  int entry_line = 0;
  const auto flush = [&] {
    if (in_entry) {
      GPUMAS_CHECK_MSG(seen_keys.size() == 5,
                       "model cache entry at line "
                           << entry_line
                           << " is missing its config/suite/samples_per_cell/"
                              "triples/accuracy key");
      // from_string validates the model body (all cells, multi_count).
      insert_loaded_model(
          key, interference::SlowdownModel::from_string(model_text));
    }
    key = ModelKey{};
    seen_keys.clear();
    model_text.clear();
    in_entry = false;
  };

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;
    if (line == "[model]") {
      flush();
      in_entry = true;
      entry_line = line_no;
      continue;
    }
    const size_t eq = line.find('=');
    GPUMAS_CHECK_MSG(eq != std::string::npos && in_entry,
                     "model cache line " << line_no << ": malformed");
    const std::string k = trim(line.substr(0, eq));
    const std::string v = trim(line.substr(eq + 1));
    GPUMAS_CHECK_MSG(!v.empty(),
                     "model cache line " << line_no << ": empty value");
    std::istringstream vs(v);
    bool ok = true;
    if (k == "config") {
      ok = static_cast<bool>(vs >> key.config_fp);
    } else if (k == "suite") {
      ok = static_cast<bool>(vs >> key.suite_fp);
    } else if (k == "samples_per_cell") {
      ok = static_cast<bool>(vs >> key.samples);
    } else if (k == "triples") {
      int t = 0;
      ok = static_cast<bool>(vs >> t) && (t == 0 || t == 1);
      key.triples = t == 1;
    } else if (k == "accuracy") {
      ok = accuracy_from_name(v, &key.accuracy);
    } else {
      // A model-body line; SlowdownModel::from_string owns its validation.
      model_text += line;
      model_text += "\n";
      continue;
    }
    GPUMAS_CHECK_MSG(ok, "model cache line " << line_no
                                             << ": cannot parse value '" << v
                                             << "'");
    seen_keys.insert(k);
  }
  flush();
}

bool ProfileCache::load_models_if_exists(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return false;
  load_models(in);
  return true;
}

namespace {

// Strictly-digits unsigned parsing: istream extraction into an unsigned
// type happily wraps "-5" to a huge value and silently truncates "10abc"
// to 10 — a hand-mangled store must reject both (extraction still guards
// against overflow).
bool is_unsigned_decimal(const std::string& v) {
  if (v.empty()) return false;
  for (const char c : v) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::vector<uint64_t> parse_u64_list(const std::string& v, size_t expected,
                                     const char* what, int line_no) {
  const auto parts = split_commas(v);
  GPUMAS_CHECK_MSG(parts.size() == expected,
                   "group cache entry at line "
                       << line_no << ": " << what << " has " << parts.size()
                       << " elements, expected " << expected);
  std::vector<uint64_t> out;
  out.reserve(parts.size());
  for (const auto& p : parts) {
    std::istringstream is(p);
    uint64_t value = 0;
    GPUMAS_CHECK_MSG(is_unsigned_decimal(p) && static_cast<bool>(is >> value),
                     "group cache entry at line " << line_no << ": bad "
                                                  << what << " element '" << p
                                                  << "'");
    out.push_back(value);
  }
  return out;
}

}  // namespace

std::string ProfileCache::render_group_entry(const GroupKey& key,
                                             const GroupRunRecord& record,
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
  for (size_t i = 0; i < record.names.size(); ++i) {
    if (i) names += ',';
    names += percent_escape(record.names[i]);
  }
  std::ostringstream os;
  os << "[group]\n"
     << "config = " << key.config_fp << "\n"
     << "group = " << key.group_fp << "\n"
     << "accuracy = " << accuracy_name(key.accuracy) << "\n"
     << "apps = " << record.names.size() << "\n"
     << "names = " << names << "\n"
     << "app_cycles = " << join(record.app_cycles) << "\n"
     << "app_insns = " << join(record.app_thread_insns) << "\n"
     << "cycles = " << record.group_cycles << "\n"
     << "ticked_cycles = " << record.ticked_cycles << "\n"
     << "skipped_cycles = " << record.skipped_cycles << "\n"
     << "sample_windows = " << record.sample_windows << "\n"
     << "smra_adjustments = " << record.smra_adjustments << "\n"
     << "smra_reverts = " << record.smra_reverts << "\n"
     << "gen = " << gen << "\n";
  return os.str();
}

void ProfileCache::save_groups(const std::string& path) const {
  std::ostringstream os;
  std::map<GroupKey, std::shared_future<GroupRunRecord>> snapshot;
  std::map<GroupKey, EntryMeta> meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = groups_;
    meta = group_meta_;
    os << "# gpumas group-run cache v2\n"
       << "# generation = " << generation_ << "\n";
  }
  for (const auto& [key, future] : snapshot) {
    // detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;  // still being simulated by another thread
    }
    GroupRunRecord record;
    try {
      record = future.get();
    } catch (const std::exception&) {
      continue;  // failed simulations are not persisted
    }
    const auto m = meta.find(key);
    os << render_group_entry(key, record,
                             m == meta.end() ? 0 : m->second.gen);
  }
  common::atomic_write_file(path, os.str());
}

void ProfileCache::load_groups(const std::string& path) {
  std::ifstream in(path);
  GPUMAS_CHECK_MSG(in.good(), "cannot open group cache '" << path << "'");
  load_groups(in);
}

void ProfileCache::load_groups(std::istream& in) {
  // save_groups writes 13 required keys per entry plus the lifecycle
  // `gen` stamp (optional on read, so pre-lifecycle stores still load —
  // their entries default to generation 0, the oldest eviction
  // candidates); all required keys must be present, the three lists must
  // have exactly `apps` elements, and every value must parse — a
  // truncated or hand-mangled store must never serve zeroed co-runs.
  constexpr size_t kNumRequired = 13;

  GroupKey key;
  GroupRunRecord record;
  size_t apps = 0;
  uint64_t gen = 0;
  std::string names_v, cycles_v, insns_v;
  std::set<std::string> seen;
  bool in_entry = false;
  int entry_line = 0;
  const auto flush = [&] {
    if (in_entry) {
      const size_t required = seen.size() - seen.count("gen");
      GPUMAS_CHECK_MSG(required == kNumRequired,
                       "group cache entry at line "
                           << entry_line << " is incomplete (" << required
                           << "/" << kNumRequired << " fields)");
      GPUMAS_CHECK_MSG(apps >= 1, "group cache entry at line "
                                      << entry_line << ": apps must be >= 1");
      for (const auto& name : split_commas(names_v)) {
        // percent_unescape throws std::logic_error on a malformed escape.
        record.names.push_back(percent_unescape(name));
      }
      GPUMAS_CHECK_MSG(record.names.size() == apps,
                       "group cache entry at line "
                           << entry_line << ": names has "
                           << record.names.size() << " elements, expected "
                           << apps);
      record.app_cycles =
          parse_u64_list(cycles_v, apps, "app_cycles", entry_line);
      record.app_thread_insns =
          parse_u64_list(insns_v, apps, "app_insns", entry_line);
      insert_loaded_group(key, std::move(record), gen);
    }
    key = GroupKey{};
    record = GroupRunRecord{};
    apps = 0;
    gen = 0;
    names_v.clear();
    cycles_v.clear();
    insns_v.clear();
    seen.clear();
    in_entry = false;
  };

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;
    if (line == "[group]") {
      flush();
      in_entry = true;
      entry_line = line_no;
      continue;
    }
    const size_t eq = line.find('=');
    GPUMAS_CHECK_MSG(eq != std::string::npos && in_entry,
                     "group cache line " << line_no << ": malformed");
    const std::string k = trim(line.substr(0, eq));
    const std::string v = trim(line.substr(eq + 1));
    // `names` may legitimately render empty: a single member whose kernel
    // name is the empty string escapes to "".
    GPUMAS_CHECK_MSG(!v.empty() || k == "names",
                     "group cache line " << line_no << ": empty value");
    std::istringstream vs(v);
    // Every numeric field of a group entry is unsigned.
    const bool unsgn = is_unsigned_decimal(v);
    bool ok = true;
    if (k == "config") ok = unsgn && static_cast<bool>(vs >> key.config_fp);
    else if (k == "group") ok = unsgn && static_cast<bool>(vs >> key.group_fp);
    else if (k == "accuracy") ok = accuracy_from_name(v, &key.accuracy);
    else if (k == "apps") ok = unsgn && static_cast<bool>(vs >> apps);
    else if (k == "names") names_v = v;
    else if (k == "app_cycles") cycles_v = v;
    else if (k == "app_insns") insns_v = v;
    else if (k == "cycles")
      ok = unsgn && static_cast<bool>(vs >> record.group_cycles);
    else if (k == "ticked_cycles")
      ok = unsgn && static_cast<bool>(vs >> record.ticked_cycles);
    else if (k == "skipped_cycles")
      ok = unsgn && static_cast<bool>(vs >> record.skipped_cycles);
    else if (k == "sample_windows")
      ok = unsgn && static_cast<bool>(vs >> record.sample_windows);
    else if (k == "smra_adjustments")
      ok = unsgn && static_cast<bool>(vs >> record.smra_adjustments);
    else if (k == "smra_reverts")
      ok = unsgn && static_cast<bool>(vs >> record.smra_reverts);
    else if (k == "gen")
      ok = unsgn && static_cast<bool>(vs >> gen);
    else {
      GPUMAS_CHECK_MSG(false, "group cache line " << line_no
                                                  << ": unknown key '" << k
                                                  << "'");
    }
    GPUMAS_CHECK_MSG(ok, "group cache line " << line_no
                                             << ": cannot parse value '" << v
                                             << "'");
    GPUMAS_CHECK_MSG(seen.insert(k).second,
                     "group cache line " << line_no << ": duplicate key '"
                                         << k << "'");
  }
  flush();
}

bool ProfileCache::load_groups_if_exists(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return false;
  load_groups(in);
  return true;
}

ProfileCache::QuarantineStats ProfileCache::quarantine_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_;
}

void ProfileCache::save_store(const std::string& dir) {
  // The save doubles as the store's compaction: quarantined entries are
  // already absent from the maps, the group byte bound is applied here,
  // and the files are rewritten with this run's generation stamped.
  compact_groups();
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_compaction_ = generation_;
  }
  std::filesystem::create_directories(dir);
  // Each member file is replaced atomically, so a crash at any point of
  // the save leaves every file either old-and-complete or new-and-complete
  // (at worst a stray *.tmp, which loaders never read).
  save(dir + "/profiles.txt");
  save_models(dir + "/models.txt");
  save_groups(dir + "/groups.txt");
}

void ProfileCache::set_group_byte_limit(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  group_byte_limit_ = bytes;
}

void ProfileCache::compact_groups() {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_byte_limit_ == 0) return;
  // Serialized size of each ready entry (in-flight or failed entries are
  // not written, so they cost no bytes), plus the header save_groups
  // writes.
  struct Candidate {
    GroupKey key;
    uint64_t gen = 0;
    size_t bytes = 0;
  };
  std::vector<Candidate> candidates;  // evictable: untouched generations
  uint64_t total = std::string("# gpumas group-run cache v2\n").size() +
                   ("# generation = " + std::to_string(generation_) + "\n")
                       .size();
  for (const auto& [key, future] : groups_) {
    // detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;
    }
    GroupRunRecord record;
    try {
      record = future.get();
    } catch (const std::exception&) {
      continue;
    }
    const auto m = group_meta_.find(key);
    const uint64_t gen = m == group_meta_.end() ? 0 : m->second.gen;
    const size_t bytes = render_group_entry(key, record, gen).size();
    total += bytes;
    // Entries touched this generation are never evicted: evicting work
    // the current run just produced or served would guarantee
    // re-simulation on the very next run.
    if (gen < generation_) candidates.push_back(Candidate{key, gen, bytes});
  }
  if (total <= group_byte_limit_) return;
  // Deterministic LRU: oldest generation first; the map's key order (the
  // iteration order above) breaks ties, so two runs of the same store
  // always evict the same entries.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.gen < b.gen;
                   });
  for (const auto& c : candidates) {
    if (total <= group_byte_limit_) break;
    groups_.erase(c.key);
    group_meta_.erase(c.key);
    total -= c.bytes;
    ++evicted_groups_;
  }
}

ProfileCache::LifecycleStats ProfileCache::lifecycle_stats() const {
  LifecycleStats ls;
  std::lock_guard<std::mutex> lock(mu_);
  ls.generation = generation_;
  ls.last_compaction = last_compaction_;
  ls.evicted_groups = evicted_groups_;
  const auto ready = [](const auto& future) {
    // detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };
  for (const auto& [key, future] : entries_) {
    if (!ready(future)) continue;
    try {
      const size_t bytes = render_profile_entry(key, future.get()).size();
      const auto t = profile_touched_.find(key);
      (t != profile_touched_.end() && t->second ? ls.profile_live_bytes
                                                : ls.profile_dead_bytes) +=
          bytes;
    } catch (const std::exception&) {
    }
  }
  for (const auto& [key, future] : models_) {
    if (!ready(future)) continue;
    try {
      const size_t bytes = render_model_entry(key, *future.get()).size();
      const auto t = model_touched_.find(key);
      (t != model_touched_.end() && t->second ? ls.model_live_bytes
                                              : ls.model_dead_bytes) += bytes;
    } catch (const std::exception&) {
    }
  }
  for (const auto& [key, future] : groups_) {
    if (!ready(future)) continue;
    try {
      const auto m = group_meta_.find(key);
      const bool touched = m != group_meta_.end() && m->second.touched;
      const uint64_t gen = m == group_meta_.end() ? 0 : m->second.gen;
      const size_t bytes =
          render_group_entry(key, future.get(), gen).size();
      (touched ? ls.group_live_bytes : ls.group_dead_bytes) += bytes;
    } catch (const std::exception&) {
    }
  }
  return ls;
}

size_t ProfileCache::merge_store(const std::string& dir) {
  // Stage the incoming store through the salvaging loader, so its corrupt
  // entries are quarantined (to the incoming store's own quarantine/)
  // exactly as a direct load would, then union the survivors.
  ProfileCache incoming;
  if (!incoming.load_store_if_exists(dir)) return 0;

  size_t conflicts = 0;
  std::string report;
  const auto conflict = [&](const char* layer, const std::string& rendering,
                            size_t QuarantineStats::*counter) {
    report += "# quarantined from store merge of " + dir + ": " + layer +
              " entry conflicts with the resident store under the same "
              "content-addressed key — one of the two stores is corrupt\n" +
              rendering;
    ++(quarantine_.*counter);
    ++conflicts;
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    // All incoming futures are ready with values by construction (the
    // loader only installs parsed entries). Resident in-flight entries
    // are skipped: they cannot be compared yet and must not be replaced.
    const auto resident_ready = [](const auto& future) {
      // detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
      return future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    };
    for (auto& [k, f] : incoming.entries_) {
      const auto it = entries_.find(k);
      if (it == entries_.end()) {
        entries_.emplace(k, std::move(f));
        continue;
      }
      if (!resident_ready(it->second)) continue;
      const std::string theirs = render_profile_entry(k, f.get());
      if (theirs != render_profile_entry(k, it->second.get())) {
        conflict("profile", theirs, &QuarantineStats::profiles);
      }
    }
    for (auto& [k, f] : incoming.models_) {
      const auto it = models_.find(k);
      if (it == models_.end()) {
        models_.emplace(k, std::move(f));
        continue;
      }
      if (!resident_ready(it->second)) continue;
      const std::string theirs = render_model_entry(k, *f.get());
      if (theirs != render_model_entry(k, *it->second.get())) {
        conflict("model", theirs, &QuarantineStats::models);
      }
    }
    for (auto& [k, f] : incoming.groups_) {
      const auto im = incoming.group_meta_.find(k);
      const uint64_t their_gen =
          im == incoming.group_meta_.end() ? 0 : im->second.gen;
      const auto it = groups_.find(k);
      if (it == groups_.end()) {
        groups_.emplace(k, std::move(f));
        // An entry a worker measured this generation counts as touched
        // here too: eviction must never drop work the run just produced.
        group_meta_[k] = EntryMeta{their_gen, their_gen >= generation_};
        continue;
      }
      if (!resident_ready(it->second)) continue;
      // The rendering comparison excludes the gen stamp (both rendered at
      // gen 0): two stores that agree on the measurement but disagree on
      // when it was last used are both healthy.
      const std::string theirs = render_group_entry(k, f.get(), 0);
      if (theirs != render_group_entry(k, it->second.get(), 0)) {
        conflict("group", theirs, &QuarantineStats::groups);
        continue;
      }
      // Identical content: keep the fresher LRU stamp.
      auto& meta = group_meta_[k];
      meta.gen = std::max(meta.gen, their_gen);
      meta.touched = meta.touched || their_gen >= generation_;
    }
    // Parse-time quarantines of the incoming store surface in this
    // cache's stats too — the merged view should account for them.
    const QuarantineStats in_q = incoming.quarantine_;
    quarantine_.profiles += in_q.profiles;
    quarantine_.models += in_q.models;
    quarantine_.groups += in_q.groups;
  }

  if (!report.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir + "/quarantine", ec);
    try {
      common::atomic_write_file(
          dir + "/quarantine/merge-" + hex16(fnv1a(report)) + ".txt",
          report);
    } catch (const std::exception&) {
      // Best-effort bookkeeping, like load-time quarantine.
    }
  }
  return conflicts;
}

namespace {

// The schema revision the savers stamp into each member file's header
// comment ("# gpumas <layer> cache v2").
constexpr int kStoreFormatVersion = 2;

// One store-file entry: the lines from its [section] header to the next,
// plus the 1-based line number of the header (for quarantine reports).
struct StoreEntry {
  int line = 0;
  std::vector<std::string> lines;
};

struct StoreScan {
  std::vector<StoreEntry> entries;
  std::vector<StoreEntry> stray;  // non-comment lines outside any entry
  uint64_t generation = 0;  // from a `# generation = N` preamble comment
};

// Whole-file rejection is reserved for schema mismatches: a file whose
// header names a version this build does not write must not be
// entry-salvaged — every entry could be systematically misread. Files
// without a recognizable header (hand-written fixtures) pass.
void check_store_version(const std::string& comment, const char* what) {
  if (comment.rfind("# gpumas ", 0) != 0) return;
  const size_t vpos = comment.rfind(" v");
  if (vpos == std::string::npos) return;
  const std::string num = comment.substr(vpos + 2);
  if (!is_unsigned_decimal(num)) return;
  std::istringstream is(num);
  int version = 0;
  is >> version;
  GPUMAS_CHECK_MSG(version == kStoreFormatVersion,
                   what << ": schema version v" << version
                        << " is not the v" << kStoreFormatVersion
                        << " this build reads — whole file rejected");
}

// Splits one artifact file into its [section] entries, validating the
// version header first. Trimmed lines; comments and blanks dropped.
StoreScan scan_store_entries(std::istream& in, const std::string& section,
                             const char* what) {
  StoreScan scan;
  std::string line;
  int line_no = 0;
  bool preamble = true;  // still before the first non-comment line
  bool open = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t.front() == '#') {
      if (preamble) {
        // Preamble comments carry the file's metadata: the schema-version
        // header plus the lifecycle generation stamp. Both checks ignore
        // comments of any other shape.
        check_store_version(t, what);
        const std::string kGenPrefix = "# generation = ";
        if (t.rfind(kGenPrefix, 0) == 0) {
          const std::string num = t.substr(kGenPrefix.size());
          if (is_unsigned_decimal(num)) {
            std::istringstream is(num);
            is >> scan.generation;
          }
        }
      }
      continue;
    }
    preamble = false;
    if (t == section) {
      scan.entries.push_back(StoreEntry{line_no, {t}});
      open = true;
    } else if (open) {
      scan.entries.back().lines.push_back(t);
    } else {
      scan.stray.push_back(StoreEntry{line_no, {t}});
    }
  }
  return scan;
}

std::string hex16(uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

}  // namespace

bool ProfileCache::load_store_if_exists(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return false;

  // All-or-nothing with per-entry salvage: every member file is parsed
  // into a scratch cache first, so a schema-version mismatch (or any other
  // whole-file rejection) in the LAST file still installs nothing from the
  // first two. Individual corrupt entries never abort the load — each is
  // re-parsed in isolation, and the ones that fail are quarantined with
  // the parser's reason; their keys stay absent, so the run re-measures
  // them and the next save_store writes a healed file.
  ProfileCache staged;
  QuarantineStats counts;
  uint64_t loaded_gen = 0;
  struct QuarantineFile {
    std::string path;
    std::string report;
  };
  std::vector<QuarantineFile> quarantine_files;

  const auto stage_member = [&](const char* name, const char* section,
                                void (ProfileCache::*loader)(std::istream&),
                                size_t QuarantineStats::*counter) {
    std::ifstream in(dir + "/" + name);
    if (!in.good()) return;  // absent member files are fine
    StoreScan scan = scan_store_entries(in, section, name);
    loaded_gen = std::max(loaded_gen, scan.generation);
    std::string report;
    const auto quarantine = [&](const StoreEntry& e,
                                const std::string& reason) {
      report += "# quarantined from " + std::string(name) + " (line " +
                std::to_string(e.line) + "): " + reason + "\n";
      for (const auto& l : e.lines) report += l + "\n";
      ++(counts.*counter);
    };
    for (const auto& e : scan.entries) {
      std::string text;
      for (const auto& l : e.lines) text += l + "\n";
      std::istringstream entry_in(text);
      try {
        (staged.*loader)(entry_in);
      } catch (const std::exception& ex) {
        quarantine(e, ex.what());
      }
    }
    for (const auto& s : scan.stray) {
      quarantine(s, std::string("line outside any ") + section + " entry");
    }
    if (!report.empty()) {
      quarantine_files.push_back(QuarantineFile{
          dir + "/quarantine/" +
              std::string(name).substr(0, std::string(name).find('.')) + "-" +
              hex16(fnv1a(report)) + ".txt",
          std::move(report)});
    }
  };

  stage_member("profiles.txt", "[profile]", &ProfileCache::load_profiles,
               &QuarantineStats::profiles);
  stage_member("models.txt", "[model]", &ProfileCache::load_models,
               &QuarantineStats::models);
  stage_member("groups.txt", "[group]", &ProfileCache::load_groups,
               &QuarantineStats::groups);

  // Every file parsed — install the staged entries (all futures are ready
  // by construction), adopt the quarantine counts, and advance the
  // lifecycle generation past the loaded store's stamp: the store was
  // last written at `loaded_gen`, so this run is `loaded_gen + 1`.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [k, f] : staged.entries_) entries_.emplace(k, std::move(f));
    for (auto& [k, f] : staged.models_) models_.emplace(k, std::move(f));
    for (auto& [k, f] : staged.groups_) {
      if (groups_.emplace(k, std::move(f)).second) {
        const auto m = staged.group_meta_.find(k);
        group_meta_.emplace(
            k, m == staged.group_meta_.end() ? EntryMeta{} : m->second);
      }
    }
    quarantine_.profiles += counts.profiles;
    quarantine_.models += counts.models;
    quarantine_.groups += counts.groups;
    generation_ = std::max(generation_, loaded_gen + 1);
    last_compaction_ = std::max(last_compaction_, loaded_gen);
  }

  if (!quarantine_files.empty()) {
    // The quarantine file name is content-addressed, so re-loading the
    // same corrupt store is idempotent instead of accreting copies.
    std::filesystem::create_directories(dir + "/quarantine", ec);
    for (const auto& q : quarantine_files) {
      try {
        common::atomic_write_file(q.path, q.report);
      } catch (const std::exception&) {
        // Quarantine is best-effort bookkeeping: failing to record the
        // corpse must not fail the load that already salvaged the rest.
      }
    }
  }
  return true;
}

}  // namespace gpumas::profile
