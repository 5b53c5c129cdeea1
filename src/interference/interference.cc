#include "interference/interference.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/parallel.h"
#include "common/text.h"
#include "profile/profile_cache.h"

namespace gpumas::interference {

using profile::AppClass;
using profile::AppProfile;

CoRunResult co_run(const sim::GpuConfig& cfg,
                   const std::vector<sim::KernelParams>& kernels,
                   const std::vector<uint64_t>& solo_cycles,
                   const std::vector<int>& partition,
                   profile::ProfileCache* cache) {
  GPUMAS_CHECK(!kernels.empty());
  GPUMAS_CHECK(solo_cycles.size() == kernels.size());
  GPUMAS_CHECK(partition.empty() || partition.size() == kernels.size());

  const profile::CanonicalGroup canon =
      profile::canonicalize_group(cfg, kernels, partition, "static");
  const profile::GroupRunRecord record =
      cache != nullptr
          ? cache->group_run(cfg, canon)
          : profile::simulate_static_group(cfg, canon.kernels,
                                           canon.partition);

  // Map the canonical-order record back to the caller's member order and
  // derive the report-time quantities (slowdowns, Eq 1.1 throughput) from
  // the raw cycles/instructions.
  CoRunResult result;
  result.group_cycles = record.group_cycles;
  result.apps.resize(kernels.size());
  for (size_t c = 0; c < kernels.size(); ++c) {
    const size_t i = canon.perm[c];
    CoRunAppResult& app = result.apps[i];
    app.name = kernels[i].name;
    app.solo_cycles = solo_cycles[i];
    app.co_cycles = record.app_cycles[c];
    app.slowdown = solo_cycles[i] == 0
                       ? 0.0
                       : static_cast<double>(app.co_cycles) /
                             static_cast<double>(solo_cycles[i]);
    result.total_thread_insns += record.app_thread_insns[c];
  }
  result.device_throughput =
      result.group_cycles == 0
          ? 0.0
          : static_cast<double>(result.total_thread_insns) /
                static_cast<double>(result.group_cycles);
  return result;
}

SlowdownModel SlowdownModel::measure_pairwise(
    const sim::GpuConfig& cfg, const std::vector<sim::KernelParams>& kernels,
    const std::vector<AppProfile>& profiles, int max_samples_per_cell,
    profile::ProfileCache* cache, int threads) {
  GPUMAS_CHECK(kernels.size() == profiles.size());
  SlowdownModel model;
  double sum[profile::kNumClasses][profile::kNumClasses] = {};
  int count[profile::kNumClasses][profile::kNumClasses] = {};

  // Plan first, simulate second, accumulate third. The plan enumerates the
  // ordered pairs in the paper's (i-major) order — which also decides which
  // pairs a sampling cap keeps — and dedupes them onto unordered
  // simulations (group completion is order-invariant: co_run canonicalizes
  // member order). Accumulation then replays the plan serially, so the
  // matrix is byte-identical whatever `threads` is.
  struct Cell {
    size_t i = 0, j = 0;  // ordered pair: app i's slowdown next to app j
    size_t sim = 0;       // index into sims/results
  };
  std::vector<Cell> cells;
  std::vector<std::pair<size_t, size_t>> sims;  // unordered (min, max) pairs
  std::map<std::pair<size_t, size_t>, size_t> sim_index;
  for (size_t i = 0; i < kernels.size(); ++i) {
    for (size_t j = 0; j < kernels.size(); ++j) {
      if (i == j) continue;
      const size_t mi = idx(profiles[i].cls);
      const size_t mj = idx(profiles[j].cls);
      if (max_samples_per_cell > 0 &&
          count[mi][mj] >= max_samples_per_cell) {
        continue;
      }
      count[mi][mj]++;
      const auto key = std::minmax(i, j);
      const auto [it, inserted] = sim_index.emplace(key, sims.size());
      if (inserted) sims.push_back(key);
      cells.push_back(Cell{i, j, it->second});
    }
  }

  std::vector<uint64_t> group_cycles(sims.size(), 0);
  parallel_for(threads, sims.size(), [&](size_t s) {
    const auto [i, j] = sims[s];
    group_cycles[s] =
        co_run(cfg, {kernels[i], kernels[j]},
               {profiles[i].solo_cycles, profiles[j].solo_cycles}, {}, cache)
            .group_cycles;
  });

  for (const Cell& cell : cells) {
    // Slowdown "due to co-execution": the group occupies the device until
    // its last member finishes, so the effective completion of every
    // member is the group completion (see DESIGN.md). This is what makes
    // Eq 3.4's weight of a pattern proportional to its throughput
    // efficiency.
    sum[idx(profiles[cell.i].cls)][idx(profiles[cell.j].cls)] +=
        static_cast<double>(group_cycles[cell.sim]) /
        static_cast<double>(profiles[cell.i].solo_cycles);
  }

  for (int a = 0; a < profile::kNumClasses; ++a) {
    for (int b = 0; b < profile::kNumClasses; ++b) {
      // Cells with no samples (a class absent from the suite) default to a
      // neutral halved-device slowdown of 2.0.
      model.pair_[a][b] = count[a][b] > 0 ? sum[a][b] / count[a][b] : 2.0;
      model.samples_[a][b] = count[a][b];
    }
  }
  return model;
}

double SlowdownModel::pair_slowdown(AppClass me, AppClass other) const {
  return pair_[idx(me)][idx(other)];
}

int SlowdownModel::pair_samples(AppClass me, AppClass other) const {
  return samples_[idx(me)][idx(other)];
}

void SlowdownModel::set_pair_slowdown(AppClass me, AppClass other, double s) {
  GPUMAS_CHECK(s > 0.0);
  pair_[idx(me)][idx(other)] = s;
  samples_[idx(me)][idx(other)] = 1;
}

double SlowdownModel::slowdown(AppClass me,
                               const std::vector<AppClass>& others) const {
  GPUMAS_CHECK(!others.empty());
  if (others.size() == 1) return pair_slowdown(me, others[0]);

  std::vector<int> key;
  key.reserve(others.size());
  for (AppClass c : others) key.push_back(static_cast<int>(c));
  std::sort(key.begin(), key.end());
  const auto it = multi_.find({static_cast<int>(me), key});
  if (it != multi_.end()) return it->second;

  // Additive composition of pairwise interference. It underestimates the
  // extra pressure of the smaller SM share, but preserves the ordering the
  // ILP matching needs; measure_triples() replaces it with measurements.
  double s = 1.0;
  for (AppClass c : others) s += pair_slowdown(me, c) - 1.0;
  return s;
}

int SlowdownModel::total_pair_samples() const {
  int total = 0;
  for (int a = 0; a < profile::kNumClasses; ++a) {
    for (int b = 0; b < profile::kNumClasses; ++b) total += samples_[a][b];
  }
  return total;
}

namespace {

// Splits "M_MC_A" into its '_'-separated class-name tokens.
std::vector<std::string> split_classes(const std::string& s) {
  std::vector<std::string> tokens;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find('_', start);
    if (end == std::string::npos) {
      tokens.push_back(s.substr(start));
      break;
    }
    tokens.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return tokens;
}

// Whole-value parses, like the store's field reader: "2.5x" or "-3" must
// not load as 2.5 or a wrapped count.
double parse_positive_double(const std::string& v, int line_no) {
  const auto d = text::parse_double_strict(v);
  GPUMAS_CHECK_MSG(d.has_value(), "slowdown model line "
                                      << line_no << ": cannot parse value '"
                                      << v << "'");
  GPUMAS_CHECK_MSG(*d > 0.0 && std::isfinite(*d),
                   "slowdown model line " << line_no
                                          << ": non-positive or infinite "
                                             "slowdown "
                                          << *d);
  return *d;
}

uint64_t parse_count(const std::string& v, uint64_t max, int line_no) {
  const auto n = text::parse_u64_strict(v);
  GPUMAS_CHECK_MSG(n.has_value() && *n <= max,
                   "slowdown model line " << line_no << ": bad count '" << v
                                          << "'");
  return *n;
}

}  // namespace

std::string SlowdownModel::to_string() const {
  std::ostringstream os;
  os << std::setprecision(17);
  for (int a = 0; a < profile::kNumClasses; ++a) {
    for (int b = 0; b < profile::kNumClasses; ++b) {
      os << "pair_" << profile::class_name(static_cast<AppClass>(a)) << "_"
         << profile::class_name(static_cast<AppClass>(b)) << " = "
         << pair_[a][b] << "\n";
    }
  }
  for (int a = 0; a < profile::kNumClasses; ++a) {
    for (int b = 0; b < profile::kNumClasses; ++b) {
      os << "samples_" << profile::class_name(static_cast<AppClass>(a)) << "_"
         << profile::class_name(static_cast<AppClass>(b)) << " = "
         << samples_[a][b] << "\n";
    }
  }
  os << "multi_count = " << multi_.size() << "\n";
  for (const auto& [key, slowdown] : multi_) {
    os << "multi_" << profile::class_name(static_cast<AppClass>(key.first));
    for (const int c : key.second) {
      os << "_" << profile::class_name(static_cast<AppClass>(c));
    }
    os << " = " << slowdown << "\n";
  }
  return os.str();
}

SlowdownModel SlowdownModel::from_string(const std::string& text) {
  SlowdownModel model;
  bool seen_pair[profile::kNumClasses][profile::kNumClasses] = {};
  bool seen_samples[profile::kNumClasses][profile::kNumClasses] = {};
  long multi_count = -1;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;
    const size_t eq = line.find('=');
    GPUMAS_CHECK_MSG(eq != std::string::npos,
                     "slowdown model line " << line_no << ": malformed");
    const std::string k = trim(line.substr(0, eq));
    const std::string v = trim(line.substr(eq + 1));
    GPUMAS_CHECK_MSG(!v.empty(),
                     "slowdown model line " << line_no << ": empty value");

    if (k.rfind("pair_", 0) == 0 || k.rfind("samples_", 0) == 0) {
      const bool is_pair = k.rfind("pair_", 0) == 0;
      const auto tokens =
          split_classes(k.substr(is_pair ? 5 : 8));
      GPUMAS_CHECK_MSG(tokens.size() == 2, "slowdown model line "
                                               << line_no << ": bad key '" << k
                                               << "'");
      const size_t a = idx(profile::class_from_name(tokens[0]));
      const size_t b = idx(profile::class_from_name(tokens[1]));
      if (is_pair) {
        model.pair_[a][b] = parse_positive_double(v, line_no);
        seen_pair[a][b] = true;  // duplicate keys: last one wins
      } else {
        model.samples_[a][b] =
            static_cast<int>(parse_count(v, INT_MAX, line_no));
        seen_samples[a][b] = true;
      }
    } else if (k == "multi_count") {
      multi_count = static_cast<long>(parse_count(v, LONG_MAX, line_no));
    } else if (k.rfind("multi_", 0) == 0) {
      const auto tokens = split_classes(k.substr(6));
      GPUMAS_CHECK_MSG(tokens.size() >= 3, "slowdown model line "
                                               << line_no << ": bad key '" << k
                                               << "'");
      const int me = static_cast<int>(profile::class_from_name(tokens[0]));
      std::vector<int> others;
      for (size_t i = 1; i < tokens.size(); ++i) {
        others.push_back(
            static_cast<int>(profile::class_from_name(tokens[i])));
      }
      std::sort(others.begin(), others.end());
      model.multi_[{me, others}] = parse_positive_double(v, line_no);
    } else {
      GPUMAS_CHECK_MSG(false, "slowdown model line " << line_no
                                                     << ": unknown key '" << k
                                                     << "'");
    }
  }

  for (int a = 0; a < profile::kNumClasses; ++a) {
    for (int b = 0; b < profile::kNumClasses; ++b) {
      GPUMAS_CHECK_MSG(seen_pair[a][b] && seen_samples[a][b],
                       "slowdown model is incomplete: missing cell "
                           << profile::class_name(static_cast<AppClass>(a))
                           << "/"
                           << profile::class_name(static_cast<AppClass>(b)));
    }
  }
  GPUMAS_CHECK_MSG(multi_count >= 0, "slowdown model is missing multi_count");
  GPUMAS_CHECK_MSG(static_cast<size_t>(multi_count) == model.multi_.size(),
                   "slowdown model multi_count " << multi_count
                                                 << " does not match "
                                                 << model.multi_.size()
                                                 << " multi entries");
  return model;
}

void SlowdownModel::measure_triples(
    const sim::GpuConfig& cfg, const std::vector<sim::KernelParams>& kernels,
    const std::vector<AppProfile>& profiles, profile::ProfileCache* cache,
    int threads) {
  GPUMAS_CHECK(kernels.size() == profiles.size());
  // One representative application per class. Cells needing two apps of the
  // same class use the first two representatives of that class.
  std::vector<std::vector<size_t>> members(profile::kNumClasses);
  for (size_t i = 0; i < profiles.size(); ++i) {
    members[idx(profiles[i].cls)].push_back(i);
  }

  // Same plan/simulate/accumulate split as measure_pairwise: representative
  // choice is pure bookkeeping, so the full entry list is enumerated first,
  // the deduped app triples simulate in parallel (canonical member order
  // makes {x,y,z} one group however a cell orders it), and the entries fill
  // in the serial enumeration order.
  struct Entry {
    int me = 0, a = 0, b = 0;
    std::array<size_t, 3> chosen{};
    size_t sim = 0;
  };
  std::vector<Entry> entries;
  std::vector<std::array<size_t, 3>> sims;  // index-sorted app triples
  std::map<std::array<size_t, 3>, size_t> sim_index;
  for (int me = 0; me < profile::kNumClasses; ++me) {
    if (members[static_cast<size_t>(me)].empty()) continue;
    for (int a = 0; a < profile::kNumClasses; ++a) {
      for (int b = a; b < profile::kNumClasses; ++b) {
        // Choose distinct representative apps for (me, a, b).
        std::vector<size_t> chosen;
        auto pick = [&](int cls) -> bool {
          for (size_t cand : members[static_cast<size_t>(cls)]) {
            if (std::find(chosen.begin(), chosen.end(), cand) ==
                chosen.end()) {
              chosen.push_back(cand);
              return true;
            }
          }
          return false;
        };
        if (!pick(me) || !pick(a) || !pick(b)) continue;

        std::array<size_t, 3> key{chosen[0], chosen[1], chosen[2]};
        std::sort(key.begin(), key.end());
        const auto [it, inserted] = sim_index.emplace(key, sims.size());
        if (inserted) sims.push_back(key);
        entries.push_back(
            Entry{me, a, b, {chosen[0], chosen[1], chosen[2]}, it->second});
      }
    }
  }

  std::vector<uint64_t> group_cycles(sims.size(), 0);
  parallel_for(threads, sims.size(), [&](size_t s) {
    const auto& t = sims[s];
    group_cycles[s] =
        co_run(cfg, {kernels[t[0]], kernels[t[1]], kernels[t[2]]},
               {profiles[t[0]].solo_cycles, profiles[t[1]].solo_cycles,
                profiles[t[2]].solo_cycles},
               {}, cache)
            .group_cycles;
  });

  for (const Entry& e : entries) {
    multi_[{e.me, {e.a < e.b ? e.a : e.b, e.a < e.b ? e.b : e.a}}] =
        static_cast<double>(group_cycles[e.sim]) /
        static_cast<double>(profiles[e.chosen[0]].solo_cycles);
  }
}

}  // namespace gpumas::interference
