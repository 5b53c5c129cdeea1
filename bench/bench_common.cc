// Implementation of the shared bench harness (see bench_common.h for the
// CLI contract). One translation unit, linked into every bench through the
// gpumas_bench_common static library.
#include "bench/bench_common.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault_inject.h"
#include "common/table.h"
#include "exp/result_io.h"
#include "sim/config_io.h"
#include "workloads/suite.h"

namespace gpumas::bench {

void print_setup(const sim::GpuConfig& cfg) {
  std::cout << "Experimental setup (Table 4.1):\n"
            << "  GPU architecture        GTX 480-class\n"
            << "  # of SMs                " << cfg.num_sms << "\n"
            << "  Core frequency          " << cfg.core_freq_ghz * 1000
            << " MHz\n"
            << "  Warps per SM            " << cfg.max_warps_per_sm << "\n"
            << "  Blocks per SM           " << cfg.max_blocks_per_sm << "\n"
            << "  L1 data cache           " << cfg.l1d.size_bytes / 1024
            << " kB per SM\n"
            << "  L2 cache                " << cfg.l2.size_bytes / 1024
            << " kB shared, " << cfg.num_channels << " slices\n"
            << "  Warp scheduler          "
            << (cfg.warp_sched == sim::WarpSchedPolicy::kGto ? "GTO" : "LRR")
            << "\n"
            << "  Memory scheduler        "
            << (cfg.mem_sched == sim::MemSchedPolicy::kFrFcfs ? "FR-FCFS"
                                                              : "FCFS")
            << "\n"
            << "  Peak DRAM bandwidth     " << cfg.peak_bandwidth_gbps()
            << " GB/s\n";
}

Options parse_options(int argc, char** argv) {
  Options opts;
  const auto usage = [&argv](const std::string& why) {
    std::cerr << argv[0] << ": " << why << "\n"
              << "usage: " << argv[0]
              << " [--threads N] [--config FILE]"
                 " [--profile-cache DIR]"
                 " [--policy serial|even|profile|ilp|ilp-smra]"
                 " [--shard I/N] [--dump-results FILE] [--dump-append]"
                 " [--resume] [--faults SPEC] [--reps N] [--no-skip]"
                 " [--sim-mode detailed|sampled] [--store-stats]\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--threads") {
      const std::string v = value();
      const auto n = parse_int(v);
      if (!n || *n < 1) usage("--threads wants an integer >= 1, got " + v);
      opts.threads = *n;
    } else if (arg == "--config") {
      opts.config_path = value();
    } else if (arg == "--profile-cache") {
      opts.profile_cache_path = value();
    } else if (arg == "--policy") {
      opts.policy = value();
      if (!parse_policy(opts.policy)) usage("unknown policy " + opts.policy);
    } else if (arg == "--shard") {
      const std::string v = value();
      const size_t slash = v.find('/');
      if (slash == std::string::npos) usage("--shard wants I/N, got " + v);
      const auto index = parse_int(v.substr(0, slash));
      const auto count = parse_int(v.substr(slash + 1));
      if (!index || !count) usage("--shard wants integers I/N, got " + v);
      opts.shard.index = *index;
      opts.shard.count = *count;
      if (opts.shard.count < 1 || opts.shard.index < 0 ||
          opts.shard.index >= opts.shard.count) {
        usage("--shard wants 0 <= I < N, got " + v);
      }
    } else if (arg == "--dump-results") {
      opts.dump_path = value();
    } else if (arg == "--dump-append") {
      opts.dump_append = true;
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--faults") {
      opts.faults = value();
    } else if (arg == "--no-skip") {
      opts.no_skip = true;
    } else if (arg == "--sim-mode") {
      opts.sim_mode = value();
      if (opts.sim_mode != "detailed" && opts.sim_mode != "sampled") {
        usage("--sim-mode wants detailed or sampled, got " + opts.sim_mode);
      }
    } else if (arg == "--store-stats") {
      opts.store_stats = true;
    } else if (arg == "--reps") {
      const std::string v = value();
      const auto n = parse_int(v);
      if (!n || *n < 1) usage("--reps wants an integer >= 1, got " + v);
      opts.reps = *n;
    } else if (arg == "--help" || arg == "-h") {
      usage("help");
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (opts.resume && opts.dump_path.empty()) {
    usage("--resume requires --dump-results FILE");
  }
  if (opts.resume && opts.dump_append) {
    usage("--resume and --dump-append are mutually exclusive");
  }
  return opts;
}

Harness::Harness(int argc, char** argv)
    : opts_(parse_options(argc, argv)), engine_(cache_, opts_.threads) {
  try {
    // Parse the fault-injection spec up front: a malformed --faults (or
    // GPUMAS_FAULTS) is a CLI error, not a mid-run surprise. Touching the
    // singleton here also forces the env spec to parse before any hook.
    if (!opts_.faults.empty()) {
      common::FaultInjector::instance().configure(opts_.faults);
    }
    if (!opts_.config_path.empty()) {
      cfg_ = sim::load_config(opts_.config_path);
    }
    if (opts_.no_skip) cfg_.skip_idle_cycles = false;
    if (opts_.sim_mode == "sampled") {
      cfg_.sim_mode = sim::SimMode::kSampled;
    } else if (opts_.sim_mode == "detailed") {
      cfg_.sim_mode = sim::SimMode::kDetailed;
    }
    // The store is a directory; refuse a file before anything is written.
    if (std::filesystem::is_regular_file(opts_.profile_cache_path)) {
      std::cerr << argv[0] << ": --profile-cache " << opts_.profile_cache_path
                << " is a file; it must name the artifact store directory "
                   "(profiles.txt, models.txt and groups.txt inside)\n";
      std::exit(2);
    }
    if (!opts_.dump_path.empty()) {
      const std::string journal_path = opts_.dump_path + ".journal";
      if (opts_.resume) {
        load_resume_state(journal_path);
      } else {
        // A leftover dump from an earlier run would silently gain this
        // run's records too, and the duplicates would poison every later
        // merge — refuse up front unless appending or resuming was asked
        // for.
        std::error_code ec;
        const auto size = std::filesystem::file_size(opts_.dump_path, ec);
        if (!ec && size > 0 && !opts_.dump_append) {
          std::cerr << argv[0] << ": --dump-results file "
                    << opts_.dump_path
                    << " already contains records; re-running would append "
                       "duplicates that corrupt a merge. Remove the file, "
                       "pass --dump-append to extend it on purpose, or pass "
                       "--resume to continue an interrupted run.\n";
          std::exit(2);
        }
        if (opts_.dump_append) {
          // Keep the pre-existing bytes verbatim: every batch end rewrites
          // the dump as that prefix + this invocation's canonical records.
          std::ifstream in(opts_.dump_path);
          if (in.good()) {
            std::ostringstream ss;
            ss << in.rdbuf();
            dump_prefix_ = ss.str();
          }
        }
      }
      // The checkpoint journal doubles as the up-front writability probe:
      // failing here beats failing after hours of simulation (and skipping
      // the destructor's store save). A resumed journal with a verified
      // header is extended in place; anything else starts fresh.
      journal_ = std::make_unique<common::JournalWriter>(
          journal_path, /*truncate=*/!journal_has_header_);
      if (!journal_has_header_) journal_->append(journal_header());
    }
    if (!opts_.profile_cache_path.empty()) {
      if (cache_.load_store_if_exists(opts_.profile_cache_path)) {
        std::cerr << "[bench] artifact store: loaded " << cache_.size()
                  << " profiles, " << cache_.model_count() << " models, "
                  << cache_.group_count() << " groups from "
                  << opts_.profile_cache_path << "\n";
      }
      const auto q = cache_.quarantine_stats();
      if (q.total() > 0) {
        std::cerr << "[bench] artifact store: quarantined " << q.total()
                  << " corrupt entr" << (q.total() == 1 ? "y" : "ies")
                  << " (" << q.profiles << " profiles, " << q.models
                  << " models, " << q.groups << " groups) to "
                  << opts_.profile_cache_path
                  << "/quarantine/; they will be re-measured on demand\n";
      }
    }
  } catch (const std::exception& e) {
    // Bad --config / --profile-cache files are user errors, not bugs:
    // report and exit instead of aborting on an uncaught exception.
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(2);
  }
}

Harness::~Harness() {
  if ((opts_.shard.count > 1 || !opts_.dump_path.empty()) && !ran_) {
    std::cerr << "[bench] warning: --shard/--dump-results have no effect "
                 "here — this bench does not run scenario batches through "
                 "the experiment engine\n";
  }
  if (opts_.store_stats) print_store_stats();
  if (!opts_.profile_cache_path.empty()) {
    try {
      cache_.save_store(opts_.profile_cache_path);
      std::cerr << "[bench] artifact store: saved " << cache_.size()
                << " profiles (" << cache_.misses()
                << " measured this run), " << cache_.model_count()
                << " models (" << cache_.model_misses()
                << " measured this run), " << cache_.group_count()
                << " groups (" << cache_.group_misses()
                << " measured this run) to " << opts_.profile_cache_path
                << "\n";
    } catch (const std::exception& e) {
      std::cerr << "[bench] artifact store save failed: " << e.what()
                << "\n";
    }
  }
  if (journal_ && !io_failed_) {
    // Clean completion: the dump file itself is complete and durable, so
    // the checkpoint journal has served its purpose. On I/O failure it is
    // kept — it may be the only surviving copy of this run's records.
    journal_.reset();
    std::error_code ec;
    std::filesystem::remove(opts_.dump_path + ".journal", ec);
  }
  if (io_failed_) {
    std::cerr << "[bench] exiting with status 1: the --dump-results file "
                 "or its checkpoint journal could not be written (measured "
                 "artifacts were still saved to the store)\n";
    std::exit(1);
  }
}

void Harness::print_store_stats(std::ostream& os) const {
  print_banner("Artifact store statistics (--store-stats)", os);
  Table table({"layer", "entries", "hits", "misses"});
  table.begin_row()
      .cell(std::string("profiles (solo)"))
      .cell(static_cast<uint64_t>(cache_.size()))
      .cell(cache_.hits() - cache_.scalability_hits())
      .cell(cache_.misses() - cache_.scalability_misses());
  table.begin_row()
      .cell(std::string("scalability points"))
      .cell(std::string("(in profiles)"))
      .cell(cache_.scalability_hits())
      .cell(cache_.scalability_misses());
  table.begin_row()
      .cell(std::string("slowdown models"))
      .cell(static_cast<uint64_t>(cache_.model_count()))
      .cell(cache_.model_hits())
      .cell(cache_.model_misses());
  table.begin_row()
      .cell(std::string("group runs"))
      .cell(static_cast<uint64_t>(cache_.group_count()))
      .cell(cache_.group_hits())
      .cell(cache_.group_misses());
  table.print(os);
  // Per-layer accuracy split: every artifact's key carries the SimMode it
  // was measured under, so a mixed store is auditable (and CI asserts
  // sampled and detailed artifacts never cross-serve).
  const auto ps = cache_.profile_split();
  const auto ms = cache_.model_split();
  const auto gs = cache_.group_split();
  os << "Accuracy split: profiles " << ps.detailed << " detailed / "
     << ps.sampled << " sampled; models " << ms.detailed << " detailed / "
     << ms.sampled << " sampled; group runs " << gs.detailed
     << " detailed / " << gs.sampled << " sampled\n";
  const auto q = cache_.quarantine_stats();
  os << "Quarantined corrupt store entries: " << q.total() << " ("
     << q.profiles << " profiles, " << q.models << " models, " << q.groups
     << " groups)\n";
  // The combined lifecycle line: how old the store is, what the last
  // compaction dropped, and how much of each layer this run actually used
  // (live) versus carried along (dead) — the numbers behind the group
  // layer's generation-stamped LRU eviction (orchestrate
  // --store-group-bytes; benches themselves never evict).
  const auto ls = cache_.lifecycle_stats();
  os << "Lifecycle: generation " << ls.generation << ", last compaction "
     << ls.last_compaction << "; quarantined " << q.total() << ", evicted "
     << ls.evicted_groups << "; live/dead bytes: profiles "
     << ls.profile_live_bytes << "/" << ls.profile_dead_bytes << ", models "
     << ls.model_live_bytes << "/" << ls.model_dead_bytes << ", groups "
     << ls.group_live_bytes << "/" << ls.group_dead_bytes << "\n";
}

std::vector<exp::ScenarioResult> Harness::run(
    const std::vector<exp::ScenarioSpec>& scenarios) {
  ran_ = true;
  const int batch = batch_++;
  std::vector<char> skip(scenarios.size(), 0);
  std::vector<std::vector<sched::RunReport>> loaded(scenarios.size());
  if (opts_.resume) prepare_resume_batch(scenarios, batch, &skip, &loaded);

  exp::RunHooks hooks;
  if (journal_) {
    hooks.on_result = [this, batch](size_t i,
                                    const exp::ScenarioResult& r) {
      // Serialized by the engine. Must not throw — a hook exception aborts
      // the batch — so append_journal degrades to a warning plus the
      // nonzero-exit marker on I/O failure.
      append_journal(
          exp::result_io::to_string(r, batch, static_cast<int>(i)));
    };
  }
  if (opts_.resume) {
    hooks.skip = [&skip](size_t i) { return skip[i] != 0; };
  }
  auto results = engine_.run(scenarios, opts_.shard, hooks);
  for (size_t i = 0; i < results.size(); ++i) {
    // Substitute the reloaded repetitions for skipped scenarios. They are
    // not re-journaled: their records already survived the crash.
    if (skip[i]) results[i].reps = std::move(loaded[i]);
  }
  if (!opts_.dump_path.empty()) dump_results(results, batch);
  return results;
}

const std::vector<profile::AppProfile>& Harness::profiles() {
  if (!profiles_) {
    profiles_ = cache_.suite_profiles(workloads::suite(), cfg_, {},
                                      opts_.threads);
  }
  return *profiles_;
}

std::vector<sched::Policy> Harness::policies(
    std::vector<sched::Policy> wanted) const {
  const auto filter = parse_policy(opts_.policy);
  if (!filter || wanted.empty()) return wanted;
  std::vector<sched::Policy> kept{wanted.front()};
  for (size_t i = 1; i < wanted.size(); ++i) {
    if (wanted[i] == *filter) kept.push_back(wanted[i]);
  }
  return kept;
}

exp::ScenarioSpec Harness::scenario(std::string name) const {
  exp::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.config = cfg_;
  return spec;
}

void Harness::dump_results(const std::vector<exp::ScenarioResult>& results,
                           int batch) {
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].has_reps()) continue;  // another shard's scenario
    dump_text_ +=
        exp::result_io::to_string(results[i], batch, static_cast<int>(i));
  }
  try {
    // Atomic canonical rewrite — declaration order, every finalized batch.
    // A crash leaves either the previous complete dump or the new one,
    // never a torn mix, and a resumed run's final file is byte-identical
    // to an uninterrupted one regardless of journal record order.
    common::atomic_write_file(opts_.dump_path, dump_prefix_ + dump_text_);
  } catch (const std::exception& e) {
    // Losing the dump mid-run is not worth losing the measured artifacts
    // too (the destructor still saves the store) — but the failure must
    // not look like success, so the harness exits nonzero at teardown.
    std::cerr << "[bench] cannot write --dump-results file "
              << opts_.dump_path << ": " << e.what() << "\n";
    io_failed_ = true;
  }
}

std::string Harness::journal_header() const {
  // Everything that byte-determines a record of this invocation: the
  // result schema, the device configuration, the shard slice, and the
  // flag-driven scenario parameters. --threads is absent on purpose:
  // records are identical at every width, so a run may resume wider or
  // narrower than it started.
  std::ostringstream os;
  os << "# gpumas journal v=" << exp::result_io::kFormatVersion
     << " config=" << profile::config_fingerprint(cfg_)
     << " shard=" << opts_.shard.index << "/" << opts_.shard.count
     << " reps=" << opts_.reps
     << " policy=" << (opts_.policy.empty() ? "-" : opts_.policy)
     << " sim_mode=" << (opts_.sim_mode.empty() ? "-" : opts_.sim_mode)
     << "\n";
  return os.str();
}

void Harness::load_resume_state(const std::string& journal_path) {
  // The journal carries mid-batch records the dump lacks; the dump carries
  // finalized batches whose journal may already be gone (resuming a run
  // that actually completed is an idempotent rewrite). Read both; the
  // journal wins (batch, idx, rep) collisions, though a consistent pair
  // never disagrees.
  size_t records = 0;
  size_t torn = 0;
  const auto ingest = [&](std::istream& in, bool is_journal,
                          const std::string& label) {
    std::string line;
    bool header_ok = false;
    size_t mine = 0;
    while (std::getline(in, line)) {
      const std::string t = trim(line);
      if (t.empty()) continue;
      if (t.front() == '#') {
        if (is_journal && t.rfind("# gpumas journal ", 0) == 0) {
          std::string want = journal_header();
          if (!want.empty() && want.back() == '\n') want.pop_back();
          if (t != want && want.rfind(t, 0) == 0) {
            // A strict prefix of OUR header is a header torn by a crash
            // mid-write — the same artifact as a torn record tail, not a
            // different invocation. Nothing can follow a torn header (the
            // append that tore died), so treat the journal as headerless:
            // it is recreated from scratch below.
            continue;
          }
          if (t != want) {
            std::cerr << "[bench] --resume: checkpoint journal " << label
                      << " was written by a different invocation:\n"
                      << "  journal:  " << t << "\n"
                      << "  this run: " << want << "\n"
                      << "Resume with the original flags, or remove the "
                         "dump and its journal to start over.\n";
            std::exit(2);
          }
          header_ok = true;
        }
        continue;
      }
      try {
        exp::result_io::Record rec = exp::result_io::parse_record(t);
        auto& slot = resume_records_[{rec.batch, rec.index}];
        const int rep = rec.rep;
        if (slot.emplace(rep, std::move(rec)).second) {
          ++records;
          ++mine;
        }
      } catch (const std::exception&) {
        // A torn tail is exactly what a crash mid-append leaves behind:
        // that repetition simply re-runs.
        ++torn;
      }
    }
    if (is_journal) {
      if (!header_ok && mine > 0) {
        // Records without the fingerprint header cannot be trusted to
        // belong to this invocation.
        std::cerr << "[bench] --resume: checkpoint journal " << label
                  << " has records but no header line; refusing to trust "
                     "it. Remove the dump and its journal to start over.\n";
        std::exit(2);
      }
      // An empty or torn-header journal (crash before the first record)
      // holds nothing worth keeping — it will be recreated from scratch.
      journal_has_header_ = header_ok;
    }
  };
  {
    std::ifstream in(journal_path);
    if (in.good()) ingest(in, /*is_journal=*/true, journal_path);
  }
  {
    std::ifstream in(opts_.dump_path);
    if (in.good()) ingest(in, /*is_journal=*/false, opts_.dump_path);
  }
  if (torn > 0) {
    std::cerr << "[bench] resume: dropped " << torn
              << " unparseable line(s) (torn crash tail); the affected "
                 "repetitions will re-run\n";
  }
  std::cerr << "[bench] resume: reloaded " << records
            << " completed repetition record(s)\n";
}

void Harness::prepare_resume_batch(
    const std::vector<exp::ScenarioSpec>& scenarios, int batch,
    std::vector<char>* skip,
    std::vector<std::vector<sched::RunReport>>* loaded) {
  const auto fatal = [&](const std::string& why) {
    std::cerr << "[bench] --resume: " << why
              << " — the reloaded records do not describe batch " << batch
              << " of this bench. Resume with the exact original "
                 "invocation, or remove "
              << opts_.dump_path << " and its journal to start over.\n";
    std::exit(2);
  };
  size_t skipped = 0;
  for (auto it = resume_records_.lower_bound({batch, 0});
       it != resume_records_.end() && it->first.first == batch; ++it) {
    const int idx = it->first.second;
    if (idx < 0 || idx >= static_cast<int>(scenarios.size())) {
      fatal("a record names scenario index " + std::to_string(idx) +
            " but the batch declares " + std::to_string(scenarios.size()) +
            " scenarios");
    }
    if (idx % opts_.shard.count != opts_.shard.index) {
      fatal("a record names scenario index " + std::to_string(idx) +
            ", which belongs to another shard");
    }
    const auto& spec = scenarios[idx];
    const int want_reps = spec.repetitions > 0 ? spec.repetitions : 1;
    for (const auto& [rep, rec] : it->second) {
      if (rec.name != spec.name) {
        fatal("scenario " + std::to_string(idx) + " is named '" +
              spec.name + "' but a record says '" + rec.name + "'");
      }
      if (rec.reps != want_reps || rep < 0 || rep >= want_reps) {
        fatal("scenario '" + spec.name + "' declares " +
              std::to_string(want_reps) +
              " repetition(s) but a record carries rep " +
              std::to_string(rep) + " of " + std::to_string(rec.reps));
      }
    }
    // A partial repetition set re-runs the whole scenario: repetitions of
    // one scenario are not independent units (rep seeds derive from the
    // spec), and duplicates in the journal are harmless — only the
    // canonical dump must stay unique.
    if (static_cast<int>(it->second.size()) != want_reps) continue;
    auto& out = (*loaded)[idx];
    for (int rep = 0; rep < want_reps; ++rep) {
      out.push_back(it->second.at(rep).report);
    }
    (*skip)[idx] = 1;
    ++skipped;
  }
  resume_skipped_ += skipped;
  std::cerr << "[bench] resume: batch " << batch << ": " << skipped
            << " scenario(s) already complete, skipped\n";
}

void Harness::append_journal(const std::string& data) {
  if (!journal_) return;
  try {
    journal_->append(data);
  } catch (const std::exception& e) {
    std::cerr << "[bench] checkpoint journal write failed: " << e.what()
              << "; checkpointing disabled for the rest of the run\n";
    journal_.reset();
    io_failed_ = true;
  }
}

std::vector<double> render_policy_grid(
    const std::vector<exp::ScenarioResult>& results,
    const std::vector<std::string>& row_names,
    const std::vector<std::string>& col_names, int reps, std::ostream& os) {
  GPUMAS_CHECK(results.size() == row_names.size() * col_names.size());
  std::vector<std::string> header{"workload"};
  for (const auto& col : col_names) header.push_back(col);
  Table table(header);
  std::vector<double> sums(col_names.size(), 0.0);
  std::vector<int> counts(col_names.size(), 0);
  for (size_t d = 0; d < row_names.size(); ++d) {
    const auto& base_result = results[d * col_names.size()];
    const double base =
        base_result.has_reps() ? base_result.mean_device_throughput() : 0.0;
    table.begin_row().cell(row_names[d]);
    for (size_t p = 0; p < col_names.size(); ++p) {
      const auto& r = results[d * col_names.size() + p];
      if (base <= 0.0 || !r.has_reps()) {
        table.cell(std::string("-"));
        continue;
      }
      const double ratio = r.mean_device_throughput() / base;
      sums[p] += ratio;
      counts[p]++;
      table.cell(ratio, 3);
    }
  }
  table.print(os);

  // Repetition statistics (mean/stddev over the re-drawn queues) for the
  // seeded-queue tables; a single repetition has nothing to summarize.
  if (reps > 1) {
    print_banner("Per-scenario repetition statistics (" +
                     std::to_string(reps) + " seeded repetitions)",
                 os);
    Table stats({"scenario", "STP mean", "STP sd", "cycles mean",
                 "cycles sd"});
    for (const auto& r : results) {
      if (!r.has_reps()) continue;
      const exp::RepStats stp = r.throughput_stats();
      const exp::RepStats cyc = r.cycles_stats();
      stats.begin_row()
          .cell(r.name)
          .cell(stp.mean, 3)
          .cell(stp.stddev, 3)
          .cell(cyc.mean, 1)
          .cell(cyc.stddev, 1);
    }
    stats.print(os);
  }

  std::vector<double> mean_normalized;
  for (size_t p = 0; p < col_names.size(); ++p) {
    mean_normalized.push_back(
        counts[p] > 0 ? sums[p] / static_cast<double>(counts[p]) : 0.0);
  }
  return mean_normalized;
}

PolicyGridResult run_policy_grid(
    Harness& h, const std::vector<sched::QueueDistribution>& dists,
    const std::vector<sched::Policy>& wanted, int nc, int length,
    uint64_t seed) {
  const auto policies = h.policies(wanted);
  std::vector<exp::ScenarioSpec> scenarios;
  for (const auto dist : dists) {
    for (const auto policy : policies) {
      exp::ScenarioSpec spec =
          h.scenario(std::string(sched::distribution_name(dist)) + "/" +
                     sched::policy_name(policy));
      spec.queue = exp::QueueSpec::Distribution(dist, length, seed);
      spec.policy = policy;
      spec.nc = nc;
      spec.repetitions = h.options().reps;
      scenarios.push_back(spec);
    }
  }
  const auto results = h.run(scenarios);

  std::vector<std::string> rows, cols;
  for (const auto dist : dists) rows.push_back(sched::distribution_name(dist));
  for (const auto policy : policies) cols.push_back(sched::policy_name(policy));

  PolicyGridResult grid;
  grid.policies = policies;
  grid.mean_normalized =
      render_policy_grid(results, rows, cols, h.options().reps);
  return grid;
}

void render_per_app_table(const std::vector<exp::ScenarioResult>& results,
                          const std::vector<PerAppRow>& rows, bool show_class,
                          std::ostream& os) {
  GPUMAS_CHECK(!results.empty());
  // Under --shard some policies belong to other shards: their columns stay
  // empty here and their reports come back default-constructed (callers
  // merge via --dump-results, not via the partial tables).
  std::vector<std::vector<std::pair<std::string, double>>> ipc;
  for (const auto& r : results) {
    ipc.push_back(r.has_reps()
                      ? r.report().per_app_ipc()
                      : std::vector<std::pair<std::string, double>>{});
  }

  std::vector<std::string> header{"Benchmark"};
  if (show_class) header.push_back("class");
  header.push_back(results[0].name + " IPC");
  for (size_t p = 1; p < results.size(); ++p) {
    header.push_back(results[p].name + "/" + results[0].name);
  }
  Table table(header);
  for (const auto& row : rows) {
    const double* base = sched::find_app_ipc(ipc[0], row.name);
    if (base == nullptr) continue;  // not drawn into this queue
    table.begin_row().cell(row.name);
    if (show_class) table.cell(row.cls);
    table.cell(*base, 1);
    for (size_t p = 1; p < results.size(); ++p) {
      if (const double* v = sched::find_app_ipc(ipc[p], row.name)) {
        table.cell(*v / *base, 3);
      } else {
        table.cell(std::string("-"));
      }
    }
  }
  table.print(os);
}

std::vector<sched::RunReport> run_per_app_table(
    Harness& h, const exp::QueueSpec& queue,
    const std::vector<sched::Policy>& wanted, int nc, bool show_class) {
  const auto policies = h.policies(wanted);
  std::vector<exp::ScenarioSpec> scenarios;
  for (const auto policy : policies) {
    exp::ScenarioSpec spec = h.scenario(sched::policy_name(policy));
    spec.queue = queue;
    spec.policy = policy;
    spec.nc = nc;
    scenarios.push_back(spec);
  }
  const auto results = h.run(scenarios);

  std::vector<PerAppRow> rows;
  for (const auto& pr : h.profiles()) {
    rows.push_back({pr.name, profile::class_name(pr.cls)});
  }
  render_per_app_table(results, rows, show_class);

  std::vector<sched::RunReport> reports;
  for (size_t p = 0; p < results.size(); ++p) {
    if (results[p].has_reps()) {
      reports.push_back(results[p].report());
    } else {
      sched::RunReport placeholder;  // this shard didn't run the scenario
      placeholder.policy = policies[p];
      reports.push_back(placeholder);
    }
  }
  return reports;
}

}  // namespace gpumas::bench
