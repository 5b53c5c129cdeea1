// One layer of the artifact store.
//
// The store's three layers (solo profiles, slowdown models and group runs;
// see profile_cache.h) share every mechanism except their record format: a
// single-flight memo (concurrent callers of one key block on one
// computation), hit/miss counters, per-entry lifecycle stamps, the
// accuracy split, whole-file rendering for save, per-entry salvage on load
// (a corrupt entry is quarantined, the rest still load), union-merge with a
// conflict check, and LRU eviction under a byte bound. StoreLayer owns all
// of it once; a layer supplies only a codec:
//
//   struct Codec {
//     // "profile": [profile] entries in profiles.txt
//     static constexpr const char* kName = ...;
//     // The file preamble (schema-version comment, generation stamp).
//     static std::string header(uint64_t generation);
//     // One entry, header line included; `gen` is its last-touched stamp.
//     static std::string render(const Key&, const Value&, uint64_t gen);
//     // Inverse of render; throws std::logic_error on a corrupt entry.
//     static void parse(EntryFields&, Key*, Value*, uint64_t* gen);
//   };
//
// Key must be ordered and carry an `accuracy` (sim::SimMode) member.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <future>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/gpu_config.h"

namespace gpumas::profile {

// Entry counts of one layer per simulation fidelity.
struct AccuracySplit {
  size_t detailed = 0;
  size_t sampled = 0;
};

// Per-entry lifecycle metadata: the last generation that touched the entry
// (persisted by the group codec as `gen =`) and whether this run touched
// it (drives the live/dead byte split; gen == the current generation is
// what eviction protects).
struct EntryMeta {
  uint64_t gen = 0;
  bool touched = false;
};

// Strict reader of one store entry's `key = value` lines, shared by every
// layer codec. Each typed getter consumes one required field and throws
// std::logic_error when it is absent or does not parse as a whole:
// unsigned fields are digits only (istream extraction would wrap "-5" and
// truncate "10abc"), and a double must consume the entire value. A line
// without '=' or a repeated key rejects the entry at construction, and
// finish() rejects any key no getter consumed.
class EntryFields {
 public:
  // `lines` is one scanned entry: its [section] header, then the trimmed
  // field lines. The reader views them, so they must outlive it.
  explicit EntryFields(const std::vector<std::string>& lines);

  uint64_t u64(const char* key);
  uint64_t u64_or(const char* key, uint64_t absent);  // an optional field
  int int_in(const char* key, int lo, int hi);  // digits only, in [lo, hi]
  double real(const char* key);
  std::string str(const char* key);  // any value, possibly empty
  sim::SimMode accuracy();           // "detailed" or "sampled"
  // Consumes the remaining lines and returns them newline-terminated (the
  // model body, which SlowdownModel::from_string validates).
  std::string rest();
  void finish() const;

 private:
  struct Field {
    std::string_view key;
    std::string_view value;
    std::string_view line;
    bool used = false;
  };
  std::string_view take(const char* key);
  std::vector<Field> fields_;
};

// One store file split into [section] entries: each entry's trimmed lines
// from its header to the next, with the header's 1-based line number (for
// quarantine reports). Comments and blank lines are dropped.
struct StoreEntry {
  int line = 0;
  std::vector<std::string> lines;
};

struct StoreScan {
  std::vector<StoreEntry> entries;
  std::vector<StoreEntry> stray;  // non-comment lines outside any entry
  uint64_t generation = 0;  // from a `# generation = N` preamble comment
};

// Throws std::logic_error when a preamble comment names a schema version
// this build does not write: such a file must not be entry-salvaged, since
// every entry could be systematically misread.
StoreScan scan_store_file(std::istream& in, const std::string& section,
                          const std::string& file);

// Records `report` as <dir>/quarantine/<stem>-<content hash>.txt. The name
// is content-addressed, so recording the same corpse twice is idempotent.
// Best effort: failing to record it must not fail the load or merge that
// already salvaged the rest.
void write_quarantine(const std::string& dir, const std::string& stem,
                      const std::string& report);

template <class Key, class Value, class Codec>
class StoreLayer {
 public:
  struct Counters {
    uint64_t hits = 0;        // lookups served from an existing entry
    uint64_t misses = 0;      // lookups that ran the computation
    uint64_t sub_hits = 0;    // the subset of those flagged `sub`
    uint64_t sub_misses = 0;
  };
  // Serialized bytes of the ready entries this run touched (live) and did
  // not touch (dead).
  struct Bytes {
    uint64_t live = 0;
    uint64_t dead = 0;
  };

  // The memoized value of `key`. On a miss the calling thread runs
  // compute() outside the lock, so distinct keys compute concurrently while
  // same-key callers block on the shared result. Every lookup stamps the
  // entry touched at `generation` (a hit refreshes its LRU stamp); `sub`
  // also tallies it in the sub-counters.
  template <class Compute>
  Value lookup(const Key& key, uint64_t generation, Compute&& compute,
               bool sub = false) {
    std::promise<Value> promise;
    std::shared_future<Value> future;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = entries_.try_emplace(key);
      it->second.meta = EntryMeta{generation, true};
      if (inserted) {
        ++counters_.misses;
        if (sub) ++counters_.sub_misses;
        it->second.value = promise.get_future().share();
        owner = true;
      } else {
        ++counters_.hits;
        if (sub) ++counters_.sub_hits;
      }
      future = it->second.value;
    }
    if (owner) {
      try {
        promise.set_value(compute());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();
  }

  bool contains(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.count(key) > 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

  AccuracySplit split() const {
    AccuracySplit s;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, slot] : entries_) {
      (key.accuracy == sim::SimMode::kSampled ? s.sampled : s.detailed)++;
    }
    return s;
  }

  // Corrupt entries sidelined at load plus entries that conflicted at
  // merge.
  size_t quarantined() const {
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_;
  }

  uint64_t evicted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evicted_;
  }

  // 0 = unbounded.
  void set_byte_limit(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    byte_limit_ = bytes;
  }

  Bytes bytes() const {
    Bytes b;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, slot] : entries_) {
      if (const Value* v = ready(slot.value)) {
        (slot.meta.touched ? b.live : b.dead) +=
            Codec::render(key, *v, slot.meta.gen).size();
      }
    }
    return b;
  }

  // The layer's file: the codec header, then every ready entry in key
  // order. Rendered from a snapshot, so lookups never wait on a save.
  std::string render(uint64_t generation) const {
    std::map<Key, Slot> snapshot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snapshot = entries_;
    }
    std::string out = Codec::header(generation);
    for (const auto& [key, slot] : snapshot) {
      if (const Value* v = ready(slot.value)) {
        out += Codec::render(key, *v, slot.meta.gen);
      }
    }
    return out;
  }

  // Applies the byte bound: evicts least-recently-touched ready entries
  // until the rendered file fits. Entries touched at `generation` are
  // never evicted, even if the file stays over the bound: evicting work
  // the current run just produced or served would guarantee
  // re-computation on the very next run.
  void compact(uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    if (byte_limit_ == 0) return;
    struct Candidate {
      typename std::map<Key, Slot>::iterator it;
      size_t bytes = 0;
    };
    std::vector<Candidate> candidates;
    uint64_t total = Codec::header(generation).size();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Value* v = ready(it->second.value);
      if (v == nullptr) continue;  // not written, so it costs no bytes
      const size_t bytes =
          Codec::render(it->first, *v, it->second.meta.gen).size();
      total += bytes;
      if (it->second.meta.gen < generation) {
        candidates.push_back(Candidate{it, bytes});
      }
    }
    if (total <= byte_limit_) return;
    // Deterministic LRU: oldest generation first; key order (the
    // iteration order above) breaks ties, so two runs of the same store
    // always evict the same entries.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.it->second.meta.gen < b.it->second.meta.gen;
                     });
    for (const auto& c : candidates) {
      if (total <= byte_limit_) break;
      total -= c.bytes;
      entries_.erase(c.it);
      ++evicted_;
    }
  }

  // Parses <dir>/<kName>s.txt into this layer, re-parsing each entry in
  // isolation: an entry the codec rejects, and any line outside an entry,
  // is appended to *report with the parser's reason and counted as
  // quarantined instead of failing the file. Returns the file's
  // generation stamp (0 when absent or unstamped).
  uint64_t load_file(const std::string& dir, std::string* report) {
    const std::string file = std::string(Codec::kName) + "s.txt";
    std::ifstream in(dir + "/" + file);
    if (!in.good()) return 0;  // absent member files are fine
    const std::string section = "[" + std::string(Codec::kName) + "]";
    const StoreScan scan = scan_store_file(in, section, file);
    std::lock_guard<std::mutex> lock(mu_);
    const auto quarantine = [&](const StoreEntry& e,
                                const std::string& reason) {
      *report += "# quarantined from " + file + " (line " +
                 std::to_string(e.line) + "): " + reason + "\n";
      for (const auto& l : e.lines) *report += l + "\n";
      ++quarantined_;
    };
    for (const auto& e : scan.entries) {
      try {
        EntryFields fields(e.lines);
        Key key;
        Value value;
        uint64_t gen = 0;
        Codec::parse(fields, &key, &value, &gen);
        fields.finish();
        std::promise<Value> promise;
        promise.set_value(std::move(value));
        // Loaded, not touched; a repeated key keeps its first entry.
        entries_.try_emplace(key, Slot{promise.get_future().share(),
                                       EntryMeta{gen, false}});
      } catch (const std::exception& ex) {
        quarantine(e, ex.what());
      }
    }
    for (const auto& s : scan.stray) {
      quarantine(s, "line outside any " + section + " entry");
    }
    return scan.generation;
  }

  // Installs every entry of `staged` that is absent here, keeping resident
  // entries, and adopts its quarantine count.
  void install(StoreLayer& staged) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, slot] : staged.entries_) {
      entries_.try_emplace(key, std::move(slot));
    }
    quarantined_ += staged.quarantined_;
  }

  // Union-merges `incoming` (loaded from the store `dir`) into this layer.
  // Absent entries install; an entry measured at `generation` or later
  // counts as touched here too, so eviction never drops work the run just
  // produced. A present entry with the same rendering (gen stamps aside:
  // two stores may disagree on when a measurement was last used) keeps the
  // fresher LRU stamp. A present entry with a different rendering is a
  // conflict: keys are content-addressed, so two honest stores never
  // disagree. Ours wins, and the incoming rendering is appended to
  // *report. Resident entries still being computed or that failed cannot
  // be compared and are left alone. Returns the number of conflicts.
  size_t merge(StoreLayer& incoming, uint64_t generation,
               const std::string& dir, std::string* report) {
    size_t conflicts = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, slot] : incoming.entries_) {
      const bool fresh = slot.meta.gen >= generation;
      const auto it = entries_.find(key);
      if (it == entries_.end()) {
        entries_.emplace(key, Slot{std::move(slot.value),
                                   EntryMeta{slot.meta.gen, fresh}});
        continue;
      }
      const Value* ours = ready(it->second.value);
      const Value* theirs = ready(slot.value);
      if (ours == nullptr || theirs == nullptr) continue;
      const std::string rendering = Codec::render(key, *theirs, 0);
      if (rendering != Codec::render(key, *ours, 0)) {
        *report += "# quarantined from store merge of " + dir + ": " +
                   Codec::kName +
                   " entry conflicts with the resident store under the "
                   "same content-addressed key — one of the two stores is "
                   "corrupt\n" +
                   rendering;
        ++conflicts;
        continue;
      }
      EntryMeta& meta = it->second.meta;
      meta.gen = std::max(meta.gen, slot.meta.gen);
      meta.touched = meta.touched || fresh;
    }
    // The incoming store's own load-time quarantines surface here too:
    // the merged view accounts for them.
    quarantined_ += incoming.quarantined_ + conflicts;
    return conflicts;
  }

 private:
  struct Slot {
    std::shared_future<Value> value;
    EntryMeta meta;
  };

  // The value of a finished, successful entry; nullptr while it is still
  // being computed or when its computation threw. Save, byte accounting,
  // eviction and merge all skip such entries through this one check.
  static const Value* ready(const std::shared_future<Value>& f) {
    // detlint:ok(wall-clock) zero-timeout readiness poll; no time value escapes
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      return nullptr;
    }
    try {
      return &f.get();
    } catch (...) {
      return nullptr;
    }
  }

  mutable std::mutex mu_;
  std::map<Key, Slot> entries_;
  Counters counters_;
  size_t quarantined_ = 0;
  uint64_t evicted_ = 0;
  uint64_t byte_limit_ = 0;
};

}  // namespace gpumas::profile
