// The output digests recorded with the benchmark (perfbench/digests.txt).
//
// One line per (workload, seed): "<workload> <seed> <digest>". A run whose
// seed has a recorded digest checks its simulated output against it; a
// seed without one is still checked by the invariants and identities of
// its workload, and the run says that the digest was not checked.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace perfbench {

class Digests {
 public:
  // Throws on a malformed line; a missing file loads as empty.
  static Digests load(const std::string& path);

  // The recorded digest, or "" when none is recorded.
  std::string find(const std::string& workload, uint64_t seed) const;
  size_t size() const { return entries_.size(); }

 private:
  std::map<std::pair<std::string, uint64_t>, std::string> entries_;
};

}  // namespace perfbench
