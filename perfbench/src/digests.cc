#include "digests.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Digests Digests::load(const std::string& path) {
  Digests d;
  std::ifstream in(path);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, hex, extra;
    uint64_t seed = 0;
    if (!(ls >> workload >> seed >> hex) || (ls >> extra)) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected '<workload> <seed> <digest>'");
    }
    d.entries_[{workload, seed}] = hex;
  }
  return d;
}

std::string Digests::find(const std::string& workload, uint64_t seed) const {
  const auto it = entries_.find({workload, seed});
  return it == entries_.end() ? std::string() : it->second;
}

}  // namespace perfbench
