#include "sim/config_io.h"

#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>
#include <type_traits>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/text.h"

namespace gpumas::sim {

namespace {

struct Field {
  std::function<std::string(const GpuConfig&)> get;
  // False when the value is not a well-formed number of the field's type.
  std::function<bool(GpuConfig&, const std::string&)> set;
};

template <typename T>
bool parse_number(const std::string& s, T& out) {
  // istream >> would wrap "-128" into a huge unsigned value.
  if (std::is_unsigned_v<T> && s.front() == '-') return false;
  std::istringstream is(s);
  T v{};
  is >> v;
  if (is.fail()) return false;
  std::string rest;
  is >> rest;
  if (!rest.empty()) return false;
  out = v;
  return true;
}

template <typename T>
Field number_field(T GpuConfig::* member) {
  return Field{
      [member](const GpuConfig& c) {
        std::ostringstream os;
        os << c.*member;
        return os.str();
      },
      [member](GpuConfig& c, const std::string& s) {
        return parse_number(s, c.*member);
      }};
}

Field cache_field(CacheConfig GpuConfig::* cache,
                  uint32_t CacheConfig::* member) {
  return Field{
      [cache, member](const GpuConfig& c) {
        return std::to_string(c.*cache.*member);
      },
      [cache, member](GpuConfig& c, const std::string& s) {
        return parse_number(s, c.*cache.*member);
      }};
}

const std::map<std::string, Field>& fields() {
  static const std::map<std::string, Field> kFields = {
      {"num_sms", number_field(&GpuConfig::num_sms)},
      {"core_freq_ghz", number_field(&GpuConfig::core_freq_ghz)},
      {"warp_size", number_field(&GpuConfig::warp_size)},
      {"max_warps_per_sm", number_field(&GpuConfig::max_warps_per_sm)},
      {"max_blocks_per_sm", number_field(&GpuConfig::max_blocks_per_sm)},
      {"schedulers_per_sm", number_field(&GpuConfig::schedulers_per_sm)},
      {"alu_pipes", number_field(&GpuConfig::alu_pipes)},
      {"alu_initiation_interval",
       number_field(&GpuConfig::alu_initiation_interval)},
      {"alu_dep_latency", number_field(&GpuConfig::alu_dep_latency)},
      {"lsu_queue_size", number_field(&GpuConfig::lsu_queue_size)},
      {"l1_hit_latency", number_field(&GpuConfig::l1_hit_latency)},
      {"l1d_size_bytes",
       cache_field(&GpuConfig::l1d, &CacheConfig::size_bytes)},
      {"l1d_line_bytes",
       cache_field(&GpuConfig::l1d, &CacheConfig::line_bytes)},
      {"l1d_ways", cache_field(&GpuConfig::l1d, &CacheConfig::ways)},
      {"l1d_mshr_entries",
       cache_field(&GpuConfig::l1d, &CacheConfig::mshr_entries)},
      {"l2_size_bytes",
       cache_field(&GpuConfig::l2, &CacheConfig::size_bytes)},
      {"l2_line_bytes",
       cache_field(&GpuConfig::l2, &CacheConfig::line_bytes)},
      {"l2_ways", cache_field(&GpuConfig::l2, &CacheConfig::ways)},
      {"l2_mshr_entries",
       cache_field(&GpuConfig::l2, &CacheConfig::mshr_entries)},
      {"l2_latency", number_field(&GpuConfig::l2_latency)},
      {"icnt_latency", number_field(&GpuConfig::icnt_latency)},
      {"icnt_vq_size", number_field(&GpuConfig::icnt_vq_size)},
      {"num_channels", number_field(&GpuConfig::num_channels)},
      {"banks_per_channel",
       number_field(&GpuConfig::banks_per_channel)},
      {"lines_per_row", number_field(&GpuConfig::lines_per_row)},
      {"row_hit_cycles", number_field(&GpuConfig::row_hit_cycles)},
      {"row_miss_cycles", number_field(&GpuConfig::row_miss_cycles)},
      {"data_bus_cycles", number_field(&GpuConfig::data_bus_cycles)},
      {"channel_queue_size",
       number_field(&GpuConfig::channel_queue_size)},
      {"skip_idle_cycles", number_field(&GpuConfig::skip_idle_cycles)},
      {"sample_detail_cycles",
       number_field(&GpuConfig::sample_detail_cycles)},
      {"sample_skip_cycles", number_field(&GpuConfig::sample_skip_cycles)},
      {"max_cycles", number_field(&GpuConfig::max_cycles)},
  };
  return kFields;
}

}  // namespace

std::string config_to_string(const GpuConfig& cfg) {
  std::ostringstream os;
  os << "# gpumas device configuration (Table 4.1 schema)\n";
  // Enums rendered as names.
  os << "warp_sched = "
     << (cfg.warp_sched == WarpSchedPolicy::kGto ? "gto" : "lrr")
     << "\n";
  os << "mem_sched = "
     << (cfg.mem_sched == MemSchedPolicy::kFrFcfs ? "frfcfs" : "fcfs")
     << "\n";
  os << "sim_mode = "
     << (cfg.sim_mode == SimMode::kDetailed ? "detailed" : "sampled") << "\n";
  for (const auto& [name, field] : fields()) {
    os << name << " = " << field.get(cfg) << "\n";
  }
  return os.str();
}

std::string kernel_to_string(const KernelParams& kp) {
  // setprecision(17) (not fixed) so every double round-trips exactly; any
  // field change — including the seed — yields a different rendering and
  // hence a different fingerprint.
  std::ostringstream os;
  os << std::setprecision(17);
  os << "name = " << kp.name << "\n"
     << "num_blocks = " << kp.num_blocks << "\n"
     << "warps_per_block = " << kp.warps_per_block << "\n"
     << "insns_per_warp = " << kp.insns_per_warp << "\n"
     << "mem_ratio = " << kp.mem_ratio << "\n"
     << "store_ratio = " << kp.store_ratio << "\n"
     << "pattern = " << static_cast<int>(kp.pattern) << "\n"
     << "footprint_bytes = " << kp.footprint_bytes << "\n"
     << "hot_fraction = " << kp.hot_fraction << "\n"
     << "hot_bytes = " << kp.hot_bytes << "\n"
     << "divergence = " << kp.divergence << "\n"
     << "burst_lines = " << kp.burst_lines << "\n"
     << "ilp = " << kp.ilp << "\n"
     << "mlp = " << kp.mlp << "\n"
     << "l2_streaming_bypass = " << (kp.l2_streaming_bypass ? 1 : 0) << "\n"
     << "seed = " << kp.seed << "\n";
  return os.str();
}

std::string group_to_string(const std::vector<uint64_t>& kernel_fps,
                            const std::vector<int>& partition,
                            const std::string& mode) {
  GPUMAS_CHECK(kernel_fps.size() == partition.size());
  std::ostringstream os;
  for (size_t i = 0; i < kernel_fps.size(); ++i) {
    os << "member = " << kernel_fps[i] << "/" << partition[i] << "\n";
  }
  os << "mode = " << mode << "\n";
  return os.str();
}

void config_from_string(const std::string& text, GpuConfig& cfg) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    GPUMAS_CHECK_MSG(eq != std::string::npos,
                     "config line " << line_no << ": missing '='");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    GPUMAS_CHECK_MSG(!key.empty(),
                     "config line " << line_no << ": missing key before '='");
    GPUMAS_CHECK_MSG(!value.empty(), "config line "
                                         << line_no << ": empty value for '"
                                         << key << "'");
    if (key == "warp_sched") {
      GPUMAS_CHECK_MSG(value == "gto" || value == "lrr",
                       "unknown warp_sched '" << value << "'");
      cfg.warp_sched = value == "gto" ? WarpSchedPolicy::kGto
                                      : WarpSchedPolicy::kLrr;
      continue;
    }
    if (key == "mem_sched") {
      GPUMAS_CHECK_MSG(value == "frfcfs" || value == "fcfs",
                       "unknown mem_sched '" << value << "'");
      cfg.mem_sched = value == "frfcfs" ? MemSchedPolicy::kFrFcfs
                                        : MemSchedPolicy::kFcfs;
      continue;
    }
    if (key == "sim_mode") {
      GPUMAS_CHECK_MSG(value == "detailed" || value == "sampled",
                       "unknown sim_mode '" << value << "'");
      cfg.sim_mode =
          value == "detailed" ? SimMode::kDetailed : SimMode::kSampled;
      continue;
    }
    const auto it = fields().find(key);
    GPUMAS_CHECK_MSG(it != fields().end(),
                     "unknown config key '" << key << "' (line " << line_no
                                            << ")");
    const bool parsed = it->second.set(cfg, value);
    GPUMAS_CHECK_MSG(parsed, "config line " << line_no << ": malformed value '"
                                            << value << "' for '" << key
                                            << "'");
  }
  validate(cfg);
}

void save_config(const std::string& path, const GpuConfig& cfg) {
  // Atomic replace (common/atomic_file.h): a crash never leaves a torn
  // config for a later run to half-parse.
  common::atomic_write_file(path, config_to_string(cfg));
}

GpuConfig load_config(const std::string& path) {
  std::ifstream in(path);
  GPUMAS_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  GpuConfig cfg;
  config_from_string(buffer.str(), cfg);
  return cfg;
}

}  // namespace gpumas::sim
