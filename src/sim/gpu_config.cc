#include "sim/gpu_config.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "common/check.h"

namespace gpumas::sim {

namespace {

void at_least(const std::string& key, int64_t value, int64_t min) {
  GPUMAS_CHECK_MSG(value >= min,
                   key << " must be >= " << min << "; got " << value);
}

// One cache of `size` bytes: positive geometry and at least one set. The
// set count is computed in 64 bits, so a huge line_bytes * ways cannot
// wrap to a small divisor.
void validate_cache(const std::string& prefix, const CacheConfig& c,
                    uint64_t size) {
  at_least(prefix + "_line_bytes", c.line_bytes, 1);
  at_least(prefix + "_ways", c.ways, 1);
  at_least(prefix + "_mshr_entries", c.mshr_entries, 1);
  GPUMAS_CHECK_MSG(size / (static_cast<uint64_t>(c.line_bytes) * c.ways) > 0,
                   prefix << "_size_bytes leaves a " << size
                          << " B cache with zero sets of " << c.ways << " x "
                          << c.line_bytes << " B; got " << c.size_bytes);
}

}  // namespace

void validate(const GpuConfig& cfg) {
  at_least("num_sms", cfg.num_sms, 1);
  GPUMAS_CHECK_MSG(std::isfinite(cfg.core_freq_ghz) && cfg.core_freq_ghz > 0,
                   "core_freq_ghz must be positive; got "
                       << cfg.core_freq_ghz);
  at_least("warp_size", cfg.warp_size, 1);
  at_least("max_warps_per_sm", cfg.max_warps_per_sm, 1);
  GPUMAS_CHECK_MSG(cfg.max_warps_per_sm <= kMaxWarpsPerSm,
                   "max_warps_per_sm must be <= "
                       << kMaxWarpsPerSm << " (one bit per warp slot); got "
                       << cfg.max_warps_per_sm);
  at_least("max_blocks_per_sm", cfg.max_blocks_per_sm, 1);
  at_least("schedulers_per_sm", cfg.schedulers_per_sm, 1);
  at_least("alu_pipes", cfg.alu_pipes, 1);
  at_least("alu_initiation_interval", cfg.alu_initiation_interval, 1);
  at_least("alu_dep_latency", cfg.alu_dep_latency, 0);
  at_least("lsu_queue_size", cfg.lsu_queue_size, 1);
  at_least("l1_hit_latency", cfg.l1_hit_latency, 0);
  validate_cache("l1d", cfg.l1d, cfg.l1d.size_bytes);
  at_least("num_channels", cfg.num_channels, 1);
  validate_cache("l2", cfg.l2, cfg.l2_slice_bytes());
  at_least("l2_latency", cfg.l2_latency, 0);
  at_least("icnt_latency", cfg.icnt_latency, 0);
  at_least("icnt_vq_size", cfg.icnt_vq_size, 1);
  at_least("banks_per_channel", cfg.banks_per_channel, 1);
  at_least("lines_per_row", cfg.lines_per_row, 1);
  at_least("row_hit_cycles", cfg.row_hit_cycles, 0);
  at_least("row_miss_cycles", cfg.row_miss_cycles, 0);
  at_least("data_bus_cycles", cfg.data_bus_cycles, 1);
  at_least("channel_queue_size", cfg.channel_queue_size, 1);
  if (cfg.sim_mode == SimMode::kSampled) {
    GPUMAS_CHECK_MSG(
        cfg.sample_detail_cycles > 0 && cfg.sample_skip_cycles > 0,
        "sampled mode needs positive sample_detail_cycles and "
        "sample_skip_cycles");
  }
}

}  // namespace gpumas::sim
