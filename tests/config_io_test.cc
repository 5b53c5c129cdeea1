// Tests for GpuConfig text serialization.
#include "sim/config_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "sim/gpu.h"

namespace gpumas::sim {
namespace {

TEST(ConfigIoTest, RoundTripsDefaults) {
  GpuConfig original;
  GpuConfig parsed;
  parsed.num_sms = 1;  // will be overwritten by the parse
  config_from_string(config_to_string(original), parsed);
  EXPECT_EQ(parsed.num_sms, original.num_sms);
  EXPECT_EQ(parsed.max_warps_per_sm, original.max_warps_per_sm);
  EXPECT_EQ(parsed.l2.size_bytes, original.l2.size_bytes);
  EXPECT_EQ(parsed.row_miss_cycles, original.row_miss_cycles);
  EXPECT_DOUBLE_EQ(parsed.core_freq_ghz, original.core_freq_ghz);
  EXPECT_EQ(parsed.warp_sched, original.warp_sched);
  EXPECT_EQ(parsed.mem_sched, original.mem_sched);
}

TEST(ConfigIoTest, PartialUpdateKeepsOtherFields) {
  GpuConfig cfg;
  config_from_string("num_sms = 15\nl2_size_bytes = 524288\n", cfg);
  EXPECT_EQ(cfg.num_sms, 15);
  EXPECT_EQ(cfg.l2.size_bytes, 524288u);
  EXPECT_EQ(cfg.max_warps_per_sm, GpuConfig{}.max_warps_per_sm);
}

TEST(ConfigIoTest, CommentsAndBlankLinesIgnored) {
  GpuConfig cfg;
  config_from_string("# a comment\n\n  num_sms = 8  # trailing comment\n",
                     cfg);
  EXPECT_EQ(cfg.num_sms, 8);
}

TEST(ConfigIoTest, EnumFieldsParse) {
  GpuConfig cfg;
  config_from_string("warp_sched = lrr\nmem_sched = fcfs\n", cfg);
  EXPECT_EQ(cfg.warp_sched, WarpSchedPolicy::kLrr);
  EXPECT_EQ(cfg.mem_sched, MemSchedPolicy::kFcfs);
}

TEST(ConfigIoTest, NonDefaultConfigRoundTrips) {
  // config -> string -> config over a config that differs from the default
  // in every field family (geometry, enums, caches, DRAM, guard).
  GpuConfig original;
  original.num_sms = 42;
  original.core_freq_ghz = 1.215;
  original.warp_sched = WarpSchedPolicy::kLrr;
  original.mem_sched = MemSchedPolicy::kFcfs;
  original.alu_dep_latency = 14;
  original.l1d.size_bytes = 32 * 1024;
  original.l1d.ways = 8;
  original.l2.size_bytes = 1536 * 1024;
  original.l2.mshr_entries = 96;
  original.num_channels = 8;
  original.row_miss_cycles = 40;
  original.channel_queue_size = 64;
  original.max_cycles = 123456789;

  GpuConfig parsed;
  config_from_string(config_to_string(original), parsed);
  EXPECT_EQ(config_to_string(parsed), config_to_string(original));
  EXPECT_EQ(parsed.num_sms, 42);
  EXPECT_DOUBLE_EQ(parsed.core_freq_ghz, 1.215);
  EXPECT_EQ(parsed.warp_sched, WarpSchedPolicy::kLrr);
  EXPECT_EQ(parsed.mem_sched, MemSchedPolicy::kFcfs);
  EXPECT_EQ(parsed.l1d.size_bytes, 32u * 1024u);
  EXPECT_EQ(parsed.l2.mshr_entries, 96u);
  EXPECT_EQ(parsed.max_cycles, 123456789u);
}

TEST(ConfigIoTest, DuplicateKeyLastWins) {
  GpuConfig cfg;
  config_from_string("num_sms = 8\nnum_sms = 24\n", cfg);
  EXPECT_EQ(cfg.num_sms, 24);
}

TEST(ConfigIoTest, TrailingWhitespaceAccepted) {
  GpuConfig cfg;
  config_from_string("num_sms = 16   \t\r\nwarp_sched =  lrr \t\n", cfg);
  EXPECT_EQ(cfg.num_sms, 16);
  EXPECT_EQ(cfg.warp_sched, WarpSchedPolicy::kLrr);
}

TEST(ConfigIoTest, EmptyValueThrows) {
  GpuConfig cfg;
  EXPECT_THROW(config_from_string("num_sms = \n", cfg), std::logic_error);
  EXPECT_THROW(config_from_string("num_sms =\n", cfg), std::logic_error);
  EXPECT_THROW(config_from_string("warp_sched = \n", cfg), std::logic_error);
  EXPECT_THROW(config_from_string(" = 5\n", cfg), std::logic_error);
}

TEST(ConfigIoTest, UnknownKeyThrows) {
  GpuConfig cfg;
  EXPECT_THROW(config_from_string("frobnicate = 3\n", cfg),
               std::logic_error);
  // A retired key is just as unknown as one that never existed.
  EXPECT_THROW(config_from_string("sim_threads = 2\n", cfg),
               std::logic_error);
}

TEST(ConfigIoTest, MalformedValueThrows) {
  GpuConfig cfg;
  EXPECT_THROW(config_from_string("num_sms = sixty\n", cfg),
               std::logic_error);
  EXPECT_THROW(config_from_string("num_sms 60\n", cfg), std::logic_error);
  EXPECT_THROW(config_from_string("num_sms = 60 extra\n", cfg),
               std::logic_error);
}

// The warp scheduler's slot masks bound warps per SM to [1, 64]; a config
// file outside that range is a parse error, not a crash at device build.
TEST(ConfigIoTest, WarpsPerSmOutsideMaskRangeThrows) {
  GpuConfig cfg;
  EXPECT_THROW(config_from_string("max_warps_per_sm = 65\n", cfg),
               std::logic_error);
  EXPECT_THROW(config_from_string("max_warps_per_sm = 0\n", cfg),
               std::logic_error);
  config_from_string("max_warps_per_sm = 64\n", cfg);
  EXPECT_EQ(cfg.max_warps_per_sm, 64);
}

// Every value outside the range the device's constructors assume is a
// parse error naming its key, never a wrapped value or a crash later.
TEST(ConfigIoTest, InvalidValuesThrowNamingTheKey) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"l2_line_bytes = -128", "l2_line_bytes"},  // would wrap to 4294967168
      {"l2_line_bytes = 0", "l2_line_bytes"},     // zero divisor of the sets
      {"l1d_ways = 0", "l1d_ways"},
      {"l2_mshr_entries = -1", "l2_mshr_entries"},
      {"l2_size_bytes = 1024", "l2_size_bytes"},  // zero sets per slice
      {"num_sms = -5", "num_sms"},
      {"num_sms = 0", "num_sms"},
      {"num_channels = 0", "num_channels"},
      {"channel_queue_size = 0", "channel_queue_size"},
      {"banks_per_channel = -2", "banks_per_channel"},
      {"alu_pipes = 0", "alu_pipes"},
      {"max_warps_per_sm = 65", "max_warps_per_sm"},
      {"l2_latency = -1", "l2_latency"},
      {"core_freq_ghz = 0", "core_freq_ghz"},
      {"max_cycles = -1", "max_cycles"},
      {"skip_idle_cycles = 2", "skip_idle_cycles"},
      {"sim_mode = sampled\nsample_skip_cycles = 0", "sample_skip_cycles"},
  };
  for (const auto& [text, key] : cases) {
    GpuConfig cfg;
    try {
      config_from_string(text + "\n", cfg);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << text << ": " << e.what();
    }
  }
}

// A hand-built config is validated before the device sizes anything from
// it: no std::length_error from a negative SM count, no SIGFPE from a
// zero line size.
TEST(ConfigIoTest, GpuRejectsInvalidConfigWithLogicError) {
  GpuConfig negative_sms;
  negative_sms.num_sms = -5;
  EXPECT_THROW(Gpu{negative_sms}, std::logic_error);
  GpuConfig zero_line;
  zero_line.l2.line_bytes = 0;
  EXPECT_THROW(Gpu{zero_line}, std::logic_error);
}

TEST(ConfigIoTest, FileRoundTrip) {
  GpuConfig original;
  original.num_sms = 30;
  original.warp_sched = WarpSchedPolicy::kLrr;
  const std::string path = "/tmp/gpumas_config_test.cfg";
  save_config(path, original);
  const GpuConfig loaded = load_config(path);
  EXPECT_EQ(loaded.num_sms, 30);
  EXPECT_EQ(loaded.warp_sched, WarpSchedPolicy::kLrr);
  std::remove(path.c_str());
}

TEST(ConfigIoTest, MissingFileThrows) {
  EXPECT_THROW(load_config("/nonexistent/path.cfg"), std::logic_error);
}

TEST(ConfigIoTest, DerivedQuantitiesFollowParsedValues) {
  GpuConfig cfg;
  config_from_string("num_channels = 4\ndata_bus_cycles = 2\n", cfg);
  EXPECT_NEAR(cfg.peak_bandwidth_gbps(), 4.0 / 2.0 * 128 * 0.7, 1e-9);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(text.substr(start, nl - start));
  }
  return lines;
}

// Seeded mutations of a non-default config: a flipped byte, a deleted line
// or a duplicated line. Every mutant is either rejected with
// std::logic_error or parses to a config whose rendering re-parses to the
// same text.
TEST(ConfigFuzzTest, SeededMutationsThrowOrRoundTrip) {
  GpuConfig original;
  original.num_sms = 42;
  original.core_freq_ghz = 1.215;
  original.warp_sched = WarpSchedPolicy::kLrr;
  original.sim_mode = SimMode::kSampled;
  original.l1d.ways = 8;
  original.l2.size_bytes = 1536 * 1024;
  original.num_channels = 8;
  original.max_cycles = 123456789;
  const std::vector<std::string> base = split_lines(config_to_string(original));

  Prng rng(0xc0f1f022);
  constexpr int kIterations = 200;
  int rejected = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    auto lines = base;
    const size_t at = rng.next_below(lines.size());
    switch (rng.next_below(3)) {
      case 0: {
        std::string& line = lines[at];
        const size_t byte = rng.next_below(line.size());
        line[byte] = static_cast<char>(line[byte] ^ (1 + rng.next_below(255)));
        break;
      }
      case 1:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      default:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
        break;
    }
    std::string mutant;
    for (const std::string& line : lines) mutant += line + "\n";
    SCOPED_TRACE("iteration " + std::to_string(iter) + ": " + mutant);

    GpuConfig parsed;
    try {
      config_from_string(mutant, parsed);
    } catch (const std::logic_error&) {
      ++rejected;
      continue;
    }
    const std::string rendered = config_to_string(parsed);
    GpuConfig again;
    ASSERT_NO_THROW(config_from_string(rendered, again));
    EXPECT_EQ(config_to_string(again), rendered);
  }
  // Both outcomes occur, so the property is exercised on each side.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kIterations);
}

}  // namespace
}  // namespace gpumas::sim
