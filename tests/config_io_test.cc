// Tests for GpuConfig text serialization.
#include "sim/config_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

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

}  // namespace
}  // namespace gpumas::sim
