#include "pfsim/filesystem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simt/engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bf = balbench::pfsim;
namespace bs = balbench::simt;
using balbench::util::kMiB;

namespace {

bf::IoSystemConfig small_config() {
  bf::IoSystemConfig cfg;
  cfg.name = "test-fs";
  cfg.num_servers = 4;
  cfg.disks_per_server = 1;
  cfg.disk.bandwidth = 50e6;
  cfg.disk.seek_time = 5e-3;
  cfg.disk.sequential_threshold = 256 * 1024;
  cfg.server_bandwidth = 100e6;
  cfg.client_link_bw = 100e6;
  cfg.fabric_bandwidth = 400e6;
  cfg.fabric_latency = 10e-6;
  cfg.stripe_unit = 64 * 1024;
  cfg.block_size = 16 * 1024;
  cfg.cache_bytes = 64 * kMiB;
  cfg.request_overhead = 100e-6;
  cfg.server_request_overhead = 10e-6;
  return cfg;
}

/// Submit one request and run the engine to completion; returns the
/// virtual completion time.
double run_one(bs::Engine& eng, bf::FileSystem& fs, const bf::FileSystem::Request& r) {
  double done_at = -1.0;
  fs.submit(r, [&] { done_at = eng.now(); });
  eng.run();
  return done_at;
}

}  // namespace

TEST(FileSystem, OpenIsIdempotentByName) {
  bs::Engine eng;
  bf::FileSystem fs(eng, small_config(), 2);
  const auto a = fs.open("f");
  const auto b = fs.open("f");
  const auto c = fs.open("g");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FileSystem, WriteExtendsFileSize) {
  bs::Engine eng;
  bf::FileSystem fs(eng, small_config(), 2);
  const auto f = fs.open("f");
  EXPECT_EQ(fs.file_size(f), 0);
  run_one(eng, fs, {.client = 0, .file = f, .offset = 0, .bytes = 1 * kMiB});
  EXPECT_EQ(fs.file_size(f), 1 * kMiB);
}

TEST(FileSystem, CachedWriteCompletesAtNetworkSpeed) {
  bs::Engine eng;
  bf::FileSystem fs(eng, small_config(), 2);
  const auto f = fs.open("f");
  // 1 MB over a 100 MB/s client link: ~10.5 ms if absorbed by cache,
  // much longer if disk-bound (1 MB/50 MB/s/4-way striping + seeks).
  const double t = run_one(eng, fs, {.client = 0, .file = f, .offset = 0,
                                     .bytes = 1 * kMiB});
  EXPECT_LT(t, 0.02);
}

TEST(FileSystem, SyncWaitsForDiskDrain) {
  bs::Engine eng;
  bf::FileSystem fs(eng, small_config(), 2);
  const auto f = fs.open("f");
  double write_done = -1.0;
  double sync_done = -1.0;
  // sync() accounts for writes already accepted, so chain it behind the
  // write completion -- exactly how a blocking writer uses it.
  fs.submit({.client = 0, .file = f, .offset = 0, .bytes = 8 * kMiB}, [&] {
    write_done = eng.now();
    fs.sync(f, [&] { sync_done = eng.now(); });
  });
  eng.run();
  // Drain at ~4 x 50 MB/s: 8 MB needs >= 40 ms of disk time.
  EXPECT_GT(sync_done, write_done);
  EXPECT_GT(sync_done, 8.0 * kMiB / (4 * 50e6));
}

TEST(FileSystem, CacheBacklogThrottlesWrites) {
  auto cfg = small_config();
  cfg.cache_bytes = 1 * kMiB;  // tiny cache
  bs::Engine eng;
  bf::FileSystem fs(eng, cfg, 2);
  const auto f = fs.open("f");
  // 32 MB >> cache: the write must complete at ~disk drain speed, not
  // at network speed.
  const double t = run_one(eng, fs, {.client = 0, .file = f, .offset = 0,
                                     .bytes = 32 * kMiB});
  const double disk_time = 32.0 * kMiB / (4 * 50e6);
  EXPECT_GT(t, disk_time * 0.8);
}

TEST(FileSystem, SmallChunksPaySeeks) {
  bs::Engine eng;
  auto cfg = small_config();
  cfg.cache_bytes = 0;  // force disk-bound completion
  bf::FileSystem fs(eng, cfg, 2);
  const auto f = fs.open("f");
  const auto g = fs.open("g");
  // Same byte volume, 1 chunk vs 256 chunks of 4 kB.
  const double bulk = run_one(eng, fs, {.client = 0, .file = f, .offset = 0,
                                        .bytes = 1 * kMiB, .chunks = 1});
  const double chunked = run_one(eng, fs, {.client = 0, .file = g, .offset = 0,
                                           .bytes = 1 * kMiB, .chunks = 256});
  EXPECT_GT(chunked, bulk * 5.0);
  EXPECT_GT(fs.stats().seeks, 32.0);
}

TEST(FileSystem, AggregatedRequestsSkipPerChunkSeeks) {
  bs::Engine eng;
  auto cfg = small_config();
  cfg.cache_bytes = 0;
  bf::FileSystem fs(eng, cfg, 2);
  const auto f = fs.open("f");
  const double t_agg =
      run_one(eng, fs, {.client = 0, .file = f, .offset = 0, .bytes = 1 * kMiB,
                        .chunks = 256, .aggregated = true});
  bf::FileSystem fs2(eng, cfg, 2);
  const auto g = fs2.open("g");
  const double t0 = eng.now();
  double done = -1.0;
  fs2.submit({.client = 0, .file = g, .offset = 0, .bytes = 1 * kMiB,
              .chunks = 256},
             [&] { done = eng.now(); });
  eng.run();
  EXPECT_LT(t_agg, (done - t0) / 4.0);
}

TEST(FileSystem, UnalignedWritesPayRmw) {
  bs::Engine eng;
  auto cfg = small_config();
  cfg.cache_bytes = 0;
  bf::FileSystem fs(eng, cfg, 2);
  const auto f = fs.open("f");
  const auto g = fs.open("g");
  // 32 kB chunks (aligned) vs 32 kB + 8 chunks (unaligned).
  double t_aligned = run_one(eng, fs, {.client = 0, .file = f, .offset = 0,
                                       .bytes = 32 * 32768, .chunks = 32});
  const std::int64_t odd = 32768 + 8;
  double t_odd = run_one(eng, fs, {.client = 0, .file = g, .offset = 0,
                                   .bytes = 32 * odd, .chunks = 32});
  // Completion times are absolute; compare durations via fresh engines
  // is overkill here -- both start at the same now(), so subtract.
  EXPECT_GT(t_odd - t_aligned, 0.0);
  EXPECT_GT(fs.stats().rmw_chunks, 0);
}

TEST(FileSystem, RecentlyWrittenDataReadsFromCache) {
  bs::Engine eng;
  bf::FileSystem fs(eng, small_config(), 2);
  const auto f = fs.open("f");
  run_one(eng, fs, {.client = 0, .file = f, .offset = 0, .bytes = 4 * kMiB});
  // Read back: 4 MB < 64 MB cache -> hit, no disk time.
  const double t0 = eng.now();
  double done = -1.0;
  fs.submit({.client = 0, .file = f, .offset = 0, .bytes = 4 * kMiB,
             .write = false},
            [&] { done = eng.now(); });
  eng.run();
  EXPECT_GT(fs.stats().read_cache_hits, 0);
  EXPECT_EQ(fs.stats().read_cache_misses, 0);
  // Network-speed read: ~4 MB / 100 MB/s.
  EXPECT_LT(done - t0, 0.06);
}

TEST(FileSystem, ColdDataMissesCache) {
  auto cfg = small_config();
  cfg.cache_bytes = 1 * kMiB;
  bs::Engine eng;
  bf::FileSystem fs(eng, cfg, 2);
  const auto f = fs.open("f");
  run_one(eng, fs, {.client = 0, .file = f, .offset = 0, .bytes = 16 * kMiB});
  double done = -1.0;
  // The head of the file fell out of the 1 MB cache.
  fs.submit({.client = 0, .file = f, .offset = 0, .bytes = 1 * kMiB,
             .write = false},
            [&] { done = eng.now(); });
  eng.run();
  EXPECT_GT(fs.stats().read_cache_misses, 0);
  EXPECT_GT(done, 0.0);
}

TEST(FileSystem, CacheBypassThresholdDisablesCaching) {
  auto cfg = small_config();
  cfg.cache_bypass_threshold = 1 * kMiB;  // SX-5 SFS rule
  bs::Engine eng;
  bf::FileSystem fs(eng, cfg, 2);
  const auto f = fs.open("f");
  run_one(eng, fs, {.client = 0, .file = f, .offset = 0, .bytes = 4 * kMiB});
  double done = -1.0;
  const double t0 = eng.now();
  fs.submit({.client = 0, .file = f, .offset = 0, .bytes = 4 * kMiB,
             .write = false},
            [&] { done = eng.now(); });
  eng.run();
  // Bypassed: the read hits the disks.
  EXPECT_GT(fs.stats().read_cache_misses, 0);
  EXPECT_GT(done - t0, 4.0 * kMiB / (4 * 50e6) * 0.5);
}

TEST(FileSystem, ConcurrentClientsShareServers) {
  auto cfg = small_config();
  cfg.cache_bytes = 0;
  bs::Engine eng;
  bf::FileSystem fs(eng, cfg, 8);
  const auto f = fs.open("f");
  int completed = 0;
  for (int c = 0; c < 8; ++c) {
    fs.submit({.client = c, .file = f, .offset = c * 4 * kMiB, .bytes = 4 * kMiB},
              [&] { ++completed; });
  }
  eng.run();
  EXPECT_EQ(completed, 8);
  // 32 MB over 4 x 50 MB/s of disks: at least 160 ms of virtual time.
  EXPECT_GT(eng.now(), 0.16);
}

TEST(FileSystem, InvalidArgumentsThrow) {
  bs::Engine eng;
  bf::FileSystem fs(eng, small_config(), 2);
  const auto f = fs.open("f");
  EXPECT_THROW(fs.submit({.client = 5, .file = f, .bytes = 1}, [] {}),
               std::out_of_range);
  EXPECT_THROW(fs.submit({.client = 0, .file = 99, .bytes = 1}, [] {}),
               std::out_of_range);
  EXPECT_THROW(fs.submit({.client = 0, .file = f, .bytes = 0}, [] {}),
               std::invalid_argument);
  EXPECT_THROW((void)fs.file_size(42), std::out_of_range);
  EXPECT_THROW(fs.sync(42, [] {}), std::out_of_range);
}

TEST(FileSystem, StatsAccumulateAndReset) {
  bs::Engine eng;
  bf::FileSystem fs(eng, small_config(), 2);
  const auto f = fs.open("f");
  run_one(eng, fs, {.client = 0, .file = f, .offset = 0, .bytes = 1 * kMiB});
  EXPECT_EQ(fs.stats().requests, 1);
  EXPECT_EQ(fs.stats().bytes_written, 1 * kMiB);
  fs.reset_stats();
  EXPECT_EQ(fs.stats().requests, 0);
}

namespace {

/// The split walked stripe by stripe: the closed form's reference.
std::vector<std::int64_t> split_stripe_by_stripe(std::int64_t offset, std::int64_t bytes,
                                                 std::int64_t stripe_unit, int servers) {
  std::vector<std::int64_t> per_server(static_cast<std::size_t>(servers), 0);
  std::int64_t pos = offset;
  for (std::int64_t left = bytes; left > 0;) {
    const std::int64_t take = std::min(left, stripe_unit - pos % stripe_unit);
    per_server[static_cast<std::size_t>(pos / stripe_unit % servers)] += take;
    pos += take;
    left -= take;
  }
  return per_server;
}

}  // namespace

TEST(SplitByServer, MatchesAStripeByStripeWalk) {
  balbench::util::Xoshiro256 rng(20010423);
  std::vector<std::int64_t> got;
  const auto below = [&rng](std::int64_t n) {
    return static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n)));
  };
  for (int i = 0; i < 4000; ++i) {
    // One draw per statement, so the cases do not depend on the
    // compiler's evaluation order.
    const int servers = 1 + static_cast<int>(below(12));
    const std::int64_t scale = below(4);
    const std::int64_t su = 1 + scale * below(70000);
    // Aligned and unaligned offsets; ranges from one byte (inside one
    // stripe) to hundreds of stripe cycles.
    const std::int64_t stripes = below(64);
    const std::int64_t offset = stripes * su + (below(2) == 0 ? 0 : below(su));
    const std::int64_t span = below(3) == 0 ? su : su * servers * 300;
    const std::int64_t bytes = 1 + below(span);
    bf::split_by_server(offset, bytes, su, servers, got);
    ASSERT_EQ(got, split_stripe_by_stripe(offset, bytes, su, servers))
        << "offset " << offset << " bytes " << bytes << " stripe unit " << su
        << " servers " << servers;
  }
}

TEST(SplitByServer, EdgeCases) {
  std::vector<std::int64_t> got;
  bf::split_by_server(100, 0, 64, 3, got);  // empty range
  EXPECT_EQ(got, (std::vector<std::int64_t>{0, 0, 0}));
  bf::split_by_server(10, 20, 64, 3, got);  // inside stripe 0
  EXPECT_EQ(got, (std::vector<std::int64_t>{20, 0, 0}));
  bf::split_by_server(60, 8, 64, 3, got);  // across one boundary
  EXPECT_EQ(got, (std::vector<std::int64_t>{4, 4, 0}));
  bf::split_by_server(64, 64 * 7, 64, 3, got);  // aligned, 7 whole stripes
  EXPECT_EQ(got, (std::vector<std::int64_t>{128, 192, 128}));
  bf::split_by_server(0, 64 * 6 + 1, 64, 1, got);  // one server
  EXPECT_EQ(got, (std::vector<std::int64_t>{64 * 6 + 1}));
}
