// Torn and mutated journals cannot crash a reader (DESIGN.md
// Sec. 12.3).  One valid journal of each kind -- sweep checkpoint,
// perf checkpoint, serve cache index, serve drain queue -- is cut at
// every byte offset and has single bytes flipped at seeded positions.
// For every variant:
//
//   * Checkpoint and PerfCheckpoint start fresh or replay whole
//     records; a cut journal never replays part of its records;
//   * ResultCache::open and load_queue either succeed or throw the
//     journal's error, which starts with the path.
//
// A crash, a hang or a sanitizer report (the test carries the `robust`
// label, which the asan preset runs) fails it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/report/checkpoint.hpp"
#include "core/serve/cache.hpp"
#include "core/serve/service.hpp"
#include "util/rng.hpp"

namespace bb = balbench::beff;
namespace bio = balbench::beffio;
namespace br = balbench::report;
namespace bs = balbench::serve;

namespace {

/// Seeded byte flips per journal kind, on top of every truncation.
constexpr int kFlips = 400;
constexpr std::uint64_t kSeed = 0x6a6f75726e616cULL;

std::string scratch(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "journal_mutation_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

struct Variant {
  std::string bytes;
  bool truncated;  // a proper prefix of the valid journal
};

/// Every proper prefix of `good`, then kFlips copies with one byte
/// xor-ed by a nonzero mask at a seeded position.
std::vector<Variant> variants(const std::string& good) {
  std::vector<Variant> out;
  for (std::size_t n = 0; n < good.size(); ++n) {
    out.push_back({good.substr(0, n), true});
  }
  balbench::util::Xoshiro256 rng(kSeed);
  for (int i = 0; i < kFlips; ++i) {
    std::string m = good;
    const std::size_t pos = rng.below(m.size());
    m[pos] = static_cast<char>(m[pos] ^ static_cast<char>(1 + rng.below(255)));
    out.push_back({std::move(m), false});
  }
  return out;
}

std::string serialize(const bb::BeffResult& r) {
  std::ostringstream out;
  balbench::obs::JsonWriter w(out, 0);
  br::write_beff_result(w, r);
  return out.str();
}

std::string serialize(const bio::BeffIoResult& r) {
  std::ostringstream out;
  balbench::obs::JsonWriter w(out, 0);
  br::write_beffio_result(w, r);
  return out.str();
}

bb::BeffResult small_beff() {
  bb::BeffResult r;
  r.nprocs = 4;
  r.sizes = {1, 4096};
  bb::PatternMeasurement p;
  p.name = "ring-1d";
  bb::SizeMeasurement s;
  s.size = 4096;
  s.method_bw = {1.5e8, 2.0e8, 2.5e8};
  s.best_bw = 2.5e8;
  p.sizes.push_back(s);
  r.patterns.push_back(p);
  r.b_eff = 1.0 / 3.0;
  r.analysis.cart2d_dims = {2, 2};
  r.metrics.counters["parmsg.messages"] = 42;
  r.metrics.histograms["parmsg.latency"].buckets = {{0, 3}};
  r.cell_status = {balbench::robust::CellStatus{}};
  r.cell_labels = {"cell 0"};
  return r;
}

bio::BeffIoResult small_io() {
  bio::BeffIoResult r;
  r.nprocs = 2;
  r.b_eff_io = 7.5e7;
  r.fs_stats.bytes_written = 1LL << 33;
  return r;
}

}  // namespace

TEST(JournalMutation, SweepCheckpointStartsFreshOrReplaysWholeTasks) {
  const std::string path = scratch("sweep") + "/ck.json";
  const bb::BeffResult beff = small_beff();
  const bio::BeffIoResult io = small_io();
  {
    br::Checkpoint ck(path, "cfg", /*resume=*/false);
    ck.record_beff("beff/0", beff);
    ck.record_io("io/0", io);
  }
  const std::string good = slurp(path);
  for (const Variant& v : variants(good)) {
    spit(path, v.bytes);
    ::testing::internal::CaptureStderr();
    const br::Checkpoint ck(path, "cfg", /*resume=*/true);
    const std::string note = ::testing::internal::GetCapturedStderr();
    const bool has_beff = ck.has("beff/0");
    const bool has_io = ck.has("io/0");
    if (note.find("resuming") == std::string::npos) {
      EXPECT_FALSE(has_beff || has_io) << note;  // fresh means empty
    }
    bb::BeffResult beff_back;
    bio::BeffIoResult io_back;
    // A replayed task decodes in full: the reader canonicalized it.
    if (has_beff) {
      EXPECT_TRUE(ck.load_beff("beff/0", &beff_back));
    }
    if (has_io) {
      EXPECT_TRUE(ck.load_io("io/0", &io_back));
    }
    if (v.truncated) {
      // A cut journal is whole (only trailing whitespace lost) or
      // nothing; never a subset of its tasks.
      EXPECT_EQ(has_beff, has_io) << v.bytes.size() << " bytes";
      if (has_beff) {
        EXPECT_EQ(serialize(beff_back), serialize(beff));
        EXPECT_EQ(serialize(io_back), serialize(io));
      }
    }
  }
}

TEST(JournalMutation, PerfCheckpointStartsFreshOrReplaysWholeCells) {
  const std::string path = scratch("perf") + "/perf.json";
  const std::vector<double> a = {0.001, 0.0011};
  const std::vector<double> b = {0.005, 1.0 / 199.0};
  {
    br::PerfCheckpoint ck(path, "cfg", /*resume=*/false);
    ck.record("calib.spin_1ms", a);
    ck.record("calib.spin_5ms", b);
  }
  const std::string good = slurp(path);
  for (const Variant& v : variants(good)) {
    spit(path, v.bytes);
    ::testing::internal::CaptureStderr();
    const br::PerfCheckpoint ck(path, "cfg", /*resume=*/true);
    const std::string note = ::testing::internal::GetCapturedStderr();
    std::vector<double> a_back;
    std::vector<double> b_back;
    const bool has_a = ck.load("calib.spin_1ms", &a_back);
    const bool has_b = ck.load("calib.spin_5ms", &b_back);
    if (note.find("resuming") == std::string::npos) {
      EXPECT_FALSE(has_a || has_b) << note;  // fresh means empty
    }
    if (v.truncated) {
      EXPECT_EQ(has_a, has_b) << v.bytes.size() << " bytes";
      if (has_a) {
        EXPECT_EQ(a_back, a);
        EXPECT_EQ(b_back, b);
      }
    }
  }
}

TEST(JournalMutation, ServeCacheIndexOpensOrFailsWithItsPath) {
  const std::string dir = scratch("cache");
  const std::string path = dir + "/CACHE.json";
  const std::string key = "rev1:cafe:-";
  const std::string record = "{\"schema\":\"balbench-run-record/1\"}\n";
  {
    bs::ResultCache cache(path);
    cache.open();
    cache.store(key, record);
  }
  const std::string good = slurp(path);
  std::string entry_name;
  for (const auto& de : std::filesystem::directory_iterator(path + ".entries")) {
    entry_name = de.path().filename().string();
  }
  ASSERT_FALSE(entry_name.empty());
  for (const Variant& v : variants(good)) {
    // open() quarantines and rewrites, so every variant starts from a
    // clean copy of the committed state.
    std::filesystem::remove_all(path + ".entries");
    std::filesystem::create_directories(path + ".entries");
    spit(path + ".entries/" + entry_name, record);
    spit(path, v.bytes);
    bs::ResultCache cache(path);
    try {
      cache.open();
      // Served bytes are the committed bytes: the hash check stands
      // between a damaged index and a wrong hit.
      const auto hit = cache.lookup(key);
      if (hit) {
        EXPECT_EQ(*hit, record);
      }
      if (v.truncated) {
        EXPECT_TRUE(hit.has_value()) << v.bytes.size() << " bytes";
      }
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(path + ": ", 0), 0u) << e.what();
    }
  }
}

TEST(JournalMutation, ServeQueueReloadsOrFailsWithItsPath) {
  const std::string path = bs::queue_file_path(scratch("queue") + "/C.json");
  std::vector<bs::Job> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].req.kind = bs::RequestKind::Sweep;
    jobs[i].req.id = "job-" + std::to_string(i);
  }
  jobs[1].req.scope = "doc";
  bs::persist_queue(path, jobs);
  const std::string good = slurp(path);
  for (const Variant& v : variants(good)) {
    spit(path, v.bytes);
    try {
      const std::vector<bs::ServeRequest> back = bs::load_queue(path);
      if (v.truncated) {
        ASSERT_EQ(back.size(), jobs.size()) << v.bytes.size() << " bytes";
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          EXPECT_EQ(bs::write_request(back[i]), bs::write_request(jobs[i].req));
        }
      }
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(path + ": ", 0), 0u) << e.what();
    }
  }
}
