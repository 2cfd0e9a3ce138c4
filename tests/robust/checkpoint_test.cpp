// Unit tests for the crash-safe checkpoint journal (DESIGN.md
// Sec. 12.3): lossless serialization round-trips of both result kinds
// and the Checkpoint journal's record / resume / config-mismatch
// semantics.
#include "core/report/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "util/atomic_write.hpp"

namespace bb = balbench::beff;
namespace bio = balbench::beffio;
namespace bo = balbench::obs;
namespace br = balbench::report;
namespace bro = balbench::robust;

namespace {

std::string serialize_beff(const bb::BeffResult& r) {
  std::ostringstream out;
  bo::JsonWriter w(out, 0);
  br::write_beff_result(w, r);
  return out.str();
}

std::string serialize_io(const bio::BeffIoResult& r) {
  std::ostringstream out;
  bo::JsonWriter w(out, 0);
  br::write_beffio_result(w, r);
  return out.str();
}

/// A BeffResult exercising every serialized field with awkward values
/// (non-round doubles, empty and non-empty vectors, retry statuses).
bb::BeffResult sample_beff() {
  bb::BeffResult r;
  r.nprocs = 64;
  r.lmax = 1 << 20;
  r.sizes = {1, 4096, 1 << 20};
  bb::PatternMeasurement pm;
  pm.name = "ring-2d";
  pm.is_random = false;
  bb::SizeMeasurement sm;
  sm.size = 4096;
  sm.method_bw = {1.25e8, 0.0, 3.0e8 + 1.0 / 3.0};
  sm.best_bw = 3.0e8 + 1.0 / 3.0;
  sm.looplength = 37;
  pm.sizes.push_back(sm);
  pm.avg_bw = 2.5e8;
  pm.bw_at_lmax = 2.75e8;
  r.patterns.push_back(pm);
  r.b_eff = 1.23456789e9;
  r.rings_logavg = 1.1e9;
  r.random_logavg = 0.9e9;
  r.b_eff_at_lmax = 1.5e9;
  r.rings_logavg_at_lmax = 1.4e9;
  r.random_logavg_at_lmax = 1.3e9;
  r.analysis.pingpong_bw = 3.2e8;
  r.analysis.worst_cycle_bw = 1.0e8;
  r.analysis.bisection_paired_bw = 2.0e8;
  r.analysis.bisection_interleaved_bw = 2.1e8;
  r.analysis.cart2d_dims = {8, 8};
  r.analysis.cart2d_per_dim_bw = {1.0e8, 1.125e8};
  r.analysis.cart2d_combined_bw = 2.125e8;
  r.analysis.cart3d_dims = {4, 4, 4};
  r.analysis.cart3d_per_dim_bw = {9.0e7, 9.5e7, 1.0e8};
  r.analysis.cart3d_combined_bw = 2.85e8;
  r.benchmark_seconds = 213.04700000000003;
  r.metrics.counters["parmsg.messages"] = 123456;
  r.metrics.sums["parmsg.bytes"] = 9.75e12;
  r.metrics.gauges["simt.max_queue"] = 42.0;
  bo::HistogramData h;
  h.buckets = {{0, 10}, {3, 7}};
  h.count = 17;
  h.sum = 0.0625;
  h.max = 0.013;
  r.metrics.histograms["parmsg.latency"] = h;
  bro::CellStatus degraded;
  degraded.outcome = bro::Outcome::Degraded;
  degraded.attempts = 2;
  degraded.backoff_s = 0.25;
  degraded.error = "injected transient I/O error (\"quoted\")";
  r.cell_status = {bro::CellStatus{}, degraded};
  r.cell_labels = {"cell 0: ring-1d", "cell 1: ring-2d"};
  return r;
}

bio::BeffIoResult sample_io() {
  bio::BeffIoResult r;
  r.nprocs = 8;
  r.scheduled_time = 30.0;
  r.mpart = 2 * 1024 * 1024;
  for (int m = 0; m < bio::kNumAccessMethods; ++m) {
    auto& am = r.access[m];
    am.method = static_cast<bio::AccessMethod>(m);
    for (int t = 0; t < bio::kNumPatternTypes; ++t) {
      auto& ty = am.types[t];
      ty.type = static_cast<bio::PatternType>(t);
      bio::PatternAccessResult pr;
      pr.pattern.number = 10 * m + t;
      pr.pattern.type = ty.type;
      pr.pattern.l = 1 << (10 + t);
      pr.pattern.L = 1 << (12 + t);
      pr.pattern.time_units = t;
      pr.pattern.fill_up = (t >= 3);
      pr.bytes = 1'000'000 + 7 * t;
      pr.seconds = 0.125 * (t + 1) + 1.0 / 3.0;
      pr.calls = 11 * (m + 1);
      ty.patterns.push_back(pr);
      ty.bytes = pr.bytes;
      ty.seconds = pr.seconds + 0.01;
    }
  }
  r.b_eff_io = 4.321e8;
  r.random_extension = {1.0e7, 0.0, 3.3e7};
  r.benchmark_seconds = 90.125;
  r.segment_bytes = 16 * 1024 * 1024;
  r.fs_stats.requests = 5000;
  r.fs_stats.bytes_written = 1LL << 33;  // exercises > 32-bit integers
  r.fs_stats.bytes_read = (1LL << 33) + 1;
  r.fs_stats.read_cache_hits = 1200;
  r.fs_stats.read_cache_misses = 34;
  r.fs_stats.rmw_chunks = 56;
  r.fs_stats.seeks = 789.5;
  r.metrics.counters["pfsim.requests"] = 5000;
  bro::CellStatus failed;
  failed.outcome = bro::Outcome::Failed;
  failed.attempts = 3;
  failed.backoff_s = 0.75;
  failed.error = "virtual-time deadline of 0.5 s exceeded";
  r.chain_status = {failed};
  r.chain_labels = {"chain 0: initial-write"};
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Lossless round-trips

TEST(CheckpointRoundTrip, BeffResultIsAFixedPoint) {
  const std::string once = serialize_beff(sample_beff());
  const bb::BeffResult back = br::read_beff_result(bo::parse_json(once));
  // write(read(write(r))) == write(r): every field survived, including
  // shortest-form doubles, metrics maps and retry statuses.
  EXPECT_EQ(serialize_beff(back), once);
  EXPECT_EQ(back.nprocs, 64);
  EXPECT_EQ(back.lmax, 1 << 20);
  EXPECT_DOUBLE_EQ(back.b_eff, 1.23456789e9);
  ASSERT_EQ(back.patterns.size(), 1u);
  EXPECT_EQ(back.patterns[0].name, "ring-2d");
  ASSERT_EQ(back.patterns[0].sizes.size(), 1u);
  EXPECT_DOUBLE_EQ(back.patterns[0].sizes[0].method_bw[2], 3.0e8 + 1.0 / 3.0);
  EXPECT_EQ(back.metrics.counters.at("parmsg.messages"), 123456u);
  EXPECT_EQ(back.metrics.histograms.at("parmsg.latency").count, 17u);
  ASSERT_EQ(back.cell_status.size(), 2u);
  EXPECT_EQ(back.cell_status[1].outcome, bro::Outcome::Degraded);
  EXPECT_EQ(back.cell_status[1].error,
            "injected transient I/O error (\"quoted\")");
  EXPECT_EQ(back.cell_labels[1], "cell 1: ring-2d");
}

TEST(CheckpointRoundTrip, BeffIoResultIsAFixedPoint) {
  const std::string once = serialize_io(sample_io());
  const bio::BeffIoResult back = br::read_beffio_result(bo::parse_json(once));
  EXPECT_EQ(serialize_io(back), once);
  EXPECT_EQ(back.nprocs, 8);
  EXPECT_EQ(back.fs_stats.bytes_written, 1LL << 33);
  EXPECT_DOUBLE_EQ(back.fs_stats.seeks, 789.5);
  EXPECT_EQ(back.access[1].types[2].patterns[0].pattern.number, 12);
  EXPECT_TRUE(back.access[0].types[4].patterns[0].pattern.fill_up);
  ASSERT_EQ(back.chain_status.size(), 1u);
  EXPECT_EQ(back.chain_status[0].outcome, bro::Outcome::Failed);
  EXPECT_EQ(back.chain_labels[0], "chain 0: initial-write");
}

TEST(CheckpointRoundTrip, FaultFreeResultStaysFaultFree) {
  // A default-constructed (fault-free) result must round-trip to a
  // result that still reads as fault-free -- empty status vectors, Ok
  // worst outcome -- so a journaled fault-free sweep replays into the
  // exact pre-robustness run-record byte stream (which only emits
  // status fields when the vectors are non-empty).
  bb::BeffResult r;
  r.nprocs = 2;
  const std::string doc = serialize_beff(r);
  const bb::BeffResult back = br::read_beff_result(bo::parse_json(doc));
  EXPECT_TRUE(back.cell_status.empty());
  EXPECT_TRUE(back.cell_labels.empty());
  EXPECT_EQ(back.worst_outcome(), bro::Outcome::Ok);
  EXPECT_EQ(serialize_beff(back), doc);
}

// ---------------------------------------------------------------------------
// Checkpoint journal semantics

TEST(CheckpointJournal, RecordsAndResumes) {
  const std::string path = ::testing::TempDir() + "ck_records.json";
  std::remove(path.c_str());
  const bb::BeffResult beff = sample_beff();
  const bio::BeffIoResult io = sample_io();
  {
    br::Checkpoint ck(path, "cfg-A", /*resume=*/false);
    EXPECT_FALSE(ck.has("beff/0"));
    ck.record("beff/0", beff);
    ck.record("io/0", io);
    EXPECT_EQ(ck.recorded(), 2u);
  }
  // A fresh process resumes: both tasks replay with every byte intact.
  br::Checkpoint resumed(path, "cfg-A", /*resume=*/true);
  EXPECT_TRUE(resumed.has("beff/0"));
  EXPECT_TRUE(resumed.has("io/0"));
  EXPECT_EQ(resumed.recorded(), 0u);  // replayed, not newly recorded
  bb::BeffResult beff_back;
  ASSERT_TRUE(resumed.load("beff/0", &beff_back));
  EXPECT_EQ(serialize_beff(beff_back), serialize_beff(beff));
  bio::BeffIoResult io_back;
  ASSERT_TRUE(resumed.load("io/0", &io_back));
  EXPECT_EQ(serialize_io(io_back), serialize_io(io));
  // Kind discipline: a beff task cannot replay as an io task.
  EXPECT_FALSE(resumed.load("beff/0", &io_back));
  EXPECT_FALSE(resumed.load("io/0", &beff_back));
}

TEST(CheckpointJournal, ConfigMismatchDiscardsTheJournal) {
  const std::string path = ::testing::TempDir() + "ck_mismatch.json";
  std::remove(path.c_str());
  {
    br::Checkpoint ck(path, "cfg-A", false);
    ck.record("beff/0", sample_beff());
  }
  // Resuming under a different sweep configuration (edited fault spec,
  // different scope) must start empty rather than replay wrong data.
  br::Checkpoint other(path, "cfg-B", true);
  EXPECT_FALSE(other.has("beff/0"));
}

TEST(CheckpointJournal, MalformedJournalStartsEmpty) {
  const std::string path = ::testing::TempDir() + "ck_malformed.json";
  balbench::util::atomic_write(path, "{\"schema\": \"balbench-journal/1\", tru");
  br::Checkpoint ck(path, "cfg-A", true);
  EXPECT_FALSE(ck.has("beff/0"));
  // ...and stays usable for new records.
  ck.record("beff/0", sample_beff());
  EXPECT_EQ(ck.recorded(), 1u);
  EXPECT_TRUE(ck.has("beff/0"));
}

TEST(CheckpointJournal, WithoutResumeExistingJournalIsIgnored) {
  const std::string path = ::testing::TempDir() + "ck_fresh.json";
  std::remove(path.c_str());
  {
    br::Checkpoint ck(path, "cfg-A", false);
    ck.record("beff/0", sample_beff());
  }
  br::Checkpoint fresh(path, "cfg-A", /*resume=*/false);
  EXPECT_FALSE(fresh.has("beff/0"));
  // The first record() overwrites the stale journal on disk.
  fresh.record("io/0", sample_io());
  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"io/0\""), std::string::npos);
  EXPECT_EQ(doc.find("\"beff/0\""), std::string::npos);
}

TEST(CheckpointJournal, OnDiskDocumentIsWellFormed) {
  const std::string path = ::testing::TempDir() + "ck_schema.json";
  std::remove(path.c_str());
  br::Checkpoint ck(path, "cfg-A", false);
  ck.record("beff/3", sample_beff());
  const bo::JsonValue doc = bo::parse_json(slurp(path));
  EXPECT_EQ(doc.at("schema").as_string(), "balbench-journal/1");
  EXPECT_EQ(doc.at("kind").as_string(), "sweep-checkpoint");
  EXPECT_EQ(doc.at("config").as_string(), "cfg-A");
  const auto& records = doc.at("records").as_array();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].as_array().at(0).as_string(), "beff/3");
  EXPECT_EQ(records[0].as_array().at(1).at("kind").as_string(), "beff");
}
