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
#include <vector>

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

/// Compact payloads of sample_beff() and sample_io(), and the journal
/// of one three-sample perf cell, as the format has always written them.
const char* const kPinnedBeff =
    R"j({"kind":"beff","nprocs":64,"lmax":1048576,"sizes":[1,4096,)j"
    R"j(1048576],"patterns":[{"name":"ring-2d","is_random":false,)j"
    R"j("sizes":[{"size":4096,"method_bw":[1.25e+08,0.0,)j"
    R"j(300000000.3333333],"best_bw":300000000.3333333,)j"
    R"j("looplength":37}],"avg_bw":2.5e+08,"bw_at_lmax":2.75e+08}],)j"
    R"j("b_eff":1234567890.0,"rings_logavg":1.1e+09,)j"
    R"j("random_logavg":9e+08,"b_eff_at_lmax":1.5e+09,)j"
    R"j("rings_logavg_at_lmax":1.4e+09,"random_logavg_at_lmax":1.3e+09,)j"
    R"j("analysis":{"pingpong_bw":3.2e+08,"worst_cycle_bw":1e+08,)j"
    R"j("bisection_paired_bw":2e+08,"bisection_interleaved_bw":2.1e+08,)j"
    R"j("cart2d_dims":[8,8],"cart2d_per_dim_bw":[1e+08,112500000.0],)j"
    R"j("cart2d_combined_bw":212500000.0,"cart3d_dims":[4,4,4],)j"
    R"j("cart3d_per_dim_bw":[9e+07,9.5e+07,1e+08],)j"
    R"j("cart3d_combined_bw":2.85e+08},)j"
    R"j("benchmark_seconds":213.04700000000003,)j"
    R"j("metrics":{"counters":{"parmsg.messages":123456},)j"
    R"j("sums":{"parmsg.bytes":9.75e+12},)j"
    R"j("gauges":{"simt.max_queue":42.0},)j"
    R"j("histograms":{"parmsg.latency":{"count":17,"sum":0.0625,)j"
    R"j("max":0.013,"buckets":[[0,10],[3,7]]}}},)j"
    R"j("cell_status":[{"outcome":"ok","attempts":1,"backoff_s":0.0,)j"
    R"j("error":""},{"outcome":"degraded","attempts":2,"backoff_s":0.25,)j"
    R"j("error":"injected transient I/O error (\"quoted\")"}],)j"
    R"j("cell_labels":["cell 0: ring-1d","cell 1: ring-2d"]})j";

const char* const kPinnedIo =
    R"j({"kind":"beffio","nprocs":8,"scheduled_time":30.0,)j"
    R"j("mpart":2097152,"access":[{"method":0,"types":[{"type":0,)j"
    R"j("patterns":[{"number":0,"ptype":0,"l":1024,"L":4096,)j"
    R"j("time_units":0,"fill_up":false,"bytes":1000000,)j"
    R"j("seconds":0.4583333333333333,"calls":11}],"bytes":1000000,)j"
    R"j("seconds":0.4683333333333333},{"type":1,"patterns":[{"number":1,)j"
    R"j("ptype":1,"l":2048,"L":8192,"time_units":1,"fill_up":false,)j"
    R"j("bytes":1000007,"seconds":0.5833333333333333,"calls":11}],)j"
    R"j("bytes":1000007,"seconds":0.5933333333333333},{"type":2,)j"
    R"j("patterns":[{"number":2,"ptype":2,"l":4096,"L":16384,)j"
    R"j("time_units":2,"fill_up":false,"bytes":1000014,)j"
    R"j("seconds":0.7083333333333333,"calls":11}],"bytes":1000014,)j"
    R"j("seconds":0.7183333333333333},{"type":3,"patterns":[{"number":3,)j"
    R"j("ptype":3,"l":8192,"L":32768,"time_units":3,"fill_up":true,)j"
    R"j("bytes":1000021,"seconds":0.8333333333333333,"calls":11}],)j"
    R"j("bytes":1000021,"seconds":0.8433333333333333},{"type":4,)j"
    R"j("patterns":[{"number":4,"ptype":4,"l":16384,"L":65536,)j"
    R"j("time_units":4,"fill_up":true,"bytes":1000028,)j"
    R"j("seconds":0.9583333333333333,"calls":11}],"bytes":1000028,)j"
    R"j("seconds":0.9683333333333333}]},{"method":1,"types":[{"type":0,)j"
    R"j("patterns":[{"number":10,"ptype":0,"l":1024,"L":4096,)j"
    R"j("time_units":0,"fill_up":false,"bytes":1000000,)j"
    R"j("seconds":0.4583333333333333,"calls":22}],"bytes":1000000,)j"
    R"j("seconds":0.4683333333333333},{"type":1,)j"
    R"j("patterns":[{"number":11,"ptype":1,"l":2048,"L":8192,)j"
    R"j("time_units":1,"fill_up":false,"bytes":1000007,)j"
    R"j("seconds":0.5833333333333333,"calls":22}],"bytes":1000007,)j"
    R"j("seconds":0.5933333333333333},{"type":2,)j"
    R"j("patterns":[{"number":12,"ptype":2,"l":4096,"L":16384,)j"
    R"j("time_units":2,"fill_up":false,"bytes":1000014,)j"
    R"j("seconds":0.7083333333333333,"calls":22}],"bytes":1000014,)j"
    R"j("seconds":0.7183333333333333},{"type":3,)j"
    R"j("patterns":[{"number":13,"ptype":3,"l":8192,"L":32768,)j"
    R"j("time_units":3,"fill_up":true,"bytes":1000021,)j"
    R"j("seconds":0.8333333333333333,"calls":22}],"bytes":1000021,)j"
    R"j("seconds":0.8433333333333333},{"type":4,)j"
    R"j("patterns":[{"number":14,"ptype":4,"l":16384,"L":65536,)j"
    R"j("time_units":4,"fill_up":true,"bytes":1000028,)j"
    R"j("seconds":0.9583333333333333,"calls":22}],"bytes":1000028,)j"
    R"j("seconds":0.9683333333333333}]},{"method":2,"types":[{"type":0,)j"
    R"j("patterns":[{"number":20,"ptype":0,"l":1024,"L":4096,)j"
    R"j("time_units":0,"fill_up":false,"bytes":1000000,)j"
    R"j("seconds":0.4583333333333333,"calls":33}],"bytes":1000000,)j"
    R"j("seconds":0.4683333333333333},{"type":1,)j"
    R"j("patterns":[{"number":21,"ptype":1,"l":2048,"L":8192,)j"
    R"j("time_units":1,"fill_up":false,"bytes":1000007,)j"
    R"j("seconds":0.5833333333333333,"calls":33}],"bytes":1000007,)j"
    R"j("seconds":0.5933333333333333},{"type":2,)j"
    R"j("patterns":[{"number":22,"ptype":2,"l":4096,"L":16384,)j"
    R"j("time_units":2,"fill_up":false,"bytes":1000014,)j"
    R"j("seconds":0.7083333333333333,"calls":33}],"bytes":1000014,)j"
    R"j("seconds":0.7183333333333333},{"type":3,)j"
    R"j("patterns":[{"number":23,"ptype":3,"l":8192,"L":32768,)j"
    R"j("time_units":3,"fill_up":true,"bytes":1000021,)j"
    R"j("seconds":0.8333333333333333,"calls":33}],"bytes":1000021,)j"
    R"j("seconds":0.8433333333333333},{"type":4,)j"
    R"j("patterns":[{"number":24,"ptype":4,"l":16384,"L":65536,)j"
    R"j("time_units":4,"fill_up":true,"bytes":1000028,)j"
    R"j("seconds":0.9583333333333333,"calls":33}],"bytes":1000028,)j"
    R"j("seconds":0.9683333333333333}]}],"b_eff_io":432100000.0,)j"
    R"j("random_extension":[1e+07,0.0,3.3e+07],)j"
    R"j("benchmark_seconds":90.125,"segment_bytes":16777216,)j"
    R"j("fs_stats":{"requests":5000,"bytes_written":8589934592,)j"
    R"j("bytes_read":8589934593,"read_cache_hits":1200,)j"
    R"j("read_cache_misses":34,"rmw_chunks":56,"seeks":789.5},)j"
    R"j("metrics":{"counters":{"pfsim.requests":5000},"sums":{},)j"
    R"j("gauges":{},"histograms":{}},)j"
    R"j("chain_status":[{"outcome":"failed","attempts":3,)j"
    R"j("backoff_s":0.75,)j"
    R"j("error":"virtual-time deadline of 0.5 s exceeded"}],)j"
    R"j("chain_labels":["chain 0: initial-write"]})j";

const char* const kPinnedPerf =
    R"j({"schema":"balbench-journal/1","kind":"perf-checkpoint",)j"
    R"j("config":"cfg-P","records":[)j" "\n"
    R"j(["sweep.beff/t3e-8",[0.125,0.3333333333333333,2.5e-07]])j" "\n"
    R"j(]})j" "\n";

/// `json` with the first array under `"key":` one element longer (its
/// first element repeated) or one shorter (its last element dropped).
/// The arrays this edits hold numbers and objects of numbers only.
std::string resize_array(const std::string& json, const std::string& key,
                         bool grow) {
  const std::string open = "\"" + key + "\":[";
  const std::size_t begin = json.find(open) + open.size();
  std::vector<std::size_t> commas;  // between top-level elements
  std::size_t end = begin;
  for (int depth = 0; depth > 0 || json[end] != ']'; ++end) {
    const char c = json[end];
    if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      --depth;
    } else if (c == ',' && depth == 0) {
      commas.push_back(end);
    }
  }
  if (grow) {
    const std::size_t first_end = commas.empty() ? end : commas.front();
    return json.substr(0, begin) + json.substr(begin, first_end - begin) +
           "," + json.substr(begin);
  }
  const std::size_t last = commas.empty() ? begin : commas.back();
  return json.substr(0, last) + json.substr(end);
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
// The format itself: pinned bytes (a key renamed or moved in both the
// writer and the reader still round-trips, but changes these) and the
// fixed-size arrays' length check.

TEST(CheckpointFormat, BeffPayloadBytesArePinned) {
  EXPECT_EQ(serialize_beff(sample_beff()), kPinnedBeff);
}

TEST(CheckpointFormat, BeffIoPayloadBytesArePinned) {
  EXPECT_EQ(serialize_io(sample_io()), kPinnedIo);
}

TEST(CheckpointFormat, PerfJournalBytesArePinned) {
  const std::string path = ::testing::TempDir() + "ck_perf_pinned.json";
  std::remove(path.c_str());
  br::PerfCheckpoint ck(path, "cfg-P", /*resume=*/false);
  ck.record("sweep.beff/t3e-8", {0.125, 1.0 / 3.0, 2.5e-7});
  EXPECT_EQ(slurp(path), kPinnedPerf);
}

class CheckpointArity : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckpointArity, OneTooManyOrTooFewIsRejectedNamingTheKey) {
  const std::string& key = GetParam();
  const bool beff = key == "method_bw";
  const std::string payload =
      beff ? serialize_beff(sample_beff()) : serialize_io(sample_io());
  for (const bool grow : {true, false}) {
    const bo::JsonValue v = bo::parse_json(resize_array(payload, key, grow));
    try {
      if (beff) {
        (void)br::read_beff_result(v);
      } else {
        (void)br::read_beffio_result(v);
      }
      ADD_FAILURE() << key << (grow ? " +1" : " -1") << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FixedSizeArrays, CheckpointArity,
                         ::testing::Values("method_bw", "access", "types",
                                           "random_extension"),
                         [](const auto& info) { return info.param; });

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
