#include "core/history/history.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "util/atomic_write.hpp"
#include "util/doc_sections.hpp"

namespace bh = balbench::history;
namespace bo = balbench::obs;

namespace {

/// A minimal balbench-perf-record/1 document.  `cells` is a list of
/// (id, suite, constant-sample value); constant samples give degenerate
/// CIs, so the gate arithmetic in the tests is exact.
bo::JsonValue make_record(
    const std::string& rev, const std::string& cfg,
    const std::vector<std::tuple<std::string, std::string, double>>& cells) {
  std::ostringstream os;
  os << "{\"schema\":\"balbench-perf-record/1\",\"suite\":\"micro,calib\","
        "\"repeat\":5,\"warmup\":1,\"config_hash\":\""
     << cfg << "\",\"provenance\":{\"generator\":\"test\",\"git_rev\":\""
     << rev << "\"},\"cells\":[";
  bool first = true;
  for (const auto& [id, suite, value] : cells) {
    if (!first) os << ',';
    first = false;
    os << "{\"id\":\"" << id << "\",\"suite\":\"" << suite
       << "\",\"samples_seconds\":[";
    for (int i = 0; i < 5; ++i) os << (i > 0 ? "," : "") << value;
    os << "]}";
  }
  os << "]}";
  return bo::parse_json(os.str());
}

/// Ingests a sequence of single-cell snapshots of `id` with the given
/// per-revision constant medians, all in one (config, host) group.
bh::History series(const std::vector<double>& medians) {
  bh::History h;
  for (std::size_t i = 0; i < medians.size(); ++i) {
    bh::ingest_record(
        h,
        make_record("rev" + std::to_string(i), "cafe",
                    {{"calib.spin", "calib", medians[i]}}),
        "host0");
  }
  return h;
}

const bh::CellTrend& only_cell(const std::vector<bh::GroupTrend>& groups) {
  EXPECT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].cells.size(), 1u);
  return groups[0].cells[0];
}

}  // namespace

TEST(HistoryStore, RoundTripPreservesEverything) {
  bh::History h;
  bh::ingest_record(h,
                    make_record("abc1234", "cafe",
                                {{"calib.spin", "calib", 0.005},
                                 {"micro.ring", "micro", 0.001}}),
                    "host0");
  std::ostringstream os;
  bh::write_history(os, h);
  const bh::History back = bh::parse_history(os.str());
  ASSERT_EQ(back.entries.size(), 1u);
  const bh::HistoryEntry& e = back.entries[0];
  EXPECT_EQ(e.git_rev, "abc1234");
  EXPECT_EQ(e.config_hash, "cafe");
  EXPECT_EQ(e.host, "host0");
  EXPECT_EQ(e.suite_spec, "micro,calib");
  EXPECT_EQ(e.repeat, 5);
  EXPECT_EQ(e.warmup, 1);
  ASSERT_EQ(e.cells.size(), 2u);
  EXPECT_EQ(e.cells[0].id, "calib.spin");
  ASSERT_EQ(e.cells[0].samples.size(), 5u);
  EXPECT_DOUBLE_EQ(e.cells[0].samples[0], 0.005);

  // Same store, same bytes.
  std::ostringstream os2;
  bh::write_history(os2, back);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(HistoryStore, IngestRejectsDuplicateKey) {
  bh::History h;
  const auto rec = make_record("abc", "cafe", {{"calib.spin", "calib", 0.005}});
  bh::ingest_record(h, rec, "host0");
  EXPECT_THROW(bh::ingest_record(h, rec, "host0"), std::runtime_error);
  // A different host is a different key.
  EXPECT_NO_THROW(bh::ingest_record(h, rec, "host1"));
  EXPECT_EQ(h.entries.size(), 2u);
}

TEST(HistoryStore, IngestRejectsWrongSchema) {
  bh::History h;
  EXPECT_THROW(
      bh::ingest_record(h, bo::parse_json("{\"schema\":\"nope/1\"}"), "host0"),
      std::runtime_error);
  EXPECT_THROW(bh::parse_history("{\"schema\":\"nope/1\",\"entries\":[]}"),
               std::runtime_error);
}

TEST(HistoryStore, RepeatAndWarmupMustBeIntegersInRange) {
  // Outside input: a store or record carrying a count no int can hold
  // must be rejected, naming the revision, never cast.  Both paths take
  // the same bounds as balbench-perf.  obs::parse_json already refuses
  // 5e999 (it overflows a double) as a bad number at the key's path.
  bh::History h;
  bh::ingest_record(h, make_record("abc", "cafe", {{"c.a", "calib", 0.005}}),
                    "host0");
  std::ostringstream os;
  bh::write_history(os, h);
  const std::string store = os.str();
  const std::string record =
      "{\"schema\":\"balbench-perf-record/1\",\"suite\":\"calib\","
      "\"repeat\":5,\"warmup\":1,\"config_hash\":\"cafe\","
      "\"provenance\":{\"generator\":\"test\",\"git_rev\":\"abc\"},"
      "\"cells\":[{\"id\":\"c.a\",\"suite\":\"calib\","
      "\"samples_seconds\":[0.005]}]}";
  // Replaces the value of `key` (followed by `sep`) in `text`.
  auto with = [](std::string text, const std::string& key,
                 const std::string& sep, const std::string& value) {
    const std::size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + key.size() + sep.size();
    return text.replace(from, text.find_first_of(",}\n", from) - from, value);
  };
  for (const std::string field : {"repeat", "warmup"}) {
    const std::string key = '"' + field + '"';
    for (const std::string value : {"1e300", "-1e300", "5e999", "2.5"}) {
      SCOPED_TRACE(field + " = " + value);
      const std::string names =
          value == "5e999" ? "." + field + "): bad number" : "rev abc";
      try {
        (void)bh::parse_history(with(store, key, ": ", value));
        ADD_FAILURE() << "store accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
            << e.what();
      }
      bh::History fresh;
      try {
        bh::ingest_record(fresh, bo::parse_json(with(record, key, ":", value)),
                          "host0");
        ADD_FAILURE() << "record accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(fresh.entries.empty());
    }
  }
  // The bounds themselves are valid: repeat >= 1, warmup >= 0.
  const bh::History edge = bh::parse_history(
      with(with(store, "\"repeat\"", ": ", "1"), "\"warmup\"", ": ", "0"));
  EXPECT_EQ(edge.entries[0].repeat, 1);
  EXPECT_EQ(edge.entries[0].warmup, 0);
  EXPECT_THROW(bh::parse_history(with(store, "\"repeat\"", ": ", "0")),
               std::runtime_error);
  EXPECT_THROW(bh::parse_history(with(store, "\"warmup\"", ": ", "-1")),
               std::runtime_error);
}

TEST(HistoryTrend, MixedConfigHashesStaySeparate) {
  bh::History h;
  bh::ingest_record(h, make_record("r1", "cafe", {{"c.a", "calib", 0.005}}),
                    "host0");
  // Same revision re-recorded under a different sweep configuration:
  // a separate group, never compared against the first.
  bh::ingest_record(h, make_record("r1", "beef", {{"c.a", "calib", 0.010}}),
                    "host0");
  const auto groups = bh::analyze_trends(h, bh::TrendOptions{});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].config_hash, "cafe");
  EXPECT_EQ(groups[1].config_hash, "beef");
  EXPECT_EQ(groups[0].revs.size(), 1u);
  EXPECT_EQ(groups[1].revs.size(), 1u);
  // One revision each: nothing to gate, nothing drifted.
  EXPECT_FALSE(groups[0].drifted());
  EXPECT_FALSE(groups[1].drifted());
}

TEST(HistoryTrend, TwoXSlowerRegresses) {
  const auto groups =
      bh::analyze_trends(series({0.005, 0.010}), bh::TrendOptions{});
  const bh::CellTrend& c = only_cell(groups);
  EXPECT_EQ(c.verdict, bh::Verdict::Regressed);
  EXPECT_TRUE(groups[0].drifted());
}

TEST(HistoryTrend, TwoXFasterImproves) {
  const auto groups =
      bh::analyze_trends(series({0.010, 0.005}), bh::TrendOptions{});
  const bh::CellTrend& c = only_cell(groups);
  EXPECT_EQ(c.verdict, bh::Verdict::Improved);
  EXPECT_FALSE(groups[0].drifted());
}

TEST(HistoryTrend, WithinThresholdIsOk) {
  // +8 % is within the 10 % slack.
  const auto groups =
      bh::analyze_trends(series({0.100, 0.108}), bh::TrendOptions{});
  EXPECT_EQ(only_cell(groups).verdict, bh::Verdict::Ok);
}

TEST(HistoryTrend, SlidingWindowCatchesSlowDrift) {
  // ~3 % per commit: every adjacent pair is within the 10 % slack, but
  // the cumulative +13 % exceeds the fastest window revision's edge.
  const auto groups = bh::analyze_trends(
      series({0.100, 0.103, 0.106, 0.109, 0.113}), bh::TrendOptions{});
  const bh::CellTrend& c = only_cell(groups);
  EXPECT_EQ(c.verdict, bh::Verdict::Regressed);
  EXPECT_DOUBLE_EQ(c.window_ci_hi, 0.100);  // gate = fastest in window
}

TEST(HistoryTrend, ShortWindowMissesTheSameDrift) {
  // The same series gated with window 2 only sees 0.106/0.109 -- the
  // drift passes, which is exactly why the default window is longer.
  bh::TrendOptions opt;
  opt.window = 2;
  const auto groups =
      bh::analyze_trends(series({0.100, 0.103, 0.106, 0.109, 0.113}), opt);
  EXPECT_EQ(only_cell(groups).verdict, bh::Verdict::Ok);
}

TEST(HistoryTrend, CellAppearingInNewestRevisionIsNew) {
  bh::History h;
  bh::ingest_record(h, make_record("r1", "cafe", {{"c.a", "calib", 0.005}}),
                    "host0");
  bh::ingest_record(h,
                    make_record("r2", "cafe",
                                {{"c.a", "calib", 0.005},
                                 {"c.b", "calib", 0.001}}),
                    "host0");
  const auto groups = bh::analyze_trends(h, bh::TrendOptions{});
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].cells.size(), 2u);
  EXPECT_EQ(groups[0].cells[0].verdict, bh::Verdict::Ok);   // c.a
  EXPECT_EQ(groups[0].cells[1].verdict, bh::Verdict::New);  // c.b
  EXPECT_FALSE(groups[0].drifted());
}

TEST(HistorySection, RenderIsDeterministicAndFlagsDrift) {
  const bh::History h = series({0.005, 0.010});
  std::ostringstream a, b;
  EXPECT_TRUE(bh::render_trend_section(a, h, bh::TrendOptions{}));
  EXPECT_TRUE(bh::render_trend_section(b, h, bh::TrendOptions{}));
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("DRIFT: 1 cell regressed"), std::string::npos);
  EXPECT_NE(a.str().find("median wall time per revision"), std::string::npos);
}

TEST(HistorySection, SingleSnapshotRendersPlaceholderNotDrift) {
  std::ostringstream os;
  EXPECT_FALSE(
      bh::render_trend_section(os, series({0.005}), bh::TrendOptions{}));
  EXPECT_NE(os.str().find("One snapshot so far"), std::string::npos);
  EXPECT_EQ(os.str().find("DRIFT"), std::string::npos);
}

TEST(HistorySection, SpliceAppendsThenReplacesIdempotently) {
  std::ostringstream s1, s2;
  bh::render_trend_section(s1, series({0.005}), bh::TrendOptions{});
  bh::render_trend_section(s2, series({0.005, 0.010}), bh::TrendOptions{});
  const std::vector<balbench::util::DocSection> one = {
      {bh::kTrendSection, s1.str()}};
  const std::vector<balbench::util::DocSection> two = {
      {bh::kTrendSection, s2.str()}};

  // The rendered section is one whole marker-delimited section, so a
  // document without it gets it appended after a blank line.
  const std::string doc = "# title\n\nbody.\n";
  const std::string with1 = balbench::util::splice_sections(doc, one);
  EXPECT_EQ(with1, doc + "\n" + s1.str());
  EXPECT_EQ(balbench::util::check_sections(with1, one), "");

  // Re-splicing replaces in place; splicing the same section is a
  // fixed point.
  const std::string with2 = balbench::util::splice_sections(with1, two);
  EXPECT_EQ(balbench::util::check_sections(with2, two), "");
  EXPECT_EQ(with2.find("One snapshot so far"), std::string::npos);
  EXPECT_EQ(balbench::util::splice_sections(with2, two), with2);
}

TEST(HistorySection, PlainDocumentLacksTheSection) {
  std::ostringstream s;
  bh::render_trend_section(s, series({0.005}), bh::TrendOptions{});
  EXPECT_EQ(balbench::util::check_sections("# no section here\n",
                                           {{bh::kTrendSection, s.str()}}),
            "section PERF HISTORY is missing");
}

TEST(HistoryIngest, ReplaceOverwritesInPlace) {
  bh::History h;
  bh::ingest_record(h, make_record("r1", "cafe", {{"c.a", "calib", 0.005}}),
                    "host0");
  bh::ingest_record(h, make_record("r2", "cafe", {{"c.a", "calib", 0.006}}),
                    "host0");
  // Re-recording r1 with --replace keeps its position on the revision
  // axis (entry 0), never appends.
  const auto rec = make_record("r1", "cafe", {{"c.a", "calib", 0.009}});
  EXPECT_THROW(bh::ingest_record(h, rec, "host0"), std::runtime_error);
  bh::ingest_record(h, rec, "host0", /*replace=*/true);
  ASSERT_EQ(h.entries.size(), 2u);
  EXPECT_EQ(h.entries[0].git_rev, "r1");
  EXPECT_DOUBLE_EQ(h.entries[0].cells[0].samples[0], 0.009);
  EXPECT_EQ(h.entries[1].git_rev, "r2");
}

TEST(HistoryList, InventoryIsDeterministicAndCountsState) {
  bh::History h = series({0.005, 0.010, 0.007});
  bh::ingest_record(h, make_record("r9", "beef", {{"c.b", "micro", 0.001}}),
                    "host1");
  std::ostringstream a, b;
  bh::render_list(a, h);
  bh::render_list(b, h);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("4 entries | 2 hosts | 20 samples held"),
            std::string::npos);
  // host0's three revisions come first, in ingest order.
  EXPECT_LT(a.str().find("rev0 "), a.str().find("rev2 "));
  EXPECT_LT(a.str().find("rev2 "), a.str().find("r9 "));
}

TEST(HistoryChart, FlatSeriesRendersNoSpreadNote) {
  // Every revision identical: the normalized median is 1.0 everywhere,
  // which used to squash the chart into a meaningless bottom row.  The
  // chart now clamps to an explicit flat line with a "no spread" note.
  std::ostringstream os;
  EXPECT_FALSE(bh::render_trend_section(os, series({0.005, 0.005, 0.005}),
                                        bh::TrendOptions{}));
  EXPECT_NE(os.str().find("no spread"), std::string::npos);
  std::ostringstream again;
  bh::render_trend_section(again, series({0.005, 0.005, 0.005}),
                           bh::TrendOptions{});
  EXPECT_EQ(os.str(), again.str());
}

namespace {

/// A fresh per-test scratch directory under gtest's TempDir.
std::string scratch(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "history_io_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

TEST(HistoryStoreIO, MissingStoreBootstrapsSingleFileV2) {
  const std::string path = scratch("boot") + "/BENCH.json";
  bh::History h = bh::load_history(path);
  EXPECT_TRUE(h.entries.empty());

  bh::ingest_record(h, make_record("r1", "cafe", {{"c.a", "calib", 0.005}}),
                    "host-a");
  bh::save_history(path, h);
  EXPECT_NE(balbench::util::read_file(path).find("balbench-perf-history/2"),
            std::string::npos);
  const bh::History back = bh::load_history(path);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].git_rev, "r1");
}

TEST(HistoryStoreIO, IngestReplaceRoundTrips) {
  const std::string path = scratch("replace") + "/BENCH.json";
  bh::History h;
  bh::ingest_record(h, make_record("r1", "cafe", {{"c.a", "calib", 0.005}}),
                    "host-a");
  bh::save_history(path, h);

  bh::History store = bh::load_history(path);
  const auto rec = make_record("r1", "cafe", {{"c.a", "calib", 0.009}});
  EXPECT_THROW(bh::ingest_record(store, rec, "host-a"), std::runtime_error);
  bh::ingest_record(store, rec, "host-a", /*replace=*/true);
  EXPECT_EQ(store.entries.size(), 1u);
  bh::save_history(path, store);

  const bh::History back = bh::load_history(path);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(back.entries[0].cells[0].samples[0], 0.009);
}
