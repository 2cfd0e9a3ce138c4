#include "core/history/history.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "util/atomic_write.hpp"
#include "util/doc_sections.hpp"

namespace bh = balbench::history;

namespace {

/// One balbench-perf run of `host`, as balbench-perf builds it.
/// `cells` is a list of (id, suite, constant-sample value); constant
/// samples give degenerate CIs, so the gate arithmetic in the tests is
/// exact.
bh::HistoryEntry make_entry(
    const std::string& rev, const std::string& cfg,
    const std::vector<std::tuple<std::string, std::string, double>>& cells,
    const std::string& host = "host0") {
  bh::HistoryEntry e{rev, cfg, host, "micro,calib", 5, 1, {}};
  for (const auto& [id, suite, value] : cells) {
    e.cells.push_back({id, suite, std::vector<double>(5, value)});
  }
  return e;
}

/// Ingests a sequence of single-cell snapshots of `id` with the given
/// per-revision constant medians, all in one (config, host) group.
bh::History series(const std::vector<double>& medians) {
  bh::History h;
  for (std::size_t i = 0; i < medians.size(); ++i) {
    bh::ingest(h, make_entry("rev" + std::to_string(i), "cafe",
                             {{"calib.spin", "calib", medians[i]}}));
  }
  return h;
}

/// A fresh per-test scratch directory under gtest's TempDir.
std::string scratch(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "history_io_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

const bh::CellTrend& only_cell(const std::vector<bh::GroupTrend>& groups) {
  EXPECT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].cells.size(), 1u);
  return groups[0].cells[0];
}

}  // namespace

TEST(HistoryStore, RoundTripPreservesEverything) {
  bh::History h;
  bh::ingest(h, make_entry("abc1234", "cafe",
                           {{"calib.spin", "calib", 0.005},
                            {"micro.ring", "micro", 0.001}}));
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
  auto rec = make_entry("abc", "cafe", {{"calib.spin", "calib", 0.005}});
  bh::ingest(h, rec);
  EXPECT_THROW(bh::ingest(h, rec), std::runtime_error);
  // A different host is a different key.
  rec.host = "host1";
  EXPECT_NO_THROW(bh::ingest(h, rec));
  EXPECT_EQ(h.entries.size(), 2u);
}

TEST(HistoryStore, IngestRejectsWrongSchema) {
  // ingest reads its FILE with the store reader, so a foreign schema is
  // refused before any entry is built.
  EXPECT_THROW(bh::parse_history("{\"schema\":\"nope/1\"}"),
               std::runtime_error);
  EXPECT_THROW(bh::parse_history("{\"schema\":\"nope/1\",\"entries\":[]}"),
               std::runtime_error);
}

TEST(HistoryStore, RepeatAndWarmupMustBeIntegersInRange) {
  // Outside input: a store or an ingested run carrying a count no int
  // can hold must be rejected, naming the revision, never cast.  Both
  // paths take the same bounds as balbench-perf.  obs::parse_json
  // already refuses 5e999 (it overflows a double) as a bad number at
  // the key's path.
  bh::History h;
  bh::ingest(h, make_entry("abc", "cafe", {{"c.a", "calib", 0.005}}));
  std::ostringstream os;
  bh::write_history(os, h);
  const std::string store = os.str();
  const std::string run = scratch("counts") + "/run.json";
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
      // The ingest path: FILE is read whole before any entry goes in.
      balbench::util::atomic_write(run, with(store, key, ": ", value));
      bh::History fresh;
      try {
        for (auto& e : bh::load_existing_history(run).entries) {
          bh::ingest(fresh, std::move(e));
        }
        ADD_FAILURE() << "run accepted";
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
  bh::ingest(h, make_entry("r1", "cafe", {{"c.a", "calib", 0.005}}));
  // Same revision re-recorded under a different sweep configuration:
  // a separate group, never compared against the first.
  bh::ingest(h, make_entry("r1", "beef", {{"c.a", "calib", 0.010}}));
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
  // The window holds the last kTrendWindow = 5 revisions.  One more
  // revision at 0.113 still has 0.100 in its window and is flagged;
  // once the series has stayed at 0.113 for five revisions, the same
  // drift lies entirely before the window and passes.
  ASSERT_EQ(bh::kTrendWindow, 5);
  const std::vector<double> drift = {0.100, 0.103, 0.106, 0.109, 0.113};
  std::vector<double> medians = drift;
  medians.push_back(0.113);
  EXPECT_EQ(only_cell(bh::analyze_trends(series(medians), bh::TrendOptions{}))
                .verdict,
            bh::Verdict::Regressed);
  medians.insert(medians.end(), 4, 0.113);
  const auto groups = bh::analyze_trends(series(medians), bh::TrendOptions{});
  EXPECT_EQ(only_cell(groups).verdict, bh::Verdict::Ok);
  EXPECT_DOUBLE_EQ(only_cell(groups).window_ci_hi, 0.113);
}

TEST(HistoryTrend, CellAppearingInNewestRevisionIsNew) {
  bh::History h;
  bh::ingest(h, make_entry("r1", "cafe", {{"c.a", "calib", 0.005}}));
  bh::ingest(h, make_entry("r2", "cafe",
                           {{"c.a", "calib", 0.005}, {"c.b", "calib", 0.001}}));
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
  bh::ingest(h, make_entry("r1", "cafe", {{"c.a", "calib", 0.005}}));
  bh::ingest(h, make_entry("r2", "cafe", {{"c.a", "calib", 0.006}}));
  // Re-recording r1 with --replace keeps its position on the revision
  // axis (entry 0), never appends.
  const auto rec = make_entry("r1", "cafe", {{"c.a", "calib", 0.009}});
  EXPECT_THROW(bh::ingest(h, rec), std::runtime_error);
  bh::ingest(h, rec, /*replace=*/true);
  ASSERT_EQ(h.entries.size(), 2u);
  EXPECT_EQ(h.entries[0].git_rev, "r1");
  EXPECT_DOUBLE_EQ(h.entries[0].cells[0].samples[0], 0.009);
  EXPECT_EQ(h.entries[1].git_rev, "r2");
}

TEST(HistoryList, InventoryIsDeterministicAndCountsState) {
  bh::History h = series({0.005, 0.010, 0.007});
  bh::ingest(h, make_entry("r9", "beef", {{"c.b", "micro", 0.001}}, "host1"));
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

TEST(HistoryStoreIO, MissingStoreBootstrapsSingleFileV2) {
  const std::string path = scratch("boot") + "/BENCH.json";
  bh::History h = bh::load_history(path);
  EXPECT_TRUE(h.entries.empty());

  bh::ingest(h, make_entry("r1", "cafe", {{"c.a", "calib", 0.005}}, "host-a"));
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
  bh::ingest(h, make_entry("r1", "cafe", {{"c.a", "calib", 0.005}}, "host-a"));
  bh::save_history(path, h);

  bh::History store = bh::load_history(path);
  const auto rec = make_entry("r1", "cafe", {{"c.a", "calib", 0.009}}, "host-a");
  EXPECT_THROW(bh::ingest(store, rec), std::runtime_error);
  bh::ingest(store, rec, /*replace=*/true);
  EXPECT_EQ(store.entries.size(), 1u);
  bh::save_history(path, store);

  const bh::History back = bh::load_history(path);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(back.entries[0].cells[0].samples[0], 0.009);
}

TEST(HistoryIngest, RetiredRecordFileNamesPathAndSchema) {
  // The one-run record format that balbench-perf wrote before its runs
  // became one-entry stores: ingest refuses it with one error naming
  // the file and the schema it found.
  const std::string path = scratch("retired") + "/perf.json";
  balbench::util::atomic_write(
      path,
      "{\"schema\":\"balbench-perf-record/1\",\"suite\":\"calib\","
      "\"repeat\":5,\"warmup\":1,\"config_hash\":\"cafe\","
      "\"provenance\":{\"generator\":\"balbench-perf\",\"git_rev\":\"abc\"},"
      "\"cells\":[{\"id\":\"c.a\",\"suite\":\"calib\","
      "\"samples_seconds\":[0.005]}]}\n");
  try {
    (void)bh::load_existing_history(path);
    ADD_FAILURE() << "record accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path + ": ", 0), 0u) << msg;
    EXPECT_NE(msg.find("'balbench-perf-record/1'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("want 'balbench-perf-history/2'"), std::string::npos)
        << msg;
  }
}
