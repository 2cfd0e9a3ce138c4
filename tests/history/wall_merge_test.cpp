#include "core/history/wall_merge.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace bh = balbench::history;
namespace bo = balbench::obs;

namespace {

/// A minimal raw balbench-wall-profile/1 document.  All values are
/// binary-exact (sums of powers of two) so the associativity assertion
/// below can demand byte-identical serializations.  `old_build` adds
/// the `stolen_*` keys that profiles of the work-stealing scheduler
/// carried; they must still parse and merge.
bo::JsonValue make_profile(double base, std::uint64_t tasks,
                           bool old_build = false) {
  const char* stolen = old_build ? ",\"stolen_tasks\":0" : "";
  std::ostringstream os;
  os << "{\"schema\":\"balbench-wall-profile/1\",\"clock\":\"host\","
        "\"dropped_spans\":0,"
        "\"scheduler\":{\"batches\":1,\"tasks\":"
     << tasks << stolen << ",\"task_seconds\":" << base * 2
     << (old_build ? ",\"stolen_seconds\":0" : "")
     << ",\"wall_seconds\":" << base
     << ",\"critical_path_seconds\":" << base * 0.5
     << ",\"idle_seconds\":0,"
        "\"parallel_efficiency\":1.0,\"speedup\":2.0,"
        "\"per_batch\":[{\"batch\":0,\"tasks\":"
     << tasks << ",\"workers\":2,\"wall_seconds\":" << base
     << ",\"task_seconds\":" << base * 2 << ",\"max_task_seconds\":" << base
     << stolen << "}],"
        "\"overlap_groups\":0},"
        "\"categories\":{\"compute\":{\"count\":"
     << tasks << ",\"seconds\":" << base * 2
     << "},\"io\":{\"count\":1,\"seconds\":" << base * 0.25
     << "}},\"spans\":[]}";
  return bo::parse_json(os.str());
}

std::string serialize(const bh::WallProfileMerge& m) {
  std::ostringstream os;
  bh::write_merged_wall_profile(os, m);
  return os.str();
}

}  // namespace

TEST(WallMerge, ParsesRawProfile) {
  const bh::WallProfileMerge m = bh::parse_wall_profile(make_profile(0.5, 4));
  EXPECT_EQ(m.runs, 1u);
  EXPECT_EQ(m.tasks, 4u);
  EXPECT_DOUBLE_EQ(m.task_seconds, 1.0);
  EXPECT_DOUBLE_EQ(m.wall_seconds, 0.5);
  // workers (2) x batch wall (0.5), recovered from per_batch.
  EXPECT_DOUBLE_EQ(m.worker_seconds, 1.0);
  EXPECT_DOUBLE_EQ(m.efficiency(), 1.0);
  EXPECT_DOUBLE_EQ(m.speedup(), 2.0);
  ASSERT_EQ(m.categories.size(), 2u);
  EXPECT_EQ(m.categories.at("compute").count, 4u);
  EXPECT_DOUBLE_EQ(m.categories.at("io").seconds, 0.125);
}

TEST(WallMerge, RejectsWrongSchema) {
  EXPECT_THROW(bh::parse_wall_profile(bo::parse_json("{\"schema\":\"x/1\"}")),
               std::runtime_error);
}

TEST(WallMerge, SumsCountersAndCategories) {
  bh::WallProfileMerge acc = bh::parse_wall_profile(make_profile(0.5, 4));
  bh::merge_wall_profiles(
      acc, bh::parse_wall_profile(make_profile(0.25, 2, /*old_build=*/true)));
  EXPECT_EQ(acc.runs, 2u);
  EXPECT_EQ(acc.tasks, 6u);
  EXPECT_DOUBLE_EQ(acc.task_seconds, 1.5);
  EXPECT_DOUBLE_EQ(acc.wall_seconds, 0.75);
  EXPECT_EQ(acc.categories.at("compute").count, 6u);
  EXPECT_DOUBLE_EQ(acc.categories.at("compute").seconds, 1.5);
  EXPECT_DOUBLE_EQ(acc.categories.at("io").seconds, 0.1875);
}

TEST(WallMerge, MergeIsAssociativeToTheByte) {
  // (A + B) + C vs A + (B + C): binary-exact inputs make the float
  // sums exact, so the serialized records must match byte for byte.
  const auto A = bh::parse_wall_profile(make_profile(0.5, 4));
  const auto B = bh::parse_wall_profile(make_profile(0.25, 2));
  const auto C = bh::parse_wall_profile(make_profile(1.0, 8));

  bh::WallProfileMerge left = A;
  bh::merge_wall_profiles(left, B);
  bh::merge_wall_profiles(left, C);

  bh::WallProfileMerge bc = B;
  bh::merge_wall_profiles(bc, C);
  bh::WallProfileMerge right = A;
  bh::merge_wall_profiles(right, bc);

  EXPECT_EQ(serialize(left), serialize(right));
  EXPECT_EQ(left.runs, 3u);
}

TEST(WallMerge, MergedRecordRoundTrips) {
  bh::WallProfileMerge acc = bh::parse_wall_profile(make_profile(0.5, 4));
  bh::merge_wall_profiles(acc, bh::parse_wall_profile(make_profile(0.25, 2)));
  const std::string bytes = serialize(acc);

  // A merged record parses back (worker_seconds read directly, no
  // per_batch) and re-serializes to the same bytes.
  const bh::WallProfileMerge back =
      bh::parse_wall_profile(bo::parse_json(bytes));
  EXPECT_EQ(back.runs, 2u);
  EXPECT_DOUBLE_EQ(back.worker_seconds, acc.worker_seconds);
  EXPECT_EQ(serialize(back), bytes);
}
