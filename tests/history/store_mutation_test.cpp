// Torn and mutated history stores cannot crash a reader (DESIGN.md
// Sec. 13.1).  One valid store written by write_history is cut at every
// byte offset and has single bytes flipped at seeded positions.  Every
// variant either loads -- and then renders its list and trend section
// like the tools do -- or throws std::runtime_error whose message
// starts with the store's path.
//
// A crash, a hang or a sanitizer report (the test carries the `history`
// label, which the asan preset runs) fails it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/history/history.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"

namespace bh = balbench::history;
namespace bo = balbench::obs;

namespace {

/// Seeded byte flips, on top of every truncation.
constexpr int kFlips = 400;
constexpr std::uint64_t kSeed = 0x686973746f7279ULL;

std::string scratch(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "history_mutation_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

bo::JsonValue tiny_record(const std::string& rev, double spin) {
  std::ostringstream os;
  os << "{\"schema\":\"balbench-perf-record/1\",\"suite\":\"micro,calib\","
        "\"repeat\":3,\"warmup\":1,\"config_hash\":\"cafe\","
        "\"provenance\":{\"generator\":\"test\",\"git_rev\":\""
     << rev << "\"},\"cells\":[{\"id\":\"c.spin\",\"suite\":\"calib\","
        "\"samples_seconds\":[" << spin << ',' << spin << ',' << spin
     << "]},{\"id\":\"m.ring\",\"suite\":\"micro\","
        "\"samples_seconds\":[0.001,0.0012,0.0011]}]}";
  return bo::parse_json(os.str());
}

/// Two revisions of one (config, host) group, the second regressed:
/// the store a trend render gates and charts.
std::string valid_store() {
  bh::History h;
  bh::ingest_record(h, tiny_record("r1", 0.005), "host-a");
  bh::ingest_record(h, tiny_record("r2", 0.010), "host-a");
  std::ostringstream os;
  bh::write_history(os, h);
  return os.str();
}

/// Runs `fn` and returns the error message it must throw.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "no exception thrown";
  return {};
}

}  // namespace

TEST(HistoryStoreMutation, CutAndFlippedStoresLoadOrNamePath) {
  const std::string path = scratch("fuzz") + "/HIST.json";
  const std::string good = valid_store();

  std::vector<std::string> variants;
  for (std::size_t n = 0; n < good.size(); ++n) {
    variants.push_back(good.substr(0, n));
  }
  balbench::util::Xoshiro256 rng(kSeed);
  for (int i = 0; i < kFlips; ++i) {
    std::string m = good;
    const std::size_t pos = rng.below(m.size());
    m[pos] = static_cast<char>(m[pos] ^ static_cast<char>(1 + rng.below(255)));
    variants.push_back(std::move(m));
  }

  std::size_t loaded = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    spit(path, variants[i]);
    try {
      const bh::History h = bh::load_history(path);
      ++loaded;
      std::ostringstream out;
      bh::render_list(out, h);
      bh::render_trend_section(out, h, bh::TrendOptions{});
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(path + ": ", 0), 0u)
          << "variant " << i << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "variant " << i << " threw a non-runtime_error: "
                    << e.what();
    }
  }
  // The flips must reach past the parser: some variants still load.
  EXPECT_GT(loaded, 0u);
}

TEST(HistoryStoreMutation, TruncatedStoreNamesPathLineAndColumn) {
  const std::string path = scratch("torn") + "/HIST.json";
  spit(path, valid_store().substr(0, 30));
  const std::string msg = error_of([&] { (void)bh::load_history(path); });
  EXPECT_EQ(msg.rfind(path + ": ", 0), 0u) << msg;
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column"), std::string::npos) << msg;
}
