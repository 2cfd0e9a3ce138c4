// Torn and mutated scenario documents cannot crash the parser
// (docs/SCENARIOS.md: --validate-scenario reads untrusted files).
// Every shipped example and both built-in sweep documents are cut at
// every byte offset and have single bytes flipped at seeded positions.
// For every variant validate_scenario_text returns, and
// parse_scenario_text either returns -- exactly when validation found
// nothing -- or throws ScenarioError (a violation) or
// std::runtime_error (malformed JSON).
//
// A crash, a hang or a sanitizer report (the test carries the
// `scenario` label, which the asan preset runs) fails it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario/scenario.hpp"
#include "util/atomic_write.hpp"
#include "util/rng.hpp"

namespace balbench::scenario {
namespace {

/// Seeded byte flips per document, on top of every truncation.
constexpr int kFlips = 400;
constexpr std::uint64_t kSeed = 0x7363656e6172696fULL;

std::vector<std::filesystem::path> corpus() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           BALBENCH_SCENARIO_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  const std::filesystem::path sweeps = BALBENCH_SWEEPS_DIR;
  files.push_back(sweeps / "quick.json");
  files.push_back(sweeps / "doc.json");
  return files;
}

/// Every proper prefix of `good`, then kFlips copies with one byte
/// xor-ed by a nonzero mask at a seeded position.
std::vector<std::string> variants(const std::string& good) {
  std::vector<std::string> out;
  for (std::size_t n = 0; n < good.size(); ++n) {
    out.push_back(good.substr(0, n));
  }
  util::Xoshiro256 rng(kSeed);
  for (int i = 0; i < kFlips; ++i) {
    std::string m = good;
    const std::size_t pos = rng.below(m.size());
    m[pos] = static_cast<char>(m[pos] ^ static_cast<char>(1 + rng.below(255)));
    out.push_back(std::move(m));
  }
  return out;
}

TEST(ScenarioMutation, CutAndFlippedDocumentsParseOrThrowTheirErrors) {
  const std::vector<std::filesystem::path> files = corpus();
  ASSERT_GE(files.size(), 7u);
  for (const std::filesystem::path& file : files) {
    const std::string good = util::read_file(file.string());
    ASSERT_TRUE(validate_scenario_text(good).empty()) << file;
    std::size_t index = 0;
    for (const std::string& text : variants(good)) {
      const bool valid = validate_scenario_text(text).empty();
      bool parsed = false;
      try {
        (void)parse_scenario_text(text);
        parsed = true;
      } catch (const std::runtime_error&) {
        // ScenarioError or a JSON syntax error.
      } catch (...) {
        ADD_FAILURE() << file << " variant " << index
                      << ": parse threw something else";
      }
      EXPECT_EQ(parsed, valid) << file << " variant " << index;
      ++index;
    }
  }
}

}  // namespace
}  // namespace balbench::scenario
