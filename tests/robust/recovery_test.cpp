// Unit tests for the crash-safety and containment primitives behind
// DESIGN.md Sec. 12: util::atomic_write (tmp+fsync+rename), the
// obs::parse_json nesting-depth limit, and the simt::Engine
// virtual-time deadline / cooperative abort.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "simt/engine.hpp"
#include "util/atomic_write.hpp"

namespace bu = balbench::util;
namespace bo = balbench::obs;
namespace bs = balbench::simt;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// util::atomic_write

TEST(AtomicWrite, WritesExactBytes) {
  const std::string path = ::testing::TempDir() + "atomic_write_new.txt";
  bu::atomic_write(path, "hello\nworld\n");
  EXPECT_EQ(slurp(path), "hello\nworld\n");
}

TEST(AtomicWrite, ReplacesExistingFileCompletely) {
  const std::string path = ::testing::TempDir() + "atomic_write_replace.txt";
  bu::atomic_write(path, std::string(4096, 'x'));
  bu::atomic_write(path, "short");
  // rename(2) replacement: the new content, never old-tail residue.
  EXPECT_EQ(slurp(path), "short");
}

TEST(AtomicWrite, FailureLeavesTargetUntouched) {
  const std::string dir = ::testing::TempDir() + "atomic_write_no_such_dir";
  const std::string path = dir + "/out.txt";
  // The temporary lives next to the target, so a missing parent
  // directory fails the write before anything is renamed into place.
  EXPECT_THROW(bu::atomic_write(path, "content"), std::runtime_error);
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(AtomicWrite, EmptyContentIsValid) {
  const std::string path = ::testing::TempDir() + "atomic_write_empty.txt";
  bu::atomic_write(path, "seed");
  bu::atomic_write(path, "");
  EXPECT_EQ(slurp(path), "");
}

// ---------------------------------------------------------------------------
// obs::parse_json depth limit

namespace {

std::string nested_arrays(int depth) {
  std::string s;
  s.reserve(static_cast<std::size_t>(depth) * 2);
  for (int i = 0; i < depth; ++i) s += '[';
  for (int i = 0; i < depth; ++i) s += ']';
  return s;
}

}  // namespace

TEST(JsonDepthLimit, AcceptsDepth256) {
  const auto v = bo::parse_json(nested_arrays(256));
  EXPECT_EQ(v.kind(), bo::JsonValue::Kind::Array);
}

TEST(JsonDepthLimit, RejectsDepth257WithClearError) {
  try {
    (void)bo::parse_json(nested_arrays(257));
    FAIL() << "depth-257 document parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting depth"), std::string::npos)
        << "unhelpful error: " << e.what();
  }
}

TEST(JsonDepthLimit, AppliesToObjectsToo) {
  std::string s;
  for (int i = 0; i < 257; ++i) s += "{\"k\":";
  s += "0";
  for (int i = 0; i < 257; ++i) s += '}';
  EXPECT_THROW((void)bo::parse_json(s), std::runtime_error);
}

// ---------------------------------------------------------------------------
// simt::Engine deadline / cooperative abort

TEST(EngineDeadline, UnreachableDeadlineChangesNothing) {
  bs::Engine e;
  double woke_at = -1.0;
  e.set_deadline(1e9);
  e.spawn([&](bs::Process& p) {
    p.sleep(2.5);
    woke_at = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);
  EXPECT_FALSE(e.aborted());
}

TEST(EngineDeadline, ExpiredDeadlineAbortsAtTheDeadline) {
  bs::Engine e;
  e.set_deadline(1.0);
  bool reached_end = false;
  e.spawn([&](bs::Process& p) {
    p.sleep(5.0);  // would finish at t=5, past the deadline
    reached_end = true;
  });
  try {
    e.run();
    FAIL() << "deadline did not abort the run";
  } catch (const bs::AbortError& err) {
    EXPECT_NE(std::string(err.what()).find("deadline"), std::string::npos);
  }
  EXPECT_FALSE(reached_end);
  EXPECT_TRUE(e.aborted());
  // The clock stops AT the deadline, never at the overdue event.
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(EngineDeadline, AbortUnwindsEveryLiveProcess) {
  bs::Engine e;
  e.set_deadline(1.0);
  int unwound = 0;
  for (int i = 0; i < 4; ++i) {
    e.spawn([&](bs::Process& p) {
      try {
        p.sleep(10.0);
      } catch (const bs::AbortError&) {
        ++unwound;  // cooperative unwind releases the fiber stack
        throw;
      }
    });
  }
  EXPECT_THROW(e.run(), bs::AbortError);
  EXPECT_EQ(unwound, 4);
}
