// Tests for the in-order sweep scheduler (util/parallel.hpp):
// coverage, ordered reduction determinism, the failure contract, and
// the observer telemetry.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace bu = balbench::util;

TEST(Parallel, HardwareJobsIsPositive) {
  EXPECT_GE(bu::hardware_jobs(), 1);
}

TEST(Parallel, ResolveJobs) {
  EXPECT_EQ(bu::resolve_jobs(1), 1);
  EXPECT_EQ(bu::resolve_jobs(7), 7);
  EXPECT_EQ(bu::resolve_jobs(0), bu::hardware_jobs());
  EXPECT_EQ(bu::resolve_jobs(-5), bu::hardware_jobs());
  EXPECT_EQ(bu::resolve_jobs(1 << 20), 1024);  // sanity cap
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce) {
  const std::size_t n = 257;  // not a multiple of any worker count
  for (int jobs : {1, 2, 4, 13}) {
    std::vector<std::atomic<int>> hits(n);
    bu::parallel_for(jobs, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " index=" << i;
    }
  }
}

TEST(Parallel, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  bu::parallel_for(4, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, SerialPoolRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  bu::parallel_for(1, 16, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(Parallel, OrderedReduceIsByteIdenticalForAnyJobs) {
  // Floating-point addition is not associative, so determinism requires
  // reducing the slots strictly in index order.  Slot values span many
  // magnitudes to make any reordering visible in the bits.
  const std::size_t n = 301;
  auto fill = [&](int jobs) {
    std::vector<double> slots(n);
    bu::parallel_for(jobs, n, [&](std::size_t i) {
      slots[i] = std::ldexp(1.0 + 0.1 * static_cast<double>(i % 7),
                            static_cast<int>(i % 64) - 32);
    });
    return slots;
  };
  const auto serial = fill(1);
  double expect = 0.0;
  for (double v : serial) expect += v;
  for (int jobs : {2, 4, 8}) {
    double sum = 0.0;
    for (double v : fill(jobs)) sum += v;
    EXPECT_EQ(sum, expect) << "jobs=" << jobs;  // bitwise, not NEAR
  }
}

TEST(Parallel, ExceptionFromLowestIndexWins) {
  for (int jobs : {1, 4}) {
    try {
      bu::parallel_for(jobs, 64, [&](std::size_t i) {
        if (i == 7 || i == 3 || i == 50) {
          throw std::runtime_error("cell " + std::to_string(i));
        }
      });
      FAIL() << "expected throw (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 3") << "jobs=" << jobs;
    }
  }
}

TEST(Parallel, LaterCellsStillRunAfterThrow) {
  // A failed batch leaves nothing behind: the next parallel_for runs
  // every index.
  EXPECT_THROW(bu::parallel_for(4, 32,
                                [](std::size_t i) {
                                  if (i == 0) throw std::logic_error("boom");
                                }),
               std::logic_error);
  std::atomic<int> ok{0};
  bu::parallel_for(4, 32, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 32);
}

TEST(Parallel, FailureStopsClaimsAndRethrowsLowestIndex) {
  // Indices 20 and 45 throw.  Claims are in index order, so every
  // index below 20 was claimed first and ran exactly once; index 20
  // is always rethrown, never 45.  Serially nothing after 20 runs.
  const std::size_t n = 64;
  for (int jobs : {1, 2, 4}) {
    std::vector<std::atomic<int>> runs(n);
    try {
      bu::parallel_for(jobs, n, [&](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == 20 || i == 45) {
          throw std::runtime_error("cell " + std::to_string(i));
        }
      });
      FAIL() << "expected throw (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 20") << "jobs=" << jobs;
    }
    for (std::size_t i = 0; i <= 20; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "jobs=" << jobs << " index=" << i;
    }
    for (std::size_t i = 21; i < n; ++i) {
      EXPECT_LE(runs[i].load(), jobs == 1 ? 0 : 1)
          << "jobs=" << jobs << " index=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Contention shapes (run under the `tsan` preset: many workers racing
// on the shared claim counter, idle helpers, and uneven task cost).
// ---------------------------------------------------------------------------

TEST(ParallelContention, ManyTinyCellsUnderHeavyContention) {
  // ~20k near-empty cells across 8 workers: every claim races the
  // other seven on the shared counter.
  const std::size_t n = 20000;
  std::vector<std::int8_t> hit(n, 0);
  std::atomic<std::uint64_t> sum{0};
  bu::parallel_for(8, n, [&](std::size_t i) {
    hit[i] = 1;
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hit[i], 1) << i;
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelContention, JobsFarExceedCells) {
  // 16 jobs for 3 cells: the worker count is capped at the cell count
  // and helpers that find the counter exhausted exit at once.  Repeat
  // to catch a racy start-up or join path.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    bu::parallel_for(16, 3, [&](std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 3) << "round " << round;
  }
}

TEST(ParallelContention, CellsFarExceedJobsWithUnevenCost) {
  // 2 workers, 4096 cells with a few heavyweight outliers: while one
  // worker is stuck on an outlier the other claims nearly everything.
  const std::size_t n = 4096;
  std::vector<double> out(n, 0.0);
  bu::parallel_for(2, n, [&](std::size_t i) {
    double acc = 0.0;
    const int spin = (i % 1000 == 0) ? 20000 : 1;
    for (int k = 0; k < spin; ++k) acc += std::sqrt(static_cast<double>(k + i));
    out[i] = acc;
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_GT(out[i], 0.0) << i;
}

namespace {

/// Counts observer callbacks; the assertions below pin the contract
/// that obs::prof::Profiler relies on (every claimed task reported
/// exactly once, before parallel_for returns).
class CountingObserver final : public bu::PoolObserver {
 public:
  void on_batch_begin(std::uint64_t, std::size_t n, int workers,
                      double) override {
    begins.fetch_add(1);
    last_n = n;
    last_workers = workers;
  }
  void on_batch_end(std::uint64_t, double) override { ends.fetch_add(1); }
  void on_task(std::uint64_t, std::size_t index, int worker, double start,
               double end) override {
    tasks.fetch_add(1);
    index_sum.fetch_add(index);
    if (worker < 0 || start > end) bad.fetch_add(1);
  }
  std::atomic<int> begins{0}, ends{0};
  std::atomic<std::uint64_t> tasks{0}, index_sum{0}, bad{0};
  std::size_t last_n = 0;
  int last_workers = 0;
};

}  // namespace

TEST(ParallelObserver, EveryTaskReportedExactlyOnce) {
  CountingObserver obs;
  bu::set_pool_observer(&obs);
  const std::size_t n = 5000;
  bu::parallel_for(4, n, [](std::size_t) {});
  bu::set_pool_observer(nullptr);
  EXPECT_EQ(obs.begins.load(), 1);
  EXPECT_EQ(obs.ends.load(), 1);
  EXPECT_EQ(obs.tasks.load(), n);  // on_task happens-before return
  EXPECT_EQ(obs.index_sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
  EXPECT_EQ(obs.bad.load(), 0u);
  EXPECT_EQ(obs.last_n, n);
  EXPECT_EQ(obs.last_workers, 4);
}

TEST(ParallelObserver, FreeFunctionRoutesSerialWorkThroughObserver) {
  // The free parallel_for's serial fast path must not bypass telemetry
  // when an observer is attached (--jobs 1 profiling would lose cells).
  CountingObserver obs;
  bu::set_pool_observer(&obs);
  bu::parallel_for(1, 17, [](std::size_t) {});
  bu::set_pool_observer(nullptr);
  EXPECT_EQ(obs.begins.load(), 1);
  EXPECT_EQ(obs.ends.load(), 1);
  EXPECT_EQ(obs.tasks.load(), 17u);
}

TEST(ParallelObserver, NonPositiveJobsUseEveryHardwareThread) {
  // `--jobs 0` means all hardware threads, and so does any negative
  // value; neither may fall back to one worker.
  const std::size_t n = 8;
  const int want =
      static_cast<int>(std::min<std::size_t>(bu::hardware_jobs(), n));
  for (int jobs : {0, -3}) {
    CountingObserver obs;
    bu::set_pool_observer(&obs);
    bu::parallel_for(jobs, n, [](std::size_t) {});
    bu::set_pool_observer(nullptr);
    EXPECT_EQ(obs.last_workers, want) << "jobs=" << jobs;
    EXPECT_EQ(obs.tasks.load(), n) << "jobs=" << jobs;
  }
}

TEST(ParallelObserver, TaskThatThrewIsStillReported) {
  // Serially, index 5 throws and nothing after it is claimed: exactly
  // indices 0..5 are reported, the failing one included.
  CountingObserver obs;
  bu::set_pool_observer(&obs);
  EXPECT_THROW(bu::parallel_for(1, 16,
                                [](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  bu::set_pool_observer(nullptr);
  EXPECT_EQ(obs.tasks.load(), 6u);
  EXPECT_EQ(obs.index_sum.load(), 15u);
  EXPECT_EQ(obs.ends.load(), 1);
}

TEST(ParallelObserver, DetachedByDefaultAndAfterReset) {
  EXPECT_EQ(bu::pool_observer(), nullptr);
  CountingObserver obs;
  bu::set_pool_observer(&obs);
  EXPECT_EQ(bu::pool_observer(), &obs);
  bu::set_pool_observer(nullptr);
  bu::parallel_for(2, 8, [](std::size_t) {});
  EXPECT_EQ(obs.tasks.load(), 0u);  // nothing observed once detached
}
