// report::run_cells schedules one task per b_eff cell, b_eff_io chain,
// kernel suite and fault-sweep cell (DESIGN.md Sec. 9).  These tests
// pin the task count the scheduler sees, the per-task profiler spans,
// byte-identity of the run record across --jobs with and without a
// fault plan, and that a full-journal resume schedules only the
// (never journaled) kernel suites.
#include "core/report/experiments.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "machines/machines.hpp"
#include "obs/prof.hpp"
#include "util/parallel.hpp"

namespace balbench::report {
namespace {

/// b_eff t3e/8 with analysis, b_eff_io t3e/4 at T = 30 s, one kernel
/// suite and one fault-sweep point.
ExperimentsData small_data() {
  ExperimentsData d;
  BeffRun b;
  b.key = "t3e";
  b.display = "Cray T3E/900";
  b.nprocs = 8;
  b.first = true;
  d.beff.push_back(b);
  IoRun io;
  io.key = "t3e";
  io.display = "Cray T3E/900";
  io.figure = "fig3";
  io.nprocs = 4;
  io.scheduled_seconds = 30.0;
  d.io.push_back(io);
  KernelRun k;
  k.key = "sx5";
  k.display = "NEC SX-5/8B";
  k.nprocs = 4;
  d.kernels.push_back(k);
  FaultSweepRun fs;
  fs.key = "t3e";
  fs.display = "Cray T3E/900";
  fs.nprocs = 4;
  fs.rate = 0.25;
  fs.plan.link_degrade_prob = 0.25;
  d.fault_sweep.push_back(fs);
  return d;
}

std::string record_of(const ExperimentOptions& options) {
  ExperimentsData d = small_data();
  run_cells(d, options);
  std::ostringstream os;
  write_run_record(os, d, "test-hash", "test-rev");
  return os.str();
}

/// Σ cells + Σ chains + kernel suites of small_data().
std::size_t fresh_task_count() {
  beff::BeffOptions with_analysis;
  beff::BeffOptions without_analysis;
  without_analysis.measure_analysis = false;
  beffio::BeffIoOptions io;
  io.scheduled_time = 30.0;
  const std::size_t cells = beff::CellSweep(8, with_analysis).num_cells() +
                            beff::CellSweep(4, without_analysis).num_cells();
  const auto chains = static_cast<std::size_t>(
      beffio::ChainSweep(*machines::machine_by_name("t3e").io, 4, io)
          .num_chains());
  return cells + chains + 1;
}

/// Sums the task counts of every parallel_for batch.
class BatchCounter : public util::PoolObserver {
 public:
  void on_batch_begin(std::uint64_t, std::size_t n, int, double) override {
    tasks += n;
  }
  std::atomic<std::size_t> tasks{0};
};

std::size_t scheduled_tasks(const ExperimentOptions& options,
                            std::string* record) {
  BatchCounter counter;
  util::set_pool_observer(&counter);
  *record = record_of(options);
  util::set_pool_observer(nullptr);
  return counter.tasks;
}

TEST(TaskList, RecordIsByteIdenticalAcrossJobs) {
  const robust::FaultPlan plan =
      robust::FaultPlan::parse("seed=7,link=0.1,stall=0.05");
  std::set<std::string> serial_records;
  for (const robust::FaultPlan* p :
       {static_cast<const robust::FaultPlan*>(nullptr), &plan}) {
    ExperimentOptions options;
    options.fault_plan = p;
    const std::string serial = record_of(options);
    serial_records.insert(serial);
    for (int jobs : {2, 4}) {
      options.jobs = jobs;
      EXPECT_EQ(record_of(options), serial)
          << "jobs " << jobs << (p != nullptr ? " with faults" : "");
    }
  }
  EXPECT_EQ(serial_records.size(), 2u);  // the plan does change the record
}

TEST(TaskList, OneTaskPerCellChainAndSuite) {
  ExperimentOptions options;
  options.jobs = 2;
  std::string record;
  EXPECT_EQ(scheduled_tasks(options, &record), fresh_task_count());
}

TEST(TaskList, ProfilerSpanPerTaskNamesRowAndCell) {
  obs::prof::Profiler profiler;
  obs::prof::attach(&profiler);
  ExperimentOptions options;
  options.jobs = 2;
  record_of(options);
  obs::prof::attach(nullptr);
  std::multiset<std::string> cells;
  for (const auto& s : profiler.spans()) {
    if (std::string_view(s.category) == "cell") cells.insert(s.label);
  }
  EXPECT_EQ(cells.size(), fresh_task_count());
  for (const char* label :
       {"b_eff t3e, 8 procs: ping-pong", "b_eff t3e, 8 procs: random-8/Sendrecv",
        "b_eff_io fig3/t3e, 4 procs, T=30s: scatter",
        "kernels sx5, 4 procs",
        "fault-sweep t3e, 4 procs, link=0.25: ring-4/Nonblocking"}) {
    EXPECT_GE(cells.count(label), 1u) << label;
  }
}

TEST(TaskList, FullJournalResumeSchedulesOnlyKernels) {
  const std::string path = ::testing::TempDir() + "task_list_journal.json";
  std::remove(path.c_str());
  ExperimentOptions options;
  options.jobs = 2;
  options.checkpoint_path = path;
  const std::string fresh = record_of(options);
  options.resume = true;
  std::string resumed;
  EXPECT_EQ(scheduled_tasks(options, &resumed), 1u);  // the kernel suite
  EXPECT_EQ(resumed, fresh);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace balbench::report
