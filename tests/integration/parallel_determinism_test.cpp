// The central claim of the parallel sweep scheduler: `--jobs N` cannot
// change a single reported number.  These tests run reduced b_eff and
// b_eff_io rows through report::run_cells -- the one cell runner, a
// fresh simulator per cell -- at several worker counts, and against the
// serial overloads that reuse one transport for every cell, and require
// byte-identical protocols and exports: EXPECT_EQ on doubles and string
// equality on the rendered reports, never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/beff/beff.hpp"
#include "core/beffio/beffio.hpp"
#include "core/report/experiments.hpp"
#include "core/report/export.hpp"
#include "core/scenario/scenario.hpp"
#include "machines/machines.hpp"
#include "parmsg/sim_transport.hpp"

namespace bb = balbench::beff;
namespace bio = balbench::beffio;
namespace bm = balbench::machines;
namespace bp = balbench::parmsg;
namespace br = balbench::report;
namespace bs = balbench::scenario;

namespace {

/// The SR 2201 with 8 MB per process, so L_max = 64 kB: a reduced
/// sweep over the same code paths.
bm::MachineSpec small_sr2201() {
  bm::MachineSpec m = bm::hitachi_sr2201();
  m.short_name = "sr2201-64k";
  m.memory_per_proc = 8LL * 1024 * 1024;
  return m;
}

/// One b_eff row with the analysis cells on 8 processes.
bb::BeffResult run_beff_with_jobs(int jobs) {
  bs::Scenario sc;
  sc.machines.push_back({small_sr2201(), "sr2201-64k"});
  br::ExperimentsData data;
  br::BeffRun& row = data.beff.emplace_back();
  row.key = "sr2201-64k";
  row.nprocs = 8;
  row.first = true;
  br::ExperimentOptions options;
  options.jobs = jobs;
  options.scenario = &sc;
  br::run_cells(data, options);
  return data.beff.front().r;
}

/// One b_eff_io row on 4 T3E processes at a reduced T of 30 s.
bio::BeffIoResult run_beffio_with_jobs(int jobs) {
  br::ExperimentsData data;
  br::IoRun& row = data.io.emplace_back();
  row.key = "t3e";
  row.nprocs = 4;
  row.scheduled_seconds = 30.0;
  br::ExperimentOptions options;
  options.jobs = jobs;
  br::run_cells(data, options);
  return data.io.front().r;
}

std::string beff_exports(const bb::BeffResult& r) {
  std::ostringstream os;
  br::write_beff_csv(os, "det-test", r);
  br::write_beff_summary(os, "det-test", r);
  return os.str();
}

std::string beffio_exports(const bio::BeffIoResult& r) {
  std::ostringstream os;
  br::write_beffio_csv(os, "det-test", r);
  br::write_beffio_summary(os, "det-test", r);
  return os.str();
}

}  // namespace

TEST(ParallelDeterminism, BeffFactorySerialMatchesSingleTransport) {
  // run_cells at jobs=1 builds a fresh transport per cell; it must
  // agree byte-for-byte with the serial overload reusing one transport
  // (SimRun state is rebuilt per session).
  const auto spec = small_sr2201();
  const int np = 8;
  bb::BeffOptions opt;
  opt.memory_per_proc = spec.memory_per_proc;
  bp::SimTransport t(spec.make_topology(np), spec.costs);
  const auto serial = bb::run_beff(t, np, opt);
  const auto cells = run_beff_with_jobs(1);
  EXPECT_EQ(bb::protocol_report(serial), bb::protocol_report(cells));
  EXPECT_EQ(beff_exports(serial), beff_exports(cells));
  EXPECT_EQ(serial.b_eff, cells.b_eff);
  EXPECT_EQ(serial.benchmark_seconds, cells.benchmark_seconds);
}

TEST(ParallelDeterminism, BeffJobsDoNotChangeProtocolOrExports) {
  const auto r1 = run_beff_with_jobs(1);
  const std::string proto1 = bb::protocol_report(r1);
  const std::string exports1 = beff_exports(r1);
  for (int jobs : {2, 4}) {
    const auto rn = run_beff_with_jobs(jobs);
    EXPECT_EQ(proto1, bb::protocol_report(rn)) << "jobs=" << jobs;
    EXPECT_EQ(exports1, beff_exports(rn)) << "jobs=" << jobs;
    EXPECT_EQ(r1.b_eff, rn.b_eff) << "jobs=" << jobs;
    EXPECT_EQ(r1.b_eff_at_lmax, rn.b_eff_at_lmax) << "jobs=" << jobs;
    EXPECT_EQ(r1.benchmark_seconds, rn.benchmark_seconds) << "jobs=" << jobs;
    EXPECT_EQ(r1.analysis.pingpong_bw, rn.analysis.pingpong_bw)
        << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, BeffIoFactorySerialMatchesSingleTransport) {
  const auto spec = bm::cray_t3e_900();
  const int np = 4;
  bio::BeffIoOptions opt;
  opt.scheduled_time = 30.0;
  opt.memory_per_node = spec.memory_per_proc;
  opt.file_prefix = spec.short_name;  // run_cells' file names
  bp::SimTransport t(spec.make_topology(np), spec.costs);
  const auto serial = bio::run_beffio(t, *spec.io, np, opt);
  const auto cells = run_beffio_with_jobs(1);
  EXPECT_EQ(bio::beffio_report(serial), bio::beffio_report(cells));
  EXPECT_EQ(beffio_exports(serial), beffio_exports(cells));
  EXPECT_EQ(serial.b_eff_io, cells.b_eff_io);
}

TEST(ParallelDeterminism, BeffIoJobsDoNotChangeProtocolOrExports) {
  const auto r1 = run_beffio_with_jobs(1);
  const std::string proto1 = bio::beffio_report(r1);
  const std::string exports1 = beffio_exports(r1);
  for (int jobs : {2, 4}) {
    const auto rn = run_beffio_with_jobs(jobs);
    EXPECT_EQ(proto1, bio::beffio_report(rn)) << "jobs=" << jobs;
    EXPECT_EQ(exports1, beffio_exports(rn)) << "jobs=" << jobs;
    EXPECT_EQ(r1.b_eff_io, rn.b_eff_io) << "jobs=" << jobs;
    EXPECT_EQ(r1.benchmark_seconds, rn.benchmark_seconds) << "jobs=" << jobs;
    EXPECT_EQ(r1.segment_bytes, rn.segment_bytes) << "jobs=" << jobs;
    EXPECT_EQ(r1.fs_stats.seeks, rn.fs_stats.seeks) << "jobs=" << jobs;
  }
}
