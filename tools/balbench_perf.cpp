// balbench-perf: wall-clock performance tracking with a statistically
// sound regression gate (DESIGN.md Sec. 11).
//
// Runs a configurable suite of host-timed cells -- substrate
// microbenchmarks, the quick-scope EXPERIMENTS sweep cells (each one
// row of report::sweep_spec() simulated by report::run_cells, the
// report's own cell runner), and fixed-duration calibration spins --
// several times each and emits a perf record
// ("balbench-perf-record/1" JSON): raw samples plus
// median, MAD and a bootstrap 95 % confidence interval of the median
// per cell, stamped with the suite's config hash and the git revision.
//
//   --suite S         comma-separated subset of the registered suites
//                     (micro, sweep, kernels, calib -- see kSuites; the
//                     help text is generated from the registry so it
//                     cannot drift) or "all"; default all
//   --scenario FILE   load a balbench-scenario/1 file (core/scenario,
//                     docs/SCENARIOS.md) and register its cells as an
//                     extra suite named "scenario" (ids
//                     scenario.beff.<machine>.np<N> etc.); "all" then
//                     includes it, "--suite scenario" runs it alone.
//                     Without the flag the suite does not exist, so the
//                     default cell list and config hash are unchanged
//   --repeat N        recorded samples per cell (default 5)
//   --warmup N        unrecorded warm-up runs per cell (default 1)
//   --out FILE        where to write the record (default
//                     BENCH_PERF.json, "-" = stdout)
//   --baseline FILE   compare against an earlier record and exit 1 on
//                     regression (see below)
//   --threshold X     regression slack as a fraction (default 0.10)
//   --validate FILE   schema-check an existing record and exit (no
//                     cells are run)
//   --handicap ID=F   artificially slow every sample of cell ID by
//                     factor F (busy-spin); exists so the gate itself
//                     is testable end to end.  An ID that names no
//                     selected cell is bad usage
//   --wall-profile F  wall-clock profile of the run (obs/prof.hpp)
//   --checkpoint FILE crash-safe journal of completed cells (a
//                     "perf-checkpoint" balbench-journal/1, atomically
//                     rewritten after each cell, DESIGN.md Sec. 12.3)
//   --resume          replay samples of cells already completed in the
//                     --checkpoint journal instead of re-timing them
//
// Exit codes: 0 = clean; 3 = the gate found regressions; 1 = fatal
// error; 2 = bad usage.
//
// Median/MAD/bootstrap follow the robust-statistics advice for noisy
// benchmark environments (Hunold & Carpen-Amarie): the median of a
// handful of repetitions is far more stable than the mean, and a
// percentile-bootstrap CI of the median gives an honest "could this
// just be noise?" band without any normality assumption.
//
// The regression rule is CI overlap, not point comparison: cell ID
// regressed iff current ci_lo > baseline ci_hi * (1 + threshold),
// i.e. even the optimistic edge of the current run is slower than the
// pessimistic edge of the baseline plus slack.  A noisy cell widens
// its own CI and therefore gates itself less aggressively -- the gate
// never flags what it cannot statistically distinguish.
//
// Cells always run serially (timing!), and every number here is HOST
// wall-clock: per DESIGN.md Sec. 10.2 nothing in this record may ever
// feed a benchmark result or byte-compared output.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/beff/beff.hpp"
#include "core/beff/patterns.hpp"
#include "core/beffio/pattern_table.hpp"
#include "core/report/checkpoint.hpp"
#include "core/report/experiments.hpp"
#include "core/scenario/scenario.hpp"
#include "machines/machines.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "parmsg/sim_transport.hpp"
#include "simt/engine.hpp"
#include "simt/fiber.hpp"
#include "util/atomic_write.hpp"
#include "util/hash.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/wallclock.hpp"

namespace {

using namespace balbench;

/// Sink that keeps cell bodies from being optimized away.
volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// Cell suites
// ---------------------------------------------------------------------------

struct Cell {
  std::string id;     // "suite.name[...]", unique across the run
  std::string suite;  // a kSuites name: "micro" | "sweep" | ...
  std::function<void()> body;
};

/// Substrate microbenchmarks, mirroring bench/micro_core.cpp but sized
/// as one-shot cells (each body is one recorded sample).
std::vector<Cell> micro_cells() {
  std::vector<Cell> v;
  auto add = [&](const char* name, std::function<void()> body) {
    v.push_back(Cell{std::string("micro.") + name, "micro", std::move(body)});
  };
  add("fiber_switch", [] {
    simt::Fiber fiber([] {
      for (;;) simt::Fiber::suspend();
    });
    for (int i = 0; i < 100000; ++i) fiber.resume();
  });
  add("engine_dispatch", [] {
    for (int rep = 0; rep < 8; ++rep) {
      simt::Engine engine;
      for (int i = 0; i < 16384; ++i) {
        engine.schedule_at(static_cast<double>(i), [] {});
      }
      engine.run();
      g_sink = engine.now();
    }
  });
  add("flow_resolve_ring", [] {
    constexpr int nprocs = 64;
    net::Torus3DParams p;
    net::torus_dims_for(nprocs, p.dims);
    auto topo = net::make_torus3d(p);
    simt::Engine engine;
    net::FlowNetwork flows(*topo, engine);
    for (int i = 0; i < nprocs; ++i) {
      flows.start_flow(i, (i + 1) % nprocs, 1 << 20, [](simt::Time) {});
      flows.start_flow(i, (i + nprocs - 1) % nprocs, 1 << 20,
                       [](simt::Time) {});
    }
    engine.run();
    g_sink = static_cast<double>(flows.resolves());
  });
  add("sim_barrier", [] {
    constexpr int nprocs = 32;
    net::CrossbarParams p;
    p.processes = nprocs;
    parmsg::SimTransport t(net::make_crossbar(p), parmsg::CommCosts{});
    t.run(nprocs, [](parmsg::Comm& c) {
      for (int i = 0; i < 10; ++i) c.barrier();
    });
  });
  add("pattern_table", [] {
    for (int rep = 0; rep < 4; ++rep) {
      auto table = beffio::pattern_table(8LL << 20);
      g_sink = static_cast<double>(table.size());
    }
  });
  add("beff_small", [] {
    auto m = machines::nec_sx5();
    parmsg::SimTransport t(m.make_topology(4), m.costs);
    beff::BeffOptions opt;
    opt.memory_per_proc = m.memory_per_proc;
    opt.measure_analysis = false;
    auto r = beff::run_beff(t, 4, opt);
    g_sink = r.b_eff;
  });
  return v;
}

/// The pipeline's own cells, one per row of `spec`: ids
/// "<prefix>beff.<machine>.np<N>", "<prefix>beffio.<figure>.<machine>.np<N>"
/// (scenario rows carry no figure), "<prefix>kernels.<machine>.np<N>"
/// and "<prefix>faultsweep.<machine>.np<N>.r<i>".  Each body copies its
/// row into a one-row ExperimentsData and simulates it with
/// report::run_cells, the code balbench-report runs -- scenario
/// machines and fault plan included -- so a cell times exactly the
/// work the report does for that row.  A kernel suite run is
/// microseconds of host time, so a kernel cell runs its row
/// kKernelRuns times to make a sample dominated by the work rather
/// than the timer.
std::vector<Cell> pipeline_cells(
    const char* suite, const std::string& prefix,
    const report::ExperimentsData& spec,
    const std::shared_ptr<const scenario::Scenario>& sc) {
  constexpr std::size_t kKernelRuns = 50;
  std::vector<Cell> v;
  // `fill` puts the cell's row into an empty ExperimentsData.
  auto add = [&](const std::string& id, auto fill) {
    report::ExperimentsData one;
    fill(one);
    v.push_back(Cell{prefix + id, suite, [one, sc] {
                       report::ExperimentOptions options;
                       options.scenario = sc.get();
                       report::ExperimentsData data = one;
                       report::run_cells(data, options);
                     }});
  };
  auto np = [](int nprocs) { return ".np" + std::to_string(nprocs); };
  for (const auto& row : spec.beff) {
    add("beff." + row.key + np(row.nprocs), [&](auto& d) { d.beff = {row}; });
  }
  for (const auto& row : spec.io) {
    const std::string figure = sc == nullptr ? row.figure + "." : "";
    add("beffio." + figure + row.key + np(row.nprocs),
        [&](auto& d) { d.io = {row}; });
  }
  for (const auto& row : spec.kernels) {
    add("kernels." + row.key + np(row.nprocs),
        [&](auto& d) { d.kernels.assign(kKernelRuns, row); });
  }
  for (std::size_t i = 0; i < spec.fault_sweep.size(); ++i) {
    const auto& row = spec.fault_sweep[i];
    // Indexed ids: float-formatted rates in ids would couple the cell
    // list (and thus the config hash) to printf rounding.
    add("faultsweep." + row.key + np(row.nprocs) + ".r" + std::to_string(i),
        [&](auto& d) { d.fault_sweep = {row}; });
  }
  return v;
}

/// The quick-scope sweep, the rows `balbench-report --scope quick` runs.
report::ExperimentsData quick_spec() {
  return report::sweep_spec(report::ExperimentOptions{});
}

/// The quick-scope b_eff and b_eff_io cells, then the synthetic
/// machine-scale cells.
std::vector<Cell> sweep_cells() {
  report::ExperimentsData spec = quick_spec();
  // Kernel rows are the kernels suite's.  The fault sweep re-runs the
  // t3e/2 b_eff cell under link faults and was never a perf cell;
  // adding it would change the committed baseline's cell list.
  spec.kernels.clear();
  spec.fault_sweep.clear();
  std::vector<Cell> v = pipeline_cells("sweep", "sweep.", spec, nullptr);
  // Machine-scale cells: a T3E-512-class partition, the configuration
  // that dominates the doc-scope sweep's wall-clock.  These gate the
  // DES-core hot path (fiber construction, event queue, flow solver)
  // at the scale where it matters, with the message pattern cut down
  // to a couple of exchanges so a sample stays in seconds.
  {
    constexpr int np512 = 512;
    Cell c;
    c.id = "sweep.t3e512.construct";
    c.suite = "sweep";
    c.body = [] {
      auto m = machines::machine_by_name("t3e");
      for (int rep = 0; rep < 4; ++rep) {
        parmsg::SimTransport t(m.make_topology(np512), m.costs);
        t.run(np512, [](parmsg::Comm& comm) { comm.barrier(); });
      }
    };
    v.push_back(std::move(c));
    auto add_pattern = [&v](const char* name, bool random) {
      Cell pc;
      pc.id = std::string("sweep.t3e512.") + name;
      pc.suite = "sweep";
      pc.body = [random] {
        auto m = machines::machine_by_name("t3e");
        parmsg::SimTransport t(m.make_topology(np512), m.costs);
        const beff::CommPattern pat =
            random ? beff::make_random_pattern(2, np512, 2001)
                   : beff::make_ring_pattern(0, np512);
        t.run(np512, [&pat](parmsg::Comm& comm) {
          const int r = comm.rank();
          const std::size_t bytes = 1 << 20;
          for (int iter = 0; iter < 2; ++iter) {
            auto rl = comm.irecv(pat.left[static_cast<std::size_t>(r)],
                                 nullptr, bytes, 0);
            auto rr = comm.irecv(pat.right[static_cast<std::size_t>(r)],
                                 nullptr, bytes, 0);
            auto sl = comm.isend(pat.left[static_cast<std::size_t>(r)],
                                 nullptr, bytes, 0);
            auto sr = comm.isend(pat.right[static_cast<std::size_t>(r)],
                                 nullptr, bytes, 0);
            comm.wait(rl);
            comm.wait(rr);
            comm.wait(sl);
            comm.wait(sr);
          }
        });
        g_sink = t.last_virtual_time();
      };
      v.push_back(std::move(pc));
    };
    add_pattern("ring", false);
    add_pattern("random", true);
  }
  return v;
}

/// The quick-scope kernel-suite cells.
std::vector<Cell> kernel_cells() {
  report::ExperimentsData spec;
  spec.kernels = quick_spec().kernels;
  return pipeline_cells("kernels", "", spec, nullptr);
}

/// Fixed-duration busy-spins.  Their true cost is known by
/// construction, which makes them the stable cells the perf-gate smoke
/// test keys on (a real workload's wall time can swing with machine
/// load; a calibrated spin cannot, short of clock trouble).
std::vector<Cell> calib_cells() {
  std::vector<Cell> v;
  v.push_back(Cell{"calib.spin_1ms", "calib", [] { util::wall_spin(0.001); }});
  v.push_back(Cell{"calib.spin_5ms", "calib", [] { util::wall_spin(0.005); }});
  return v;
}

/// Cells of a --scenario FILE run (core/scenario), one per scheduled
/// configuration: the opt-in fifth suite, named "scenario".  It exists
/// only when the flag is given, so the default registry composition --
/// and with it the perf config hash the committed BENCH_PERF.json
/// baseline pins -- never changes.
std::vector<Cell> scenario_cells(
    const std::shared_ptr<const scenario::Scenario>& sc) {
  report::ExperimentOptions options;
  options.scenario = sc.get();
  return pipeline_cells("scenario", "scenario.", report::sweep_spec(options),
                        sc);
}

/// The suite registry: one row per suite, in execution order.  Help
/// text, --suite parsing and error messages are all generated from
/// this table, so none of them can drift from the code (the one-place
/// rule that ISSUE 6 asked for).
struct SuiteSpec {
  const char* name;
  std::vector<Cell> (*factory)();
};

constexpr SuiteSpec kSuites[] = {
    {"micro", micro_cells},
    {"sweep", sweep_cells},
    {"kernels", kernel_cells},
    {"calib", calib_cells},
};

/// "micro | sweep | kernels | calib | all", generated from kSuites.
std::string suite_list() {
  std::string out;
  for (const auto& s : kSuites) {
    out += s.name;
    out += " | ";
  }
  return out + "all";
}

/// Parses "--suite micro,calib" (or "all") into the cell list, in
/// fixed registry order regardless of spelling order.  `scenario` is
/// the extra opt-in suite of a --scenario run (nullptr without the
/// flag): "all" includes it, and "scenario" selects it by name -- only
/// when it exists, so the registry help text stays exact for plain
/// runs.
std::vector<Cell> select_cells(const std::string& suites,
                               const std::vector<Cell>* scenario,
                               std::string* error) {
  constexpr std::size_t n_suites = std::size(kSuites);
  bool selected[n_suites] = {};
  bool selected_scenario = false;
  std::stringstream in(suites);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (part.empty()) continue;
    if (part == "all") {
      for (auto& s : selected) s = true;
      selected_scenario = scenario != nullptr;
      continue;
    }
    if (part == "scenario") {
      if (scenario == nullptr) {
        *error = "suite 'scenario' needs --scenario FILE";
        return {};
      }
      selected_scenario = true;
      continue;
    }
    bool known = false;
    for (std::size_t i = 0; i < n_suites; ++i) {
      if (part == kSuites[i].name) {
        selected[i] = true;
        known = true;
        break;
      }
    }
    if (!known) {
      *error = "unknown suite '" + part + "' (" + suite_list() + ")";
      return {};
    }
  }
  std::vector<Cell> v;
  for (std::size_t i = 0; i < n_suites; ++i) {
    if (!selected[i]) continue;
    auto c = kSuites[i].factory();
    std::move(c.begin(), c.end(), std::back_inserter(v));
  }
  if (selected_scenario) {
    for (const Cell& c : *scenario) v.push_back(c);
  }
  if (v.empty() && error->empty()) *error = "no suites selected";
  return v;
}

/// FNV-1a over the canonical cell list, so a baseline from a different
/// suite composition is flagged instead of silently part-compared.
std::string perf_config_hash(const std::vector<Cell>& cells) {
  std::string text = "balbench-perf/1\n";
  for (const auto& c : cells) text += "cell " + c.id + "\n";
  return util::fnv1a_hex(text);
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct CellResult {
  std::string id;
  std::string suite;
  std::vector<double> samples;  // seconds, in run order
  util::RobustSummary stats;
};

/// One "ID=FACTOR" handicap parsed from the command line.
struct Handicap {
  std::string id;
  double factor = 1.0;
};

/// Parses "ID=FACTOR"; ID must name one of `cells`, so a typo cannot
/// silently slow nothing.
bool parse_handicap(const std::string& arg, const std::vector<Cell>& cells,
                    Handicap* out, std::string* error) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    *error = "--handicap wants ID=FACTOR, got '" + arg + "'";
    return false;
  }
  out->id = arg.substr(0, eq);
  try {
    out->factor = util::parse_double(arg.substr(eq + 1), "--handicap factor");
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
  if (out->factor < 1.0) {
    *error = "--handicap factor must be >= 1, got '" + arg + "'";
    return false;
  }
  if (std::none_of(cells.begin(), cells.end(),
                   [&](const Cell& c) { return c.id == out->id; })) {
    *error = "--handicap names no selected cell '" + out->id + "'";
    return false;
  }
  return true;
}

CellResult run_cell(const Cell& cell, int repeat, int warmup, double handicap,
                    bool verbose) {
  CellResult r;
  r.id = cell.id;
  r.suite = cell.suite;
  for (int i = 0; i < warmup; ++i) cell.body();
  for (int i = 0; i < repeat; ++i) {
    const double t0 = util::wall_now();
    {
      obs::prof::Scope scope("perf", cell.id);
      cell.body();
      // The handicap spins for (factor - 1) x the body's own time
      // INSIDE the sample window, so a handicapped cell really is
      // slower end to end -- the gate test exercises the same
      // measurement path as a genuine regression.
      if (handicap > 1.0) {
        util::wall_spin((util::wall_now() - t0) * (handicap - 1.0));
      }
    }
    r.samples.push_back(util::wall_now() - t0);
  }
  r.stats = util::robust_summary(r.samples);
  if (verbose) {
    std::fprintf(stderr, "[perf] %-32s median %.6fs  MAD %.6fs  CI95 [%.6f, %.6f]\n",
                 cell.id.c_str(), r.stats.median, r.stats.mad, r.stats.ci_lo,
                 r.stats.ci_hi);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Record I/O
// ---------------------------------------------------------------------------

void write_perf_record(std::ostream& os, const std::vector<CellResult>& results,
                       const std::string& suites, int repeat, int warmup,
                       const std::string& cfg_hash, const std::string& git_rev) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "balbench-perf-record/1");
  w.field("suite", suites);
  w.field("repeat", repeat);
  w.field("warmup", warmup);
  w.field("config_hash", cfg_hash);
  w.key("provenance").begin_object();
  w.field("generator", "balbench-perf");
  w.field("git_rev", git_rev);
  w.end_object();
  w.key("cells").begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.field("id", r.id);
    w.field("suite", r.suite);
    w.key("samples_seconds").begin_array();
    for (double s : r.samples) w.value(s);
    w.end_array();
    w.field("median_seconds", r.stats.median);
    w.field("mad_seconds", r.stats.mad);
    w.field("ci95_lo_seconds", r.stats.ci_lo);
    w.field("ci95_hi_seconds", r.stats.ci_hi);
    w.field("min_seconds", r.stats.min);
    w.field("max_seconds", r.stats.max);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

/// What the gate needs from a record on disk.
struct BaselineCell {
  std::string id;
  double median = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
};

struct Baseline {
  std::string config_hash;
  std::vector<BaselineCell> cells;
};

/// Parses + schema-checks a perf record; throws std::runtime_error
/// with a pointed message on any violation (shared by --baseline and
/// --validate, so "validates" and "is comparable" are the same thing).
Baseline load_record(const std::string& path) {
  const obs::JsonValue doc = obs::parse_json(util::read_file(path));
  const std::string& schema = doc.at("schema").as_string();
  if (schema != "balbench-perf-record/1") {
    throw std::runtime_error(path + ": schema is '" + schema +
                             "', want 'balbench-perf-record/1'");
  }
  Baseline b;
  b.config_hash = doc.at("config_hash").as_string();
  for (const auto& cell : doc.at("cells").as_array()) {
    BaselineCell c;
    c.id = cell.at("id").as_string();
    c.median = cell.at("median_seconds").as_number();
    c.ci_lo = cell.at("ci95_lo_seconds").as_number();
    c.ci_hi = cell.at("ci95_hi_seconds").as_number();
    const auto& samples = cell.at("samples_seconds").as_array();
    if (samples.empty()) {
      throw std::runtime_error(path + ": cell " + c.id + " has no samples");
    }
    for (const auto& s : samples) (void)s.as_number();
    if (!(c.ci_lo <= c.median && c.median <= c.ci_hi)) {
      throw std::runtime_error(path + ": cell " + c.id +
                               " has an inconsistent CI (lo <= median <= hi "
                               "violated)");
    }
    b.cells.push_back(std::move(c));
  }
  if (b.cells.empty()) throw std::runtime_error(path + ": no cells");
  return b;
}

/// The gate.  Returns the number of regressed cells; prints one
/// verdict line per compared cell.
int compare(const Baseline& base, const std::vector<CellResult>& cur,
            const std::string& cur_hash, double threshold) {
  if (base.config_hash != cur_hash) {
    std::fprintf(stderr,
                 "[perf] note: baseline config_hash %s != current %s "
                 "(different suite composition); comparing shared cells only\n",
                 base.config_hash.c_str(), cur_hash.c_str());
  }
  int regressions = 0;
  std::size_t compared = 0;
  for (const auto& c : cur) {
    const BaselineCell* b = nullptr;
    for (const auto& bc : base.cells) {
      if (bc.id == c.id) {
        b = &bc;
        break;
      }
    }
    if (b == nullptr) {
      std::fprintf(stderr, "[perf] %-32s not in baseline (new cell, skipped)\n",
                   c.id.c_str());
      continue;
    }
    ++compared;
    const double limit = b->ci_hi * (1.0 + threshold);
    const char* verdict = "ok";
    if (c.stats.ci_lo > limit) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (c.stats.ci_hi < b->ci_lo) {
      verdict = "improved";
    }
    std::fprintf(stderr,
                 "[perf] %-32s median %.6fs CI [%.6f, %.6f] vs baseline "
                 "%.6fs CI [%.6f, %.6f]: %s\n",
                 c.id.c_str(), c.stats.median, c.stats.ci_lo, c.stats.ci_hi,
                 b->median, b->ci_lo, b->ci_hi, verdict);
  }
  for (const auto& bc : base.cells) {
    const bool present = std::any_of(cur.begin(), cur.end(),
                                     [&](const CellResult& c) { return c.id == bc.id; });
    if (!present) {
      std::fprintf(stderr, "[perf] %-32s in baseline but not run (skipped)\n",
                   bc.id.c_str());
    }
  }
  std::fprintf(stderr, "[perf] compared %zu cells, %d regression%s "
               "(threshold %.0f%%)\n",
               compared, regressions, regressions == 1 ? "" : "s",
               100.0 * threshold);
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suites = "all";
  std::string scenario_path;
  std::int64_t repeat = 5;
  std::int64_t warmup = 1;
  std::string out_path = "BENCH_PERF.json";
  std::string baseline_path;
  double threshold = 0.10;
  std::string validate_path;
  std::string handicap_arg;
  std::string wall_profile_path;
  std::string checkpoint_path;
  bool resume = false;
  bool verbose = false;
  util::Options options(
      "balbench-perf: run host-timed benchmark cells, emit a "
      "balbench-perf-record/1 JSON (median/MAD/bootstrap CI per cell), "
      "and optionally gate against a baseline record.  Exit codes: 0 = "
      "clean, 3 = gate found regressions, 1 = fatal error, 2 = bad "
      "usage");
  options.add_string("suite", &suites,
                     "comma-separated suites: " + suite_list());
  options.add_string("scenario", &scenario_path,
                     "balbench-scenario/1 file whose cells form an extra "
                     "suite named 'scenario' (docs/SCENARIOS.md)");
  options.add_int("repeat", &repeat, "recorded samples per cell");
  options.add_int("warmup", &warmup, "unrecorded warm-up runs per cell");
  options.add_string("out", &out_path, "output record path (- = stdout)");
  options.add_string("baseline", &baseline_path,
                     "compare against this record; exit 1 on regression");
  options.add_double("threshold", &threshold,
                     "regression slack (fraction of the baseline CI edge)");
  options.add_string("validate", &validate_path,
                     "schema-check this record and exit (runs nothing)");
  options.add_string("handicap", &handicap_arg,
                     "slow one cell by ID=FACTOR (gate self-test hook)");
  options.add_string("wall-profile", &wall_profile_path,
                     "write a wall-clock profile of this run here");
  options.add_string("checkpoint", &checkpoint_path,
                     "crash-safe journal of completed cells (atomically "
                     "rewritten per cell)");
  options.add_flag("resume", &resume,
                   "replay samples of cells already completed in the "
                   "--checkpoint journal instead of re-timing them");
  options.add_flag("verbose", &verbose, "per-cell statistics on stderr");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  try {
    if (!validate_path.empty()) {
      const Baseline b = load_record(validate_path);
      std::fprintf(stderr,
                   "[perf] %s: valid balbench-perf-record/1, %zu cells, "
                   "config_hash %s\n",
                   validate_path.c_str(), b.cells.size(),
                   b.config_hash.c_str());
      return 0;
    }

    if (repeat < 1 || warmup < 0 || threshold < 0.0) {
      std::cerr << "balbench-perf: need --repeat >= 1, --warmup >= 0, "
                   "--threshold >= 0\n";
      return 2;
    }
    std::shared_ptr<const scenario::Scenario> scen;
    std::vector<Cell> scen_cells;
    if (!scenario_path.empty()) {
      scen = std::make_shared<const scenario::Scenario>(
          scenario::load_scenario_file(scenario_path));
      scen_cells = scenario_cells(scen);
    }
    std::string error;
    const std::vector<Cell> cells =
        select_cells(suites, scen ? &scen_cells : nullptr, &error);
    if (cells.empty()) {
      std::cerr << "balbench-perf: " << error << '\n';
      return 2;
    }
    Handicap handicap;
    if (!handicap_arg.empty() &&
        !parse_handicap(handicap_arg, cells, &handicap, &error)) {
      std::cerr << "balbench-perf: " << error << '\n';
      return 2;
    }
    if (resume && checkpoint_path.empty()) {
      std::cerr << "balbench-perf: --resume needs --checkpoint FILE\n";
      return 2;
    }
    std::unique_ptr<report::PerfCheckpoint> ck;
    if (!checkpoint_path.empty()) {
      ck = std::make_unique<report::PerfCheckpoint>(
          checkpoint_path,
          perf_config_hash(cells) + "|repeat=" + std::to_string(repeat) +
              "|warmup=" + std::to_string(warmup) +
              "|handicap=" + handicap_arg,
          resume);
    }

    std::unique_ptr<obs::prof::Profiler> profiler;
    if (!wall_profile_path.empty()) {
      profiler = std::make_unique<obs::prof::Profiler>();
      obs::prof::attach(profiler.get());
    }

    std::vector<CellResult> results;
    results.reserve(cells.size());
    for (const auto& cell : cells) {
      CellResult r;
      if (ck != nullptr && ck->load(cell.id, &r.samples)) {
        r.id = cell.id;
        r.suite = cell.suite;
        r.stats = util::robust_summary(r.samples);
        if (verbose) {
          std::fprintf(stderr, "[perf] %-32s replayed from checkpoint\n",
                       cell.id.c_str());
        }
      } else {
        const double factor = cell.id == handicap.id ? handicap.factor : 1.0;
        r = run_cell(cell, static_cast<int>(repeat), static_cast<int>(warmup),
                     factor, verbose);
        if (ck != nullptr) ck->record(cell.id, r.samples);
      }
      results.push_back(std::move(r));
    }

    if (profiler != nullptr) {
      obs::prof::attach(nullptr);
      std::ostringstream out;
      obs::prof::write_profile(out, *profiler);
      try {
        util::write_output(wall_profile_path, out.str());
      } catch (const std::exception& e) {
        std::cerr << "balbench-perf: " << e.what() << '\n';
      }
      obs::prof::write_summary(std::cerr, *profiler);
    }

    const std::string cfg_hash = perf_config_hash(cells);
    std::ostringstream record;
    write_perf_record(record, results, suites, static_cast<int>(repeat),
                      static_cast<int>(warmup), cfg_hash,
                      report::git_revision());
    util::write_output(out_path, record.str());
    std::fprintf(stderr, "[perf] %zu cells x %lld samples -> %s\n",
                 results.size(), static_cast<long long>(repeat),
                 out_path.c_str());

    if (!baseline_path.empty()) {
      const Baseline base = load_record(baseline_path);
      // Exit 3 = "completed, but the gate flagged regressions" --
      // distinct from fatal errors (1) so CI can branch on it, and
      // aligned with balbench-report's degraded-cells exit code.
      if (compare(base, results, cfg_hash, threshold) > 0) return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "balbench-perf: " << e.what() << '\n';
    return 1;
  }
}
