#include "core/report/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/report/checkpoint.hpp"
#include "core/scenario/scenario.hpp"
#include "machines/machines.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "parmsg/sim_transport.hpp"
#include "robust/fault.hpp"
#include "util/ascii_plot.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/wallclock.hpp"

namespace balbench::report {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

// ---------------------------------------------------------------------------
// Sweep specification
// ---------------------------------------------------------------------------

std::vector<BeffRun> beff_specs(Scope scope) {
  std::vector<BeffRun> v;
  auto add = [&](const char* key, const char* display, int np, bool first,
                 bool in_table, PaperBeffRow paper = {}) {
    BeffRun run;
    run.key = key;
    run.display = display;
    run.nprocs = np;
    run.first = first;
    run.in_table = in_table;
    run.paper = paper;
    v.push_back(std::move(run));
  };
  if (scope == Scope::Quick) {
    add("t3e", "Cray T3E/900", 8, true, false);
    add("t3e", "Cray T3E/900", 2, false, false);
    add("sx5", "NEC SX-5/8B", 4, true, true, {5439, 1360, 8762, 8758, -1});
    return v;
  }
  // Doc scope: the paper's Table 1 sweep (full fidelity; bench/
  // table1_beff renders every row), paper reference values transcribed
  // from the paper's Table 1.
  add("t3e", "Cray T3E/900", 512, true, true, {19919, 39, 98, 193, 330});
  add("t3e", "Cray T3E/900", 256, false, false);  // Fig. 1 balance point
  add("t3e", "Cray T3E/900", 128, false, false);
  add("t3e", "Cray T3E/900", 64, false, true, {3159, 49, 110, 192, 0});
  add("t3e", "Cray T3E/900", 24, false, false);
  add("t3e", "Cray T3E/900", 2, false, true, {183, 91, 210, 210, 0});
  add("sr8000rr", "SR 8000 round-robin", 128, true, true, {3695, 29, 90, 105, 776});
  add("sr8000rr", "SR 8000 round-robin", 24, false, true, {915, 38, 115, 110, 0});
  add("sr8000", "SR 8000 sequential", 24, true, true, {1806, 75, 226, 400, 954});
  add("sr2201", "SR 2201", 16, true, true, {528, 33, 91, 96, -1});
  add("sx5", "NEC SX-5/8B", 4, true, true, {5439, 1360, 8762, 8758, -1});
  add("sx4", "NEC SX-4/32", 16, true, true, {9670, 604, 3141, 3242, 0});
  add("sx4", "NEC SX-4/32", 8, false, true, {5766, 641, 3555, 3552, 0});
  add("sx4", "NEC SX-4/32", 4, false, false);
  add("hpv", "HP-V 9000", 7, true, true, {435, 62, 162, 162, 0});
  add("sv1", "SGI SV1-B/16-8", 15, true, true, {1445, 96, 373, 375, 994});
  return v;
}

std::vector<IoRun> io_specs(Scope scope) {
  std::vector<IoRun> v;
  auto add = [&](const char* figure, const char* key, const char* display,
                 int np, double T, std::int64_t cap = 0) {
    IoRun run;
    run.figure = figure;
    run.key = key;
    run.display = display;
    run.nprocs = np;
    run.scheduled_seconds = T;
    run.mpart_cap = cap;
    v.push_back(std::move(run));
  };
  if (scope == Scope::Quick) {
    for (int p : {2, 4}) add("fig3", "t3e", "T3E", p, 600.0);
    add("fig5", "sp", "SP", 16, 900.0);
    add("fig5", "sx5", "SX-5", 2, 900.0, 2LL << 20);
    add("fig4", "t3e", "T3E", 4, 600.0);
    return v;
  }
  // Fig. 3: b_eff_io over process counts, T = 10 min (the T that the
  // committed table shows; bench/fig3_beffio_scaling re-runs these
  // cells at T = 10, 15 and 30 min).
  for (const auto& [key, display] :
       std::vector<std::pair<const char*, const char*>>{{"t3e", "T3E"},
                                                        {"sp", "SP"}}) {
    for (int p : {2, 4, 8, 16, 32, 64, 128}) add("fig3", key, display, p, 600.0);
  }
  // Fig. 5: the official T >= 15 min schedule (bench/fig5_beffio_final).
  for (int p : {16, 32, 64, 128}) add("fig5", "sp", "SP", p, 900.0);
  for (int p : {8, 16, 32, 64, 128}) add("fig5", "t3e", "T3E", p, 900.0);
  for (int p : {8, 16, 24}) add("fig5", "sr8000", "SR 8000", p, 900.0);
  for (int p : {2, 4}) add("fig5", "sx5", "SX-5", p, 900.0, 2LL << 20);
  // Fig. 4: per-pattern detail, T = 10 min (bench/fig4_beffio_detail).
  add("fig4", "sp", "SP", 64, 600.0);
  add("fig4", "t3e", "T3E", 64, 600.0);
  add("fig4", "sr8000", "SR 8000", 24, 600.0);
  add("fig4", "sx5", "SX-5", 4, 600.0, 2LL << 20);
  return v;
}

namespace {

/// The kernel-suite and fault-sweep rows of the built-in sweep;
/// sweep_spec() is their public face.
std::vector<KernelRun> kernel_specs(Scope scope) {
  std::vector<KernelRun> v;
  auto add = [&](const char* key, const char* display, int np) {
    KernelRun run;
    run.key = key;
    run.display = display;
    run.nprocs = np;
    v.push_back(std::move(run));
  };
  if (scope == Scope::Quick) {
    add("t3e", "Cray T3E/900", 8);
    add("sx5", "NEC SX-5/8B", 4);
    return v;
  }
  // Doc scope: one suite per machine at its headline partition --
  // the same (machine, nprocs) as the Table 1 rows where one exists,
  // so the balance table can divide b_eff by the *matching* R_max.
  // SP and Beowulf have no Table 1 b_eff row; the SP partition matches
  // its largest Fig. 5 b_eff_io run, the Beowulf one is the Sec. 6
  // "Top Clusters" configuration.
  add("t3e", "Cray T3E/900", 512);
  add("sr8000rr", "SR 8000 round-robin", 128);
  add("sr8000", "SR 8000 sequential", 24);
  add("sr2201", "SR 2201", 16);
  add("sx5", "NEC SX-5/8B", 4);
  add("sx4", "NEC SX-4/32", 16);
  add("hpv", "HP-V 9000", 7);
  add("sv1", "SGI SV1-B/16-8", 15);
  add("sp", "IBM SP", 128);
  add("beowulf", "Beowulf cluster", 32);
  return v;
}

std::vector<FaultSweepRun> fault_sweep_specs(Scope scope) {
  std::vector<FaultSweepRun> v;
  auto add = [&](const char* key, const char* display, int np, double rate) {
    FaultSweepRun run;
    run.key = key;
    run.display = display;
    run.nprocs = np;
    run.rate = rate;
    // Same defaults the --faults grammar would give "link=<rate>,
    // degrade=0.5": seed 2001, no window, no drop, default retries.
    run.plan.link_degrade_prob = rate;
    run.plan.degrade_factor = 0.5;
    v.push_back(std::move(run));
  };
  if (scope == Scope::Quick) {
    for (double rate : {0.0, 0.25, 0.5}) add("t3e", "Cray T3E/900", 2, rate);
    return v;
  }
  // Doc scope: the b_eff degradation curve of the "Fault-scenario
  // sweeps" section -- one headline cell re-run across link fault
  // rates (rate 0 is the clean baseline the chart normalizes against).
  for (double rate : {0.0, 0.05, 0.1, 0.2, 0.35, 0.5}) {
    add("t3e", "Cray T3E/900", 8, rate);
  }
  return v;
}

}  // namespace

const std::vector<Fig1Point>& fig1_points() {
  static const std::vector<Fig1Point> points = {
      {"sx4", 16, "SX-4"},       {"sx5", 4, "SX-5"}, {"hpv", 7, "HP-V"},
      {"sr2201", 16, "SR 2201"}, {"sv1", 15, "SV1"},
      {"sr8000", 24, "SR 8000"}, {"t3e", 256, "T3E"}};
  return points;
}

namespace {

// ---------------------------------------------------------------------------
// Formatting helpers for the rendered document
// ---------------------------------------------------------------------------

/// Integer with a thin space every three digits ("19 919"), the style
/// of the paper's Table 1.
std::string thousands(long long v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out += ' ';
    out += digits[i];
  }
  return v < 0 ? "-" + out : out;
}

/// Bandwidth in MByte/s as a thousands-separated integer (the unit of
/// Table 1 and util::format_mbps: bytes / 2^20).
std::string mbps(double bytes_per_second) {
  return thousands(std::llround(bytes_per_second / kMiB));
}

/// Small bandwidths (Fig. 4 bullets): one decimal below 10 MB/s.
std::string mbps_small(double bytes_per_second) {
  const double v = bytes_per_second / kMiB;
  char buf[32];
  if (v < 10.0) {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(std::llround(v)));
  }
  return buf;
}

/// GFlop/s with one decimal below 10, integer above (balance table).
std::string gflops(double flops_per_second) {
  const double v = flops_per_second / 1e9;
  char buf[32];
  if (v < 10.0) {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(std::llround(v)));
  }
  return buf;
}

/// Bytes-per-flop balance factor, 3 significant digits (the values
/// span 1e-4 .. 1, paper Fig. 1 scale).
std::string bpf(double bytes_per_flop) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", bytes_per_flop);
  return buf;
}

/// Compact dimensionless number ("0.25", "35"): fault rates and
/// degrade factors in the fault-sweep section.
std::string num_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Unit-free variant of marker() for non-MByte/s comparisons (same
/// fixed thresholds: 10 % check mark, 50 % approx, else the ratio).
std::string ratio_marker(double paper, double measured) {
  const double r = measured / paper;
  if (std::fabs(r - 1.0) <= 0.10) return " ✓";
  if (std::fabs(r - 1.0) <= 0.50) return " ≈";
  char buf[32];
  std::snprintf(buf, sizeof buf, " (≈%.2f×)", r);
  return buf;
}

/// Comparison marker for a paper-vs-measured pair: within 10 % of the
/// paper value = "✓", within 50 % = "≈", otherwise the ratio itself.
/// One fixed rule for every cell keeps the document regenerable.
std::string marker(double paper_mbps, double measured_bps) {
  const double r = measured_bps / kMiB / paper_mbps;
  if (std::fabs(r - 1.0) <= 0.10) return " ✓";
  if (std::fabs(r - 1.0) <= 0.50) return " ≈";
  char buf[32];
  std::snprintf(buf, sizeof buf, " (≈%.2f×)", r);
  return buf;
}

/// "paper → measured marker" cell; plain measured value if the paper's
/// table has no number there.
std::string cmp_cell(double paper_mbps, double measured_bps) {
  if (paper_mbps <= 0.0) return mbps(measured_bps);
  return thousands(std::llround(paper_mbps)) + " → " + mbps(measured_bps) +
         marker(paper_mbps, measured_bps);
}

/// Greedy 72-column wrap for computed paragraphs; prefix applies to
/// every line after the first ("* " bullets pass "  ").
std::string wrap(const std::string& text, const std::string& cont_prefix,
                 std::size_t width = 72) {
  std::istringstream in(text);
  std::string word, line, out;
  while (in >> word) {
    const std::string candidate = line.empty() ? word : line + " " + word;
    if (!line.empty() && candidate.size() > width) {
      out += line + "\n";
      line = cont_prefix + word;
    } else {
      line = candidate;
    }
  }
  return out + line;
}

const BeffRun* find_beff(const ExperimentsData& d, const std::string& key,
                         int nprocs) {
  for (const auto& b : d.beff) {
    if (b.key == key && b.nprocs == nprocs) return &b;
  }
  return nullptr;
}

const IoRun* find_io(const ExperimentsData& d, const std::string& figure,
                     const std::string& key, int nprocs) {
  for (const auto& r : d.io) {
    if (r.figure == figure && r.key == key && r.nprocs == nprocs) return &r;
  }
  return nullptr;
}

/// Balance-table rule for the b_eff_io numerator (docs/METRICS.md):
/// the machine's best measured b_eff_io, preferring the official
/// Fig. 5 schedule (T >= 15 min) and falling back to Fig. 3; nullptr
/// when the machine has no I/O runs in the sweep.
const IoRun* best_io(const ExperimentsData& d, const std::string& key) {
  for (const char* fig : {"fig5", "fig3"}) {
    const IoRun* best = nullptr;
    for (const auto& r : d.io) {
      if (r.figure != fig || r.key != key) continue;
      if (best == nullptr || r.r.b_eff_io > best->r.b_eff_io) best = &r;
    }
    if (best != nullptr) return best;
  }
  return nullptr;
}

/// Bandwidth of the (type, chunk size l) cell of one access method; 0
/// when the pattern table has no timed pattern with that chunk size.
double pattern_bw(const beffio::AccessMethodResult& am, int type,
                  std::int64_t l) {
  for (const auto& pr : am.types[static_cast<std::size_t>(type)].patterns) {
    if (!pr.pattern.fill_up && pr.pattern.l == l && pr.pattern.time_units > 0) {
      return pr.bandwidth();
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

/// Emits "status" (worst outcome) plus the not-ok cells of one run.
/// No-op when the run has no statuses (faults off), preserving the
/// pre-fault record bytes.
void write_status_fields(obs::JsonWriter& w,
                         const std::vector<robust::CellStatus>& statuses,
                         const std::vector<std::string>& labels,
                         robust::Outcome worst) {
  if (statuses.empty()) return;
  w.field("status", robust::outcome_name(worst));
  w.key("cells").begin_array();
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const auto& s = statuses[i];
    if (s.outcome == robust::Outcome::Ok) continue;
    w.begin_object();
    w.field("label", i < labels.size() ? labels[i] : std::to_string(i));
    w.field("status", robust::outcome_name(s.outcome));
    w.field("attempts", s.attempts);
    w.field("backoff_s", s.backoff_s);
    w.field("error", s.error);
    w.end_object();
  }
  w.end_array();
}

/// One kernel cell as JSON, shared by the run record's "kernels" array
/// and the standalone kernel record so the two can never drift.
void write_kernel_run(obs::JsonWriter& w, const KernelRun& k,
                      const ExperimentsData& d) {
  w.begin_object();
  w.field("machine", k.key);
  w.field("system", k.display);
  w.field("nprocs", k.nprocs);
  w.field("rmax_flops", k.r.rmax_flops());
  w.field("stream_triad_Bps", k.r.stream_triad_bps());
  w.field("suite_virtual_seconds", k.r.suite_seconds);
  w.key("kernels").begin_array();
  for (const auto& kr : k.r.kernels) {
    w.begin_object();
    w.field("name", kr.name);
    w.field("flops", kr.flops);
    w.field("mem_bytes", kr.bytes);
    w.field("comm_bytes", kr.comm_bytes);
    w.field("virtual_seconds", kr.seconds);
    w.field("value", kr.value);
    w.field("unit", kr.unit);
    w.end_object();
  }
  w.end_array();
  // Derived balance factors (docs/METRICS.md): communication and I/O
  // numerators divided by the *measured* R_max of this cell.  A
  // missing numerator omits the field (readers must not assume it).
  const double rmax = k.r.rmax_flops();
  const BeffRun* b = find_beff(d, k.key, k.nprocs);
  const IoRun* io = best_io(d, k.key);
  w.key("balance").begin_object();
  if (b != nullptr) w.field("b_eff_per_rmax_Bpf", b->r.b_eff / rmax);
  if (io != nullptr) w.field("b_eff_io_per_rmax_Bpf", io->r.b_eff_io / rmax);
  w.field("stream_per_rmax_Bpf", k.r.stream_triad_bps() / rmax);
  w.end_object();
  w.key("metrics");
  write_metrics(w, k.r.metrics);
  w.end_object();
}

}  // namespace

const char* scope_name(Scope s) {
  return s == Scope::Quick ? "quick" : "doc";
}

// ---------------------------------------------------------------------------
// Sweep execution
// ---------------------------------------------------------------------------

namespace {

/// Verbose progress lines go to stderr only, so the byte-identity
/// contract on stdout/record/document outputs holds with or without
/// them.  One fprintf per line (atomic on POSIX) keeps concurrent
/// cells from interleaving mid-line.
double log_cell_start(const std::string& what) {
  std::fprintf(stderr, "[report] start  %s\n", what.c_str());
  return util::wall_now();
}

void log_cell_finish(const std::string& what, double t0) {
  std::fprintf(stderr, "[report] finish %s (%.2fs wall)\n", what.c_str(),
               util::wall_now() - t0);
}

}  // namespace

namespace {

/// --kill-after N: die the way a crash would (no unwinding, no
/// journal flush beyond what record() already persisted).  The
/// robust_kill_resume ctest then proves a resumed sweep is
/// byte-identical to an uninterrupted one.
void maybe_kill(const Checkpoint* ck, int kill_after) {
  if (ck == nullptr || kill_after <= 0) return;
  if (ck->recorded() >= static_cast<std::size_t>(kill_after)) {
    std::fprintf(stderr, "[checkpoint] --kill-after %d reached, raising "
                 "SIGKILL\n", kill_after);
    std::raise(SIGKILL);
  }
}

/// Scenario cells -> the pipeline's run structs.  The conversion lives
/// here (not in core/scenario) so the scenario library stays free of
/// report types; resolution already succeeded during validation.
std::vector<BeffRun> beff_runs_from(const scenario::Scenario& sc) {
  std::vector<BeffRun> v;
  for (const auto& c : sc.beff) {
    BeffRun run;
    run.key = c.machine;
    run.display = sc.resolve_machine(c.machine).name;
    run.nprocs = c.nprocs;
    run.first = c.analysis;
    // Scenario cells always render as table rows; paper reference
    // columns stay 0 (the renderer prints "--" for absent references).
    run.in_table = true;
    v.push_back(std::move(run));
  }
  return v;
}

std::vector<IoRun> io_runs_from(const scenario::Scenario& sc) {
  std::vector<IoRun> v;
  for (const auto& c : sc.io) {
    IoRun run;
    run.key = c.machine;
    run.display = sc.resolve_machine(c.machine).name;
    run.figure = "fig3";  // scenario io cells render in the Fig. 3 table
    run.nprocs = c.nprocs;
    run.scheduled_seconds = c.scheduled_seconds;
    run.mpart_cap = c.mpart_cap;
    v.push_back(std::move(run));
  }
  return v;
}

std::vector<KernelRun> kernel_runs_from(const scenario::Scenario& sc) {
  std::vector<KernelRun> v;
  for (const auto& c : sc.kernels) {
    KernelRun run;
    run.key = c.machine;
    run.display = sc.resolve_machine(c.machine).name;
    run.nprocs = c.nprocs;
    v.push_back(std::move(run));
  }
  return v;
}

std::vector<FaultSweepRun> fault_sweep_runs_from(const scenario::Scenario& sc) {
  std::vector<FaultSweepRun> v;
  if (!sc.has_fault_sweep) return v;
  const scenario::FaultSweep& fs = sc.fault_sweep;
  for (double rate : fs.rates) {
    FaultSweepRun run;
    run.key = fs.machine;
    run.display = sc.resolve_machine(fs.machine).name;
    run.nprocs = fs.nprocs;
    run.rate = rate;
    run.plan.seed = fs.seed;
    run.plan.link_degrade_prob = rate;
    run.plan.degrade_factor = fs.degrade_factor;
    run.plan.window_start_s = fs.window_start_s;
    run.plan.window_end_s = fs.window_end_s;
    v.push_back(std::move(run));
  }
  return v;
}

}  // namespace

ExperimentsData sweep_spec(const ExperimentOptions& options) {
  ExperimentsData data;
  data.scope = options.scope;
  if (const scenario::Scenario* sc = options.scenario) {
    data.scenario = sc->name;
    data.beff = beff_runs_from(*sc);
    data.io = io_runs_from(*sc);
    data.kernels = kernel_runs_from(*sc);
    data.fault_sweep = fault_sweep_runs_from(*sc);
  } else {
    data.beff = beff_specs(options.scope);
    data.io = io_specs(options.scope);
    data.kernels = kernel_specs(options.scope);
    data.fault_sweep = fault_sweep_specs(options.scope);
  }
  return data;
}

namespace {

/// What every cell of one run_cells() call shares.
struct CellContext {
  const ExperimentOptions& options;
  const robust::FaultPlan* fault_plan;  // run-wide plan, null = off
  Checkpoint* ck;                       // null = no journal

  /// Machine keys resolve scenario-first so a scenario can shadow a
  /// built-in short name; without a scenario this is machine_by_name.
  machines::MachineSpec resolve(const std::string& key) const {
    return options.scenario != nullptr ? options.scenario->resolve_machine(key)
                                       : machines::machine_by_name(key);
  }
};

/// The steps every journaled cell shares: replay `task` from the
/// checkpoint when it holds it; otherwise simulate under the verbose
/// log lines and a "cell" profiler span, journal the result and honour
/// --kill-after.
template <class Result, class Simulate>
void run_journaled(const CellContext& cx, const std::string& task,
                   const std::string& what, Result* out, Simulate simulate) {
  const bool verbose = cx.options.verbose;
  if (cx.ck != nullptr && cx.ck->load(task, out)) {
    if (verbose) {
      std::fprintf(stderr, "[report] replay %s (checkpoint)\n", what.c_str());
    }
    return;
  }
  const double t0 = verbose ? log_cell_start(what) : 0.0;
  obs::prof::Scope prof_scope("cell", what);
  *out = simulate();
  if (verbose) log_cell_finish(what, t0);
  if (cx.ck != nullptr) {
    cx.ck->record(task, *out);
    maybe_kill(cx.ck, cx.options.kill_after);
  }
}

beff::BeffResult simulate_beff(const machines::MachineSpec& m, int nprocs,
                               bool analysis, const robust::FaultPlan* plan) {
  parmsg::SimTransport transport(m.make_topology(nprocs), m.costs);
  beff::BeffOptions opt;
  opt.memory_per_proc = m.memory_per_proc;
  opt.measure_analysis = analysis;
  opt.collect_metrics = true;
  opt.fault_plan = plan;
  return beff::run_beff(transport, nprocs, opt);
}

}  // namespace

void run_cells(ExperimentsData& data, const ExperimentOptions& options) {
  const scenario::Scenario* sc = options.scenario;
  // Precedence: an explicit --faults plan beats the scenario's own
  // "faults" section (the CLI is the outermost override).
  const robust::FaultPlan* fault_plan = options.fault_plan;
  if (fault_plan == nullptr && sc != nullptr && sc->has_faults) {
    fault_plan = &sc->faults;
  }
  if (fault_plan != nullptr) data.faults = fault_plan->describe();

  // The journal key pins everything that changes a task's bytes: the
  // sweep configuration hash (scenario-aware) AND the fault plan (same
  // seed => same injected schedule => same results; a different spec
  // must not be replayed into this run).
  std::unique_ptr<Checkpoint> ck;
  if (!options.checkpoint_path.empty()) {
    std::string key = config_hash(options.scope, sc);
    if (fault_plan != nullptr) {
      key += "+faults:" + fault_plan->describe();
    }
    ck = std::make_unique<Checkpoint>(options.checkpoint_path, std::move(key),
                                      options.resume);
  }
  const CellContext cx{options, fault_plan, ck.get()};

  // One flat task list: every b_eff partition, every b_eff_io run,
  // every kernel suite and every fault-sweep point are independent
  // simulations writing into disjoint slots; host scheduling order
  // cannot change any output byte (DESIGN.md Sec. 9/10.2).
  const std::size_t n_beff = data.beff.size();
  const std::size_t n_io = data.io.size();
  const std::size_t n_kern = data.kernels.size();
  const std::size_t n_fs = data.fault_sweep.size();
  util::parallel_for(options.jobs, n_beff + n_io + n_kern + n_fs,
                     [&](std::size_t i) {
    if (i < n_beff) {
      BeffRun& run = data.beff[i];
      const auto m = cx.resolve(run.key);
      run.memory_per_proc = m.memory_per_proc;
      run.rmax_gflops_per_proc = m.rmax_gflops_per_proc;
      run_journaled(cx, "beff/" + std::to_string(i),
                    "b_eff " + run.key + ", " + std::to_string(run.nprocs) +
                        " procs",
                    &run.r, [&] {
                      return simulate_beff(m, run.nprocs, run.first,
                                           fault_plan);
                    });
    } else if (i < n_beff + n_io) {
      IoRun& run = data.io[i - n_beff];
      const auto m = cx.resolve(run.key);
      char t_buf[32];
      std::snprintf(t_buf, sizeof t_buf, "T=%.0fs", run.scheduled_seconds);
      run_journaled(cx, "io/" + std::to_string(i - n_beff),
                    "b_eff_io " + run.figure + "/" + run.key + ", " +
                        std::to_string(run.nprocs) + " procs, " + t_buf,
                    &run.r, [&] {
                      parmsg::SimTransport transport(
                          m.make_topology(run.nprocs), m.costs);
                      beffio::BeffIoOptions opt;
                      opt.scheduled_time = run.scheduled_seconds;
                      opt.memory_per_node = m.memory_per_proc;
                      opt.mpart_cap = run.mpart_cap;
                      opt.file_prefix = m.short_name;
                      opt.collect_metrics = true;
                      opt.fault_plan = fault_plan;
                      return beffio::run_beffio(transport, *m.io, run.nprocs,
                                                opt);
                    });
    } else if (i < n_beff + n_io + n_kern) {
      // Kernel-suite cells are analytic (microseconds of host time)
      // and therefore never journaled: re-running them on resume is
      // byte-identical and cheaper than replaying a checkpoint entry.
      KernelRun& run = data.kernels[i - n_beff - n_io];
      const auto m = cx.resolve(run.key);
      run.rmax_gflops_per_proc = m.rmax_gflops_per_proc;
      const std::string what =
          "kernels " + run.key + ", " + std::to_string(run.nprocs) + " procs";
      const double t0 = options.verbose ? log_cell_start(what) : 0.0;
      obs::prof::Scope prof_scope("cell", what);
      kernels::KernelOptions opt;
      opt.collect_metrics = true;
      run.r = kernels::run_kernels(m, run.nprocs, opt);
      if (options.verbose) log_cell_finish(what, t0);
    } else {
      // Fault-rate sweep: the same b_eff cell re-run under each link
      // fault rate.  Each point carries its own plan (rate, seed,
      // window), independent of the run-wide --faults plan.
      const std::size_t idx = i - n_beff - n_io - n_kern;
      FaultSweepRun& run = data.fault_sweep[idx];
      const auto m = cx.resolve(run.key);
      char rate_buf[32];
      std::snprintf(rate_buf, sizeof rate_buf, "link=%g", run.rate);
      run_journaled(cx, "faultsweep/" + std::to_string(idx),
                    "fault-sweep " + run.key + ", " +
                        std::to_string(run.nprocs) + " procs, " + rate_buf,
                    &run.r, [&] {
                      return simulate_beff(m, run.nprocs, false, &run.plan);
                    });
    }
  });
}

ExperimentsData run_experiments(const ExperimentOptions& options) {
  ExperimentsData data = sweep_spec(options);
  run_cells(data, options);

  // Paper Sec. 5.4: barrier + broadcast on 32 T3E PEs versus the
  // per-call cost of a small I/O access.
  const std::string what = "termination-check t3e, 32 procs";
  const double wall0 = options.verbose ? log_cell_start(what) : 0.0;
  obs::prof::Scope prof_scope("cell", what);
  auto m = machines::cray_t3e_900();
  parmsg::SimTransport transport(m.make_topology(32), m.costs);
  transport.run(32, [&](parmsg::Comm& c) {
    const double t0 = c.wtime();
    c.barrier();
    int flag = 0;
    c.bcast(&flag, sizeof flag, 0);
    if (c.rank() == 0) data.termination_check_seconds = c.wtime() - t0;
  });
  data.io_call_seconds = m.io->request_overhead;
  if (options.verbose) log_cell_finish(what, wall0);
  return data;
}

// ---------------------------------------------------------------------------
// Config hash and provenance
// ---------------------------------------------------------------------------

namespace {

std::string describe_config(Scope scope) {
  std::ostringstream os;
  os << "balbench-experiments/1 scope=" << scope_name(scope)
     << " seed=2001 repetitions=3 start_looplength=300"
     << " loop_target_time=0.00375 weights=25/25/50\n";
  for (const auto& b : beff_specs(scope)) {
    os << "beff " << b.key << " np=" << b.nprocs << " first=" << b.first
       << " table=" << b.in_table << '\n';
  }
  for (const auto& r : io_specs(scope)) {
    os << "beffio " << r.figure << ' ' << r.key << " np=" << r.nprocs
       << " T=" << r.scheduled_seconds << " cap=" << r.mpart_cap << '\n';
  }
  for (const auto& k : kernel_specs(scope)) {
    os << "kernels " << k.key << " np=" << k.nprocs << '\n';
  }
  for (const auto& f : fault_sweep_specs(scope)) {
    os << "faultsweep " << f.key << " np=" << f.nprocs
       << " plan=" << f.plan.describe() << '\n';
  }
  os << "micro termination-check t3e np=32\n";
  return os.str();
}

}  // namespace

std::string config_hash(Scope scope, const scenario::Scenario* sc) {
  // util::fnv1a_hex uses the same FNV-1a 64-bit constants and 16-digit
  // hex form this function always produced, so hashes stamped into
  // committed records and EXPERIMENTS.md stay valid.
  if (sc == nullptr) return util::fnv1a_hex(describe_config(scope));
  // A scenario run's configuration IS the scenario: its canonical
  // describe() covers every machine parameter, cell, fault plan and
  // sweep point, so two scenarios hash equal iff they schedule
  // byte-identical work.
  return util::fnv1a_hex("balbench-scenario-experiments/1 scope=" +
                         std::string(scope_name(scope)) + "\n" +
                         sc->describe());
}

std::string git_revision() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128];
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

// ---------------------------------------------------------------------------
// JSON run record
// ---------------------------------------------------------------------------

void write_run_record(std::ostream& os, const ExperimentsData& data,
                      const std::string& cfg_hash, const std::string& git_rev) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "balbench-run-record/1");
  w.field("scope", scope_name(data.scope));
  // Present only for --scenario runs, so built-in records keep their
  // exact pre-scenario byte stream.
  if (!data.scenario.empty()) w.field("scenario", data.scenario);
  w.field("config_hash", cfg_hash);
  // Fault-plan header and per-run "status" fields exist only when a
  // plan was active, so fault-free records keep their exact pre-fault
  // byte stream (DESIGN.md Sec. 12.1).
  if (!data.faults.empty()) w.field("faults", data.faults);
  w.key("provenance").begin_object();
  w.field("generator", "balbench-report");
  w.field("git_rev", git_rev);
  w.end_object();

  w.key("beff").begin_array();
  for (const auto& b : data.beff) {
    w.begin_object();
    w.field("machine", b.key);
    w.field("system", b.display);
    w.field("nprocs", b.nprocs);
    w.field("lmax_bytes", b.r.lmax);
    w.field("b_eff_Bps", b.r.b_eff);
    w.field("per_proc_Bps", b.r.per_proc());
    w.field("b_eff_at_lmax_Bps", b.r.b_eff_at_lmax);
    w.field("per_proc_at_lmax_Bps", b.r.per_proc_at_lmax());
    w.field("per_proc_at_lmax_rings_Bps", b.r.per_proc_at_lmax_rings());
    w.field("benchmark_virtual_seconds", b.r.benchmark_seconds);
    write_status_fields(w, b.r.cell_status, b.r.cell_labels,
                        b.r.worst_outcome());
    if (b.first) {
      w.key("analysis").begin_object();
      w.field("pingpong_Bps", b.r.analysis.pingpong_bw);
      w.field("worst_cycle_Bps", b.r.analysis.worst_cycle_bw);
      w.field("bisection_paired_Bps", b.r.analysis.bisection_paired_bw);
      w.field("bisection_interleaved_Bps", b.r.analysis.bisection_interleaved_bw);
      w.end_object();
    }
    w.key("patterns").begin_array();
    for (const auto& p : b.r.patterns) {
      w.begin_object();
      w.field("name", p.name);
      w.field("kind", p.is_random ? "random" : "ring");
      w.field("avg_Bps", p.avg_bw);
      w.field("at_lmax_Bps", p.bw_at_lmax);
      w.end_object();
    }
    w.end_array();
    w.key("metrics");
    write_metrics(w, b.r.metrics);
    w.end_object();
  }
  w.end_array();

  w.key("beffio").begin_array();
  for (const auto& r : data.io) {
    w.begin_object();
    w.field("figure", r.figure);
    w.field("machine", r.key);
    w.field("nprocs", r.nprocs);
    w.field("scheduled_seconds", r.scheduled_seconds);
    w.field("mpart_bytes", r.r.mpart);
    w.field("segment_bytes", r.r.segment_bytes);
    w.field("b_eff_io_Bps", r.r.b_eff_io);
    w.field("benchmark_virtual_seconds", r.r.benchmark_seconds);
    write_status_fields(w, r.r.chain_status, r.r.chain_labels,
                        r.r.worst_outcome());
    w.key("access").begin_array();
    for (const auto& am : r.r.access) {
      w.begin_object();
      w.field("method", beffio::access_method_name(am.method));
      w.field("weighted_Bps", am.weighted_bandwidth());
      w.key("types").begin_array();
      for (int t = 0; t < beffio::kNumPatternTypes; ++t) {
        const auto& tr = am.types[static_cast<std::size_t>(t)];
        w.begin_object();
        w.field("type", t);
        w.field("bytes", tr.bytes);
        w.field("seconds", tr.seconds);
        w.field("Bps", tr.bandwidth());
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("metrics");
    write_metrics(w, r.r.metrics);
    w.end_object();
  }
  w.end_array();

  w.key("kernels").begin_array();
  for (const auto& k : data.kernels) write_kernel_run(w, k, data);
  w.end_array();

  w.key("fault_sweep").begin_array();
  for (const auto& f : data.fault_sweep) {
    w.begin_object();
    w.field("machine", f.key);
    w.field("system", f.display);
    w.field("nprocs", f.nprocs);
    w.field("link_rate", f.rate);
    w.field("faults", f.plan.describe());
    w.field("lmax_bytes", f.r.lmax);
    w.field("b_eff_Bps", f.r.b_eff);
    w.field("per_proc_Bps", f.r.per_proc());
    w.field("b_eff_at_lmax_Bps", f.r.b_eff_at_lmax);
    w.field("benchmark_virtual_seconds", f.r.benchmark_seconds);
    write_status_fields(w, f.r.cell_status, f.r.cell_labels,
                        f.r.worst_outcome());
    w.end_object();
  }
  w.end_array();

  w.key("micro").begin_object();
  w.field("termination_check_seconds", data.termination_check_seconds);
  w.field("io_call_seconds", data.io_call_seconds);
  w.end_object();
  w.end_object();
  os << '\n';
}

void write_kernel_record(std::ostream& os, const ExperimentsData& data,
                         const std::string& cfg_hash,
                         const std::string& git_rev) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "balbench-kernel-record/1");
  w.field("scope", scope_name(data.scope));
  w.field("config_hash", cfg_hash);
  w.key("provenance").begin_object();
  w.field("generator", "balbench-report");
  w.field("git_rev", git_rev);
  w.end_object();
  w.key("kernels").begin_array();
  for (const auto& k : data.kernels) write_kernel_run(w, k, data);
  w.end_array();
  w.end_object();
  os << '\n';
}

// ---------------------------------------------------------------------------
// EXPERIMENTS.md renderer
// ---------------------------------------------------------------------------

void render_experiments_md(std::ostream& os, const ExperimentsData& data,
                           const std::string& cfg_hash) {
  auto section_stamp = [&](const char* what) {
    os << "<!-- generated: " << what
       << " | balbench-report --scope " << scope_name(data.scope)
       << " --markdown EXPERIMENTS.md | config " << cfg_hash << " -->\n";
  };

  os << "# EXPERIMENTS — paper vs. measured (simulated)\n"
        "\n";
  section_stamp("whole document");
  os << "<!-- Do not edit measured numbers by hand: the doc_drift_guard\n"
        "     ctest re-runs the sweep and byte-compares this file. -->\n"
        "\n"
        "Every table and figure of the paper, the tool that regenerates it,\n"
        "and how our measured values compare.  All of our numbers come from\n"
        "the deterministic virtual-time simulation described in DESIGN.md; the\n"
        "success criterion is **shape** (who wins, by what factor, where the\n"
        "crossovers and saturation points lie), not absolute equality — the\n"
        "substrate is a simulator, not the authors' 1999-2000 testbeds.\n"
        "\n"
        "Regenerate everything with:\n"
        "\n"
        "```sh\n"
        "build/tools/balbench-report --scope doc --markdown EXPERIMENTS.md  # this file\n"
        "build/tools/balbench-report --scope doc --record beffrun.json     # JSON run record\n"
        "build/tools/balbench-report --trace trace.json --machine t3e --procs 64\n"
        "for b in table1_beff fig1_balance table2_patterns fig3_beffio_scaling fig4_beffio_detail fig5_beffio_final; do build/bench/$b; done  # ASCII tables/plots\n"
        "```\n"
        "\n"
        "Comparison markers are rule-generated per cell: ✓ = within 10 % of\n"
        "the paper's value, ≈ = within 50 %, otherwise the ratio is printed.\n"
        "\n";

  // ---- Table 1 ----------------------------------------------------------
  os << "## Table 1 — effective bandwidth results\n"
        "\n";
  section_stamp("Table 1");
  os << "Paper → measured (MByte/s):\n"
        "\n"
        "| System | procs | b_eff | b_eff/proc | b_eff at L_max /proc | "
        "ring-only /proc | ping-pong |\n"
        "|---|---|---|---|---|---|---|\n";
  for (const auto& b : data.beff) {
    if (!b.in_table) continue;
    std::string pingpong;
    if (!b.first || b.paper.pingpong == 0.0) {
      pingpong = "—";
    } else if (b.paper.pingpong < 0.0) {
      pingpong = "(empty)";
    } else {
      pingpong = cmp_cell(b.paper.pingpong, b.r.analysis.pingpong_bw);
    }
    os << "| " << b.display << " | " << b.nprocs << " | "
       << cmp_cell(b.paper.b_eff, b.r.b_eff) << " | "
       << cmp_cell(b.paper.per_proc, b.r.per_proc()) << " | "
       << cmp_cell(b.paper.at_lmax_per_proc, b.r.per_proc_at_lmax()) << " | "
       << cmp_cell(b.paper.ring_per_proc, b.r.per_proc_at_lmax_rings()) << " | "
       << pingpong << " |\n";
  }
  os << "\n";

  // Shape-check bullets, recomputed from the sweep.
  {
    std::vector<std::string> bullets;
    const BeffRun* t3e512 = find_beff(data, "t3e", 512);
    const BeffRun* t3e2 = find_beff(data, "t3e", 2);
    if (t3e512 != nullptr && t3e2 != nullptr) {
      double ring_min = 1e300, ring_max = 0.0;
      for (const auto& b : data.beff) {
        if (b.key != "t3e") continue;
        ring_min = std::min(ring_min, b.r.per_proc_at_lmax_rings());
        ring_max = std::max(ring_max, b.r.per_proc_at_lmax_rings());
      }
      bullets.push_back(
          "T3E ring-pattern per-process bandwidth is ~constant (" +
          mbps(ring_min) + "–" + mbps(ring_max) +
          ") from 2 to 512 PEs while the random patterns degrade with size "
          "— the paper's \"negative effect of random neighbor "
          "locations\".  Our torus contention gives " +
          mbps(t3e512->r.per_proc_at_lmax()) + " vs. the paper's 98 at 512 "
          "PEs.");
      bullets.push_back(
          "b_eff/proc declines with process count on the T3E (" +
          mbps(t3e2->r.per_proc()) + " → " + mbps(t3e512->r.per_proc()) +
          ") as in the paper (91 → 39); our decline is shallower "
          "(flow-level max-min routing is kinder than real dimension-order "
          "wormhole hotspots).");
    }
    const BeffRun* seq24 = find_beff(data, "sr8000", 24);
    const BeffRun* rr24 = find_beff(data, "sr8000rr", 24);
    if (seq24 != nullptr && rr24 != nullptr) {
      char overall[16], rings[16];
      std::snprintf(overall, sizeof overall, "%.1f",
                    seq24->r.b_eff / rr24->r.b_eff);
      std::snprintf(rings, sizeof rings, "%.1f",
                    seq24->r.rings_logavg_at_lmax / rr24->r.rings_logavg_at_lmax);
      bullets.push_back(
          std::string("SR 8000: sequential placement beats round-robin by ") +
          overall + "× overall and " + rings +
          "× on ring patterns; *random beats ring under round-robin* (" +
          mbps(rr24->r.random_logavg_at_lmax / 24) + " vs " +
          mbps(rr24->r.rings_logavg_at_lmax / 24) +
          " — the paper shows the same inversion, 115 vs 110).");
    }
    bullets.push_back(
        "Shared-memory systems land within ~10 % at L_max; their averaged "
        "values run high (our fixed per-call latency model is simpler than "
        "real vector-machine MPI behaviour at mid sizes).");
    if (t3e512 != nullptr && seq24 != nullptr) {
      char t3e_cup[16], sr_cup[16];
      std::snprintf(t3e_cup, sizeof t3e_cup, "%.1f",
                    t3e512->r.seconds_for_total_memory(t3e512->memory_per_proc));
      std::snprintf(sr_cup, sizeof sr_cup, "%.1f",
                    seq24->r.seconds_for_total_memory(seq24->memory_per_proc));
      const long long gb = std::llround(
          static_cast<double>(t3e512->memory_per_proc) * 512 /
          (1024.0 * 1024.0 * 1024.0));
      bullets.push_back("Coffee-cup rule (Sec. 2.2): T3E-512 moves its " +
                        std::to_string(gb) + " GB of memory in " + t3e_cup +
                        " s of simulated time (paper: 3.2 s); SR 8000-24 in " +
                        sr_cup + " s (paper: 13.6 s).");
    }
    if (!bullets.empty()) {
      os << "Shape checks that hold (asserted in `tests/integration` and\n"
            "`tests/beff/machine_sweep_test.cpp`):\n"
            "\n";
      for (const auto& b : bullets) os << wrap("* " + b, "  ") << "\n";
      os << "\n";
    }
  }
  os << "Systematic bias: our averaged b_eff runs 10–40 % above the paper "
        "because\n"
        "mid-size messages (8–256 kB) are modeled with a single latency +\n"
        "bandwidth knee, while real MPI stacks had additional protocol "
        "switches.\n"
        "All at-L_max and ping-pong columns are within ~10 %.\n"
        "\n";

  // ---- Figure 1 ---------------------------------------------------------
  {
    struct BalancePoint {
      std::string label;
      double balance;
    };
    std::vector<BalancePoint> balances;
    for (const auto& p : fig1_points()) {
      const BeffRun* b = find_beff(data, p.key, p.nprocs);
      if (b == nullptr || b->rmax_gflops_per_proc <= 0.0) continue;
      balances.push_back(
          {p.label, b->r.b_eff / (b->rmax_gflops_per_proc * 1e9 * b->nprocs)});
    }
    if (!balances.empty()) {
      std::stable_sort(balances.begin(), balances.end(),
                       [](const BalancePoint& a, const BalancePoint& b) {
                         return a.balance > b.balance;
                       });
      os << "## Figure 1 — balance factor\n"
            "\n";
      section_stamp("Figure 1");
      std::string list;
      for (std::size_t i = 0; i < balances.size(); ++i) {
        char v[16];
        std::snprintf(v, sizeof v, "%.3f", balances[i].balance);
        if (i > 0) list += " > ";
        list += balances[i].label + " " + v;
      }
      os << wrap("Measured bytes/flop: " + list +
                     ".  Matches the paper's reading: the shared-memory "
                     "vector systems are several times better balanced than "
                     "the MPP/cluster systems.  (Fig. 1's absolute values are "
                     "not legible in the source text; the ordering and the "
                     "vector-vs-MPP gap are the reproduced claims.  R_max "
                     "values are published Linpack figures per processor.)",
                 "")
         << "\n\n";
    }
  }

  // ---- Table 2 / Figure 2 (static: asserted structurally in tests) ------
  os << "## Table 2 / Figure 2 — the pattern table "
        "(`bench/table2_patterns`)\n"
        "\n"
        "Exact reproduction: 43 pattern rows across 5 types, chunk sizes\n"
        "1 kB / 32 kB / 1 MB / M_PART with +8-byte non-wellformed variants,\n"
        "ΣU = 64, fill-up patterns in the segmented types, M_PART =\n"
        "max(2 MB, memory/128) (asserted in "
        "`tests/beffio/pattern_table_test.cpp`).\n"
        "\n";

  // ---- Figure 3 ---------------------------------------------------------
  {
    std::vector<int> procs;
    std::vector<std::pair<std::string, std::string>> machines_seen;
    for (const auto& r : data.io) {
      if (r.figure != "fig3") continue;
      if (std::find(procs.begin(), procs.end(), r.nprocs) == procs.end()) {
        procs.push_back(r.nprocs);
      }
      const auto entry = std::make_pair(r.key, r.display);
      if (std::find(machines_seen.begin(), machines_seen.end(), entry) ==
          machines_seen.end()) {
        machines_seen.push_back(entry);
      }
    }
    if (!procs.empty()) {
      os << "## Figure 3 — b_eff_io vs. process count\n"
            "\n";
      section_stamp("Figure 3");
      os << "Measured b_eff_io (T = 10 min):\n"
            "\n"
            "| procs |";
      for (int p : procs) os << ' ' << p << " |";
      os << "\n|---|";
      for (std::size_t i = 0; i < procs.size(); ++i) os << "---|";
      os << "\n";
      for (const auto& [key, display] : machines_seen) {
        os << "| " << display << " (MB/s) |";
        for (int p : procs) {
          const IoRun* r = find_io(data, "fig3", key, p);
          if (r == nullptr) {
            os << " — |";
          } else {
            os << ' ' << mbps(r->r.b_eff_io) << " |";
          }
        }
        os << "\n";
      }
      os << "\n"
            "* **T3E**: flat from 8 to 128 processes with the maximum at "
            "16–32 —\n"
            "  the paper's \"the I/O bandwidth is a global resource … "
            "maximum is\n"
            "  reached at 32 application processes, with little variation "
            "from 8 to\n"
            "  128\". ✓\n"
            "* **SP**: bandwidth tracks the client count (≈12 MB/s per "
            "node) until\n"
            "  the 20 VSD servers saturate around 64–128 nodes — "
            "\"on the IBM SP the\n"
            "  I/O bandwidth tracks the number of compute nodes until it\n"
            "  saturates\". ✓\n"
            "* Larger T does not increase the value (and reads get slightly "
            "slower\n"
            "  as files outgrow the cache) — the Sec. 5.4 observation "
            "that the\n"
            "  maximum tends to occur at T = 10 min "
            "(`bench/fig3_beffio_scaling`\n"
            "  sweeps T ∈ {10, 15, 30} min). ✓\n"
            "\n";
    }
  }

  // ---- Figure 4 ---------------------------------------------------------
  {
    const IoRun* sp64 = find_io(data, "fig4", "sp", 64);
    const IoRun* t3e64 = find_io(data, "fig4", "t3e", 64);
    if (sp64 != nullptr && t3e64 != nullptr) {
      os << "## Figure 4 — per-pattern detail\n"
            "\n";
      section_stamp("Figure 4");
      os << "Reproduced qualitative structure on all four systems (IBM SP 64, "
            "T3E\n"
            "64, SR 8000 24, SX-5 4 with reduced M_PART); the per-pattern "
            "curves\n"
            "are plotted by `bench/fig4_beffio_detail`:\n"
            "\n";
      using beffio::AccessMethod;
      const auto& sp_write =
          sp64->r.access[static_cast<std::size_t>(AccessMethod::InitialWrite)];
      const auto& t3e_write =
          t3e64->r.access[static_cast<std::size_t>(AccessMethod::InitialWrite)];
      const double sp_scatter_1k = pattern_bw(sp_write, 0, 1024);
      const double sp_noncoll_lo =
          std::min(pattern_bw(sp_write, 1, 1024), pattern_bw(sp_write, 2, 1024));
      const double sp_noncoll_hi =
          std::max(pattern_bw(sp_write, 1, 1024), pattern_bw(sp_write, 2, 1024));
      os << wrap("* **Scatter type 0 is the best pattern type at small disk "
                 "chunks on every platform** — two-phase collective "
                 "buffering turns 1 kB disk chunks into large aligned "
                 "accesses, so its curve is flat in l (SP: " +
                     mbps_small(sp_scatter_1k) + " MB/s at 1 kB vs " +
                     mbps_small(sp_noncoll_lo) + "–" +
                     mbps_small(sp_noncoll_hi) +
                     " MB/s for the non-collective types). ✓",
                 "  ")
         << "\n";
      const double wf_1k = pattern_bw(t3e_write, 2, 1024);
      const double nwf_1k = pattern_bw(t3e_write, 2, 1024 + 8);
      const double wf_32k = pattern_bw(t3e_write, 2, 32768);
      const double nwf_32k = pattern_bw(t3e_write, 2, 32768 + 8);
      const long long gap =
          nwf_1k > 0.0 ? std::llround(wf_1k / nwf_1k) : 0;
      os << wrap("* **Non-wellformed (+8 byte) chunks are markedly slower**, "
                 "most visibly on the T3E's non-collective types (1 kB: " +
                     mbps_small(wf_1k) + " → " + mbps_small(nwf_1k) +
                     " MB/s, an ~" + std::to_string(gap) + "× gap; "
                     "32 kB: " + mbps_small(wf_32k) + " → " +
                     mbps_small(nwf_32k) + "; it narrows toward 1 MB+8), via "
                     "per-chunk unaligned handling and partial-block RMW "
                     "— \"especially on the T3E, there are huge "
                     "differences\". ✓",
                 "  ")
         << "\n";
      const double t3_bw = sp_write.types[3].bandwidth();
      const double t4_bw = sp_write.types[4].bandwidth();
      const long long seg_ratio = t4_bw > 0.0 ? std::llround(t3_bw / t4_bw) : 0;
      os << wrap("* **Type 4 (segmented collective) on the SP prototype is "
                 "~" + std::to_string(seg_ratio) +
                     "× worse than type 3** at every chunk size "
                     "(serialized collective path); on T3E/SR 8000/SX-5, "
                     "whose libraries optimize it, types 3 and 4 coincide "
                     "— exactly the paper's contrast. ✓",
                 "  ")
         << "\n";
      os << "* Shared-pointer type 1 trails the individual types at small "
            "chunks\n"
            "  (token-serialized pointer updates). ✓\n"
            "* The SX-5 plots show the cache-bypass behaviour for requests "
            "≥ 1 MB\n"
            "  (large chunks run at raw RAID speed, small cached rewrites "
            "faster). ✓\n"
            "\n";
    }
  }

  // ---- Figure 5 ---------------------------------------------------------
  {
    struct Best {
      std::string display;
      double bw = 0.0;
      int nprocs = 0;
    };
    std::vector<Best> bests;
    for (const auto& r : data.io) {
      if (r.figure != "fig5") continue;
      auto it = std::find_if(bests.begin(), bests.end(), [&](const Best& b) {
        return b.display == r.display;
      });
      if (it == bests.end()) {
        bests.push_back({r.display, r.r.b_eff_io, r.nprocs});
      } else if (r.r.b_eff_io > it->bw) {
        it->bw = r.r.b_eff_io;
        it->nprocs = r.nprocs;
      }
    }
    if (!bests.empty()) {
      std::stable_sort(bests.begin(), bests.end(),
                       [](const Best& a, const Best& b) { return a.bw > b.bw; });
      os << "## Figure 5 — final comparison\n"
            "\n";
      section_stamp("Figure 5");
      std::string list;
      for (std::size_t i = 0; i < bests.size(); ++i) {
        if (i > 0) {
          // "≈" when two systems are within 10 % of each other.
          list += bests[i].bw >= 0.9 * bests[i - 1].bw ? " ≈ " : " > ";
        }
        list += bests[i].display + " " + mbps(bests[i].bw) +
                (i == 0 ? " MB/s (at " : " (") +
                std::to_string(bests[i].nprocs) + ")";
      }
      os << wrap("Measured best-partition b_eff_io at T = 15 min: " + list +
                     ".  The paper's figure likewise has the SP on top at "
                     "large partitions, T3E/SR 8000 mid-field saturating at "
                     "small partitions, and the 4-processor SX-5 lowest in "
                     "aggregate.  Weighting checks (write/rewrite/read = "
                     "25/25/50, scatter double) are unit-tested.",
                 "")
         << "\n\n";
    }
  }

  // ---- Balance characterization ----------------------------------------
  // Marker-delimited like the PERF HISTORY section so external tools
  // can extract or splice it without re-running the sweep.
  if (!data.kernels.empty()) {
    os << "<!-- BEGIN BALANCE CHARACTERIZATION -->\n"
          "## Balance characterization — compute vs. communication vs. "
          "I/O\n"
          "\n";
    section_stamp("balance characterization");
    os << "The compute side comes from the simulated HPCC-style kernel "
          "suite\n"
          "(`core/kernels`, DESIGN.md §14): **R_max** is the *measured* "
          "GEMM/LU\n"
          "rate under each machine's roofline model (compared against the\n"
          "published Linpack value), **STREAM** is the aggregate triad "
          "rate.\n"
          "The quotient columns are the paper's balance factors "
          "generalized to\n"
          "I/O and memory; exact formulas, units and matching rules: "
          "docs/METRICS.md.\n"
          "b_eff uses the same (machine, procs) partition as the kernel "
          "suite;\n"
          "b_eff_io is the machine's best Fig. 5 (fallback Fig. 3) value.\n"
          "\n"
          "| System | procs | R_max GFlop/s (paper → meas) | "
          "STREAM triad MB/s | GUP/s | b_eff/R_max B/flop | "
          "b_eff_io/R_max B/flop | STREAM/R_max B/flop |\n"
          "|---|---|---|---|---|---|---|---|\n";
    for (const auto& k : data.kernels) {
      const double rmax = k.r.rmax_flops();
      const double paper_rmax = k.rmax_gflops_per_proc * 1e9 * k.nprocs;
      std::string rmax_cell = gflops(rmax);
      if (paper_rmax > 0.0) {
        rmax_cell = gflops(paper_rmax) + " → " + gflops(rmax) +
                    ratio_marker(paper_rmax, rmax);
      }
      const kernels::KernelResult* gup =
          k.r.find(kernels::KernelId::RandomAccess);
      char gup_buf[32];
      std::snprintf(gup_buf, sizeof gup_buf, "%.3g",
                    gup != nullptr ? gup->value / 1e9 : 0.0);
      const BeffRun* b = find_beff(data, k.key, k.nprocs);
      const IoRun* io = best_io(data, k.key);
      os << "| " << k.display << " | " << k.nprocs << " | " << rmax_cell
         << " | " << mbps(k.r.stream_triad_bps()) << " | " << gup_buf
         << " | " << (b != nullptr ? bpf(b->r.b_eff / rmax) : "—") << " | "
         << (io != nullptr ? bpf(io->r.b_eff_io / rmax) : "—") << " | "
         << bpf(k.r.stream_triad_bps() / rmax) << " |\n";
    }
    os << "\n";
    // Computed reading of the table: which architectures are balanced.
    {
      const KernelRun* best_k = nullptr;
      const KernelRun* worst_k = nullptr;
      double best_v = 0.0, worst_v = 1e300;
      for (const auto& k : data.kernels) {
        const BeffRun* b = find_beff(data, k.key, k.nprocs);
        if (b == nullptr) continue;
        const double v = b->r.b_eff / k.r.rmax_flops();
        if (v > best_v) { best_v = v; best_k = &k; }
        if (v < worst_v) { worst_v = v; worst_k = &k; }
      }
      if (best_k != nullptr && worst_k != nullptr && best_k != worst_k) {
        char ratio[16];
        std::snprintf(ratio, sizeof ratio, "%.0f", best_v / worst_v);
        os << wrap("* b_eff/R_max spans " + std::string(ratio) +
                       "× across the field: " + best_k->display + " (" +
                       bpf(best_v) + " B/flop) is the best-balanced "
                       "communication/compute pairing, " + worst_k->display +
                       " (" + bpf(worst_v) + ") the most compute-heavy — "
                       "the paper's Fig. 1 reading, now derived from a "
                       "*measured* R_max instead of the published Linpack "
                       "number.",
                   "  ")
           << "\n";
      }
      os << wrap("* Every machine's b_eff_io/R_max is orders of magnitude "
                 "below its b_eff/R_max: disks, not networks, are the "
                 "scarce resource per flop — the imbalance the paper's "
                 "Sec. 5 argues b_eff_io exposes.",
                 "  ")
         << "\n";
      os << wrap("* STREAM/R_max separates the vector machines (whole "
                 "bytes per flop) from the cache machines (fractions) — "
                 "the memory-bandwidth side of the balance argument "
                 "(RZBENCH's machine-balance metric, PAPERS.md).",
                 "  ")
         << "\n";
    }
    os << "<!-- END BALANCE CHARACTERIZATION -->\n\n";
  }

  // ---- Fault-scenario sweeps -------------------------------------------
  // Marker-delimited like the balance section; present whenever the
  // sweep (built-in or scenario-defined) scheduled fault points.
  if (!data.fault_sweep.empty()) {
    os << "<!-- BEGIN FAULT-SCENARIO SWEEPS -->\n"
          "## Fault-scenario sweeps — b_eff degradation under injected "
          "link faults\n"
          "\n";
    section_stamp("fault-scenario sweeps");
    os << wrap("Each point re-runs the full b_eff pattern mix (same rings, "
               "random neighbourhoods, message sizes and averaging rule) "
               "under a deterministic fault plan: every message is degraded "
               "to " + num_str(data.fault_sweep.front().plan.degrade_factor *
                               100.0) +
                   " % of its bandwidth with the given per-message "
                   "probability (robust/fault.hpp).  The plan's seed and "
                   "schedule are part of the config hash, so this section "
                   "is byte-identical for any --jobs N.  Rate 0 is the "
                   "clean baseline the chart normalizes against.  "
                   "Scenario files (docs/SCENARIOS.md) can redefine the "
                   "swept machine, rates, degrade factor and fault window.",
               "")
       << "\n\n"
          "| System | procs | link fault rate | b_eff MB/s | vs clean | "
          "status |\n"
          "|---|---|---|---|---|---|\n";
    // Grouped by (machine, partition), insertion order preserved; the
    // clean baseline of a group is its rate-0 point.
    struct FsGroup {
      std::string key;
      std::string display;
      int nprocs = 0;
      std::vector<const FaultSweepRun*> runs;
      double clean = 0.0;
    };
    std::vector<FsGroup> groups;
    for (const auto& f : data.fault_sweep) {
      FsGroup* g = nullptr;
      for (auto& existing : groups) {
        if (existing.key == f.key && existing.nprocs == f.nprocs) {
          g = &existing;
          break;
        }
      }
      if (g == nullptr) {
        groups.push_back({f.key, f.display, f.nprocs, {}, 0.0});
        g = &groups.back();
      }
      g->runs.push_back(&f);
      if (f.rate == 0.0) g->clean = f.r.b_eff;
    }
    for (const auto& g : groups) {
      for (const FaultSweepRun* f : g.runs) {
        std::string vs = "—";
        if (g.clean > 0.0) {
          char pct[16];
          std::snprintf(pct, sizeof pct, "%.0f %%",
                        100.0 * f->r.b_eff / g.clean);
          vs = pct;
        }
        os << "| " << g.display << " | " << g.nprocs << " | "
           << num_str(f->rate) << " | " << mbps(f->r.b_eff) << " | " << vs
           << " | "
           << (f->r.cell_status.empty()
                   ? "ok"
                   : robust::outcome_name(f->r.worst_outcome()))
           << " |\n";
      }
    }
    os << "\n";
    // Degradation chart: one series per (machine, partition) over the
    // union of swept rates (NaN where a group skipped a rate).
    {
      std::vector<double> rates;
      for (const auto& f : data.fault_sweep) {
        if (std::find(rates.begin(), rates.end(), f.rate) == rates.end()) {
          rates.push_back(f.rate);
        }
      }
      std::vector<std::string> labels;
      labels.reserve(rates.size());
      for (double r : rates) labels.push_back(num_str(r));
      util::AsciiPlot::Options popt;
      popt.width = 60;
      popt.height = 14;
      popt.y_label = "MB/s";
      popt.title = "b_eff vs injected link fault rate";
      util::AsciiPlot plot(std::move(labels), popt);
      const char markers[] = "o*x+#@";
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        util::Series s;
        s.name = groups[gi].display + " (" +
                 std::to_string(groups[gi].nprocs) + ")";
        s.marker = markers[gi % (sizeof markers - 1)];
        s.values.assign(rates.size(),
                        std::numeric_limits<double>::quiet_NaN());
        for (const FaultSweepRun* f : groups[gi].runs) {
          for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            if (rates[ri] == f->rate) {
              s.values[ri] = f->r.b_eff / kMiB;
              break;
            }
          }
        }
        plot.add_series(std::move(s));
      }
      os << "```\n" << plot.to_string() << "```\n\n";
    }
    // Computed reading of the curve: clean vs. the highest swept rate.
    for (const auto& g : groups) {
      if (g.runs.size() < 2 || g.clean <= 0.0) continue;
      const FaultSweepRun* worst = g.runs.front();
      for (const FaultSweepRun* f : g.runs) {
        if (f->rate > worst->rate) worst = f;
      }
      if (worst->rate == 0.0) continue;
      char pct[16];
      std::snprintf(pct, sizeof pct, "%.0f",
                    100.0 * worst->r.b_eff / g.clean);
      os << wrap("* " + g.display + " (" + std::to_string(g.nprocs) +
                     " procs): at link fault rate " + num_str(worst->rate) +
                     ", b_eff is " + mbps(worst->r.b_eff) + " MB/s = " + pct +
                     " % of clean — degradation is milder than the raw "
                     "rate because only the touched messages stretch and "
                     "the logarithmic averaging over message sizes dilutes "
                     "per-message loss.",
                 "  ")
         << "\n";
    }
    os << "<!-- END FAULT-SCENARIO SWEEPS -->\n\n";
  }

  // ---- Micro ------------------------------------------------------------
  if (data.termination_check_seconds > 0.0) {
    os << "## Sec. 2.2 / 5.4 side results\n"
          "\n";
    section_stamp("side results");
    char check_us[16], io_us[16];
    std::snprintf(check_us, sizeof check_us, "%.0f",
                  data.termination_check_seconds * 1e6);
    std::snprintf(io_us, sizeof io_us, "%.0f", data.io_call_seconds * 1e6);
    os << wrap("* Termination-check cost: simulated barrier + bcast on 32 "
               "T3E PEs = " + std::string(check_us) +
                   " µs vs. the paper's ~60 µs; a 1 kB I/O call "
                   "costs " + io_us + " µs (paper: 250 µs) — "
                   "reproducing the conclusion that the check is *not* 10× "
                   "faster than the access (`bench/micro_core`, "
                   "`BM_TerminationCheckVirtualCost`). ✓",
               "  ")
       << "\n";
    os << "* b_eff measurement time: seconds to ~1 simulated minute per "
          "system --\n"
          "  below the paper's 3-5 min wall budget because the deterministic\n"
          "  simulator deduplicates the 3 repetitions and pays no OS noise;\n"
          "  b_eff_io spends the scheduled T of 10-30 min per partition. "
          "✓\n"
          "* L_SEG segment rounding to 1 MB and the 2 GB/nprocs cap are\n"
          "  implemented and unit-tested.\n"
          "\n";
  }

  // ---- Static closing sections -----------------------------------------
  os << "## Extensions beyond the released benchmarks (paper Secs. 5.4/6)\n"
        "\n"
        "| Paper item | Where |\n"
        "|---|---|\n"
        "| geometric-series termination factors (proposed in 5.4) | "
        "`beffio::TerminationMode::GeometricSeries`; test shows it lifts "
        "small-chunk bandwidth vs. per-iteration checks |\n"
        "| random I/O access patterns (Sec. 6 \"should examine\") | "
        "`BeffIoOptions::include_random_type`, reported separately, never "
        "averaged |\n"
        "| MPI_Info-style per-pattern hints (Sec. 5.3 \"future release\") | "
        "`pario::Hints::two_phase` |\n"
        "| SKaMPI comparison-page output (Sec. 6) | `core/report`: CSV + "
        "key=value summaries + `examples/compare_machines` |\n"
        "| machine-readable run records + metrics (Sec. 6) | "
        "`balbench-report --record`: JSON with per-cell bandwidths and "
        "merged `obs` metric snapshots (DESIGN.md §10.4) |\n"
        "| Chrome-trace timelines | `balbench-report --trace`: virtual-time "
        "spans per rank, loadable in Perfetto (DESIGN.md §10.3) |\n"
        "| Top Clusters list (Sec. 6) | `bench/topclusters_list` |\n"
        "| averaging-rule ablations | `bench/ablation_averaging`: logavg vs "
        "arithmetic (+1 %), rings-only (+10 %), L_max-only (+125 %), "
        "single-method (−15 % for Sendrecv) |\n"
        "\n"
        "## Parameter provenance\n"
        "\n"
        "From the paper/its references: ping-pong bandwidths "
        "(330/776/954/994),\n"
        "memory sizes via the L_max column, SMP widths (8-way SR 8000, "
        "4-way\n"
        "SP nodes), I/O server counts (10 striped RAIDs on GigaRing, 20 "
        "VSDs,\n"
        "4 RAID-3 arrays), SFS 4 MB cluster size + 2 GB cache + 1 MB bypass\n"
        "rule, GPFS 690/950 MB/s write/read maxima, the unoptimized "
        "segmented\n"
        "collective on the SP prototype, R_max-class Linpack per-processor\n"
        "values.  Calibrated against Table 1's shape: latencies, per-call\n"
        "overheads, torus link bandwidth (360 MB/s shared bidirectional),\n"
        "NIC duplex factor 1.25, SMP bus widths, disk seek times, "
        "client-link\n"
        "bandwidths.  Every calibrated value lives in\n"
        "`src/machines/machines.cpp` with a comment naming what it was fit "
        "to.\n"
        "\n"
        "## Known deviations\n"
        "\n"
        "1. Averaged b_eff values run 10–40 % high (single-knee size "
        "curve);\n"
        "   at-L_max values are within ~10 %.\n"
        "2. T3E per-process decline with P is shallower (flow-level max-min "
        "vs.\n"
        "   real wormhole routing hotspots).\n"
        "3. T3E b_eff_io absolute level (~200 MB/s of the 300 MB/s peak) is\n"
        "   likely above the paper's (unreadable) Fig. 3 values, which the "
        "text\n"
        "   implies were further reduced by the pattern mix; the "
        "flatness-in-P\n"
        "   and max-at-16–32 shape is reproduced.\n"
        "4. b_eff_io batches its time-driven loops (DESIGN.md Sec. 6); "
        "per-call\n"
        "   costs are charged, but intra-loop pipelining across ranks is\n"
        "   approximated by the max-min fluid model.\n"
        "\n"
        "## Wall-clock of the regeneration sweep (`--jobs`)\n"
        "\n"
        "The parallel sweep scheduler (DESIGN.md §9) makes `--jobs N` a "
        "pure\n"
        "wall-clock knob: every number above is byte-identical for every "
        "value\n"
        "(enforced by the `doc_drift_guard` ctest and the --jobs 1/2/4\n"
        "byte-compares in `tests/report/run_record_test.cpp`).  Full bench\n"
        "sweep (all nine table/figure + analysis binaries, full fidelity,\n"
        "serially one binary after another), measured on this container:\n"
        "\n"
        "| setting | wall-clock |\n"
        "|---|---|\n"
        "| `--jobs 1` | 167.4 s |\n"
        "| `--jobs 4` | 178.7 s |\n"
        "\n"
        "This container exposes **one** CPU core (`nproc` = 1, affinity "
        "pinned\n"
        "to core 0), so the honestly measurable \"speedup\" here is 0.94× "
        "—\n"
        "extra worker threads cannot beat one core, and oversubscribing it\n"
        "costs ~7 % in scheduling overhead (which is why `--jobs 1` stays "
        "the\n"
        "default).  On a multi-core host the\n"
        "sweep scales with cores until the largest single cell dominates: "
        "the\n"
        "512-process T3E partition of `table1_beff` is a single sequential\n"
        "simulation session and bounds the critical path (Amdahl), which is "
        "why\n"
        "the cell decomposition stops at (pattern, method) granularity "
        "rather\n"
        "than splitting message sizes (looplength adaptation chains through\n"
        "them).\n"
        "\n"
        "### 512-process cells before/after the DES hot-path rework\n"
        "\n"
        "The indexed event queue, pooled fiber stacks and skip-unchanged rate\n"
        "commits (docs/SIMULATOR.md) were introduced against a committed\n"
        "`balbench-perf` baseline of the same 512-process sweep cells on "
        "this\n"
        "container (`--repeat 5`, medians with bootstrap 95 % CIs):\n"
        "\n"
        "| cell | before | after |\n"
        "|---|---|---|\n"
        "| `sweep.t3e512.random` | 2.514 s  CI [2.487, 2.543] | 1.855 s  CI "
        "[1.826, 1.870] |\n"
        "| `sweep.t3e512.construct` | 6.2 ms  CI [4.8, 13.0] | 4.1 ms  CI "
        "[3.9, 4.2] |\n"
        "| `sweep.t3e512.ring` | 6.9 ms  CI [6.6, 8.1] | 7.7 ms  CI [7.5, "
        "7.9] |\n"
        "\n"
        "The random-pattern cell is CI-separated (after's upper bound 1.870 s\n"
        "below before's lower bound 2.487 s, a 1.36× speedup); the ring cell\n"
        "stays within noise.  The \"after\" column also ran a component-incremental\n"
        "flow solver, since removed: in these patterns every flow shares links\n"
        "with every other, so its component walk covered the whole network and\n"
        "cost time.  With the global fill alone the doc sweep took 110.8 s\n"
        "instead of 124.0 s, with identical records, so the speedup belongs to\n"
        "the queue, the stacks and the skipped commits.  These\n"
        "`sweep.t3e512.*` cells are recorded in `BENCH_PERF.json` and tracked\n"
        "by the history drift check, so a hot-path regression shows up as drift\n"
        "rather than silently re-inflating the critical path above.\n";
}

void render_experiments_md(std::ostream& os, const ExperimentsData& data,
                           const std::string& cfg_hash,
                           const std::string& trend_section) {
  render_experiments_md(os, data, cfg_hash);
  if (!trend_section.empty()) os << '\n' << trend_section;
}

}  // namespace balbench::report
