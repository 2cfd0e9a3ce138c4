// balbench-report: the observability / reporting front end.
//
// Runs the experiments sweep behind EXPERIMENTS.md (report::
// run_experiments) and emits any combination of:
//
//   --record FILE     JSON run record ("balbench-run-record/1"): config
//                     hash, git revision, per-cell bandwidths, merged
//                     obs metric snapshots.
//   --kernel-record FILE  standalone "balbench-kernel-record/1" JSON:
//                     the kernel-suite cells plus derived balance
//                     factors (docs/FORMATS.md, docs/METRICS.md).
//   --markdown FILE   the regenerated EXPERIMENTS.md.
//   --check-doc FILE  regenerate in memory and byte-compare against
//                     FILE; exit 1 and report the first differing line
//                     on drift.  This is the `doc_drift_guard` ctest.
//
// or, independently of the sweep:
//
//   --trace FILE      run b_eff (and, where the machine has an I/O
//                     subsystem, a short b_eff_io) plus the kernel
//                     suite on --machine/--procs with a tracer and a
//                     sampling metrics registry attached, and write a
//                     Chrome trace_event JSON loadable in
//                     chrome://tracing / ui.perfetto.dev.
//   --diff-trace A B  align two Chrome traces by (session label,
//                     occurrence, rank, category) and report per-cell
//                     virtual-time deltas; |Δ| beyond --tolerance (or
//                     any structural mismatch) exits 3.  Byte-identical
//                     traces always diff clean (DESIGN.md Sec. 13.3).
//
// The sweep outputs can carry the perf-history trend section
// (DESIGN.md Sec. 13.2):
//
//   --history FILE    append the trend section rendered from this
//                     "balbench-perf-history/2" store to --markdown /
//                     --check-doc output; the same section is produced
//                     by `balbench-history render`.
//
// Observe-only extras (stderr / side files, never the byte-compared
// outputs):
//
//   --verbose           per-cell start/finish progress with wall times
//   --wall-profile FILE wall-clock profile of the harness itself
//                       ("balbench-wall-profile/1", DESIGN.md Sec. 11);
//                       with --trace the wall spans also land on the
//                       trace's dedicated "wall" pid.
//
// Scenario DSL (docs/SCENARIOS.md):
//
//   --scenario FILE   run the config-defined sweep from this
//                     "balbench-scenario/1" JSON (machines with
//                     arbitrary topologies, beff/beffio/kernel cell
//                     mixes, correlated fault plans, fault-rate
//                     sweeps) instead of the built-in specs; the
//                     other sweep flags (--record, --markdown,
//                     --jobs, --checkpoint, --faults, ...) compose
//                     unchanged and the byte-identity contract holds
//   --validate-scenario FILE  lint mode: parse + validate only, no
//                     sweep.  Prints every violation (one per line,
//                     key-path qualified) and exits 2 on schema
//                     violations, 0 when valid.
//
// Robustness layer (DESIGN.md Sec. 12):
//
//   --faults SPEC     deterministic fault injection, e.g.
//                     "seed=7,io=0.3,retries=4"; exhausted cells are
//                     recorded as degraded/failed instead of aborting
//   --checkpoint FILE crash-safe journal of completed sweep tasks,
//                     atomically rewritten after each task
//   --resume          replay completed tasks from --checkpoint FILE;
//                     resumed output is byte-identical to an
//                     uninterrupted run
//   --kill-after N    test hook: SIGKILL after N checkpointed tasks
//
// Exit codes: 0 = clean sweep; 3 = the sweep completed but at least
// one cell is degraded or failed (inspect "status" in the record);
// 1 = fatal error; 2 = bad usage.
//
// "-" as FILE writes to stdout; real files are written atomically
// (tmp + fsync + rename).  All sweep outputs are byte-identical for
// every --jobs value (DESIGN.md Sec. 10.2).
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/beff/beff.hpp"
#include "core/beffio/beffio.hpp"
#include "core/history/history.hpp"
#include "core/kernels/kernels.hpp"
#include "core/history/trace_diff.hpp"
#include "core/report/experiments.hpp"
#include "core/scenario/scenario.hpp"
#include "machines/machines.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "parmsg/sim_transport.hpp"
#include "robust/fault.hpp"
#include "simt/trace.hpp"
#include "util/atomic_write.hpp"
#include "util/options.hpp"

namespace {

using namespace balbench;

int diff_traces(const std::string& path_a, const std::string& path_b,
                double tolerance) {
  history::TraceDiffOptions opt;
  opt.tolerance_seconds = tolerance;
  const obs::JsonValue a = obs::parse_json(util::read_file(path_a));
  const obs::JsonValue b = obs::parse_json(util::read_file(path_b));
  const history::TraceDiff diff = history::diff_traces(a, b, opt);
  history::write_trace_diff(std::cout, diff, path_a, path_b, opt);
  return diff.drifted > 0 ? 3 : 0;
}

int check_doc(const std::string& path, const std::string& rendered) {
  const std::string committed = util::read_file(path);
  if (committed == rendered) {
    std::cerr << "balbench-report: " << path << " is up to date\n";
    return 0;
  }
  // Report the first differing line so the failure is actionable.
  std::istringstream a(committed), b(rendered);
  std::string la, lb;
  int line = 0;
  for (;;) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (la != lb || ga != gb) {
      std::cerr << "balbench-report: " << path << " drifted at line " << line
                << ":\n  committed: " << (ga ? la : "<eof>")
                << "\n  generated: " << (gb ? lb : "<eof>") << '\n';
      break;
    }
  }
  std::cerr << "balbench-report: regenerate with\n  balbench-report --scope "
               "doc --markdown "
            << path << '\n';
  return 1;
}

int write_trace(const std::string& path, const std::string& machine_name,
                int nprocs) {
  auto m = machines::machine_by_name(machine_name);
  parmsg::SimTransport transport(m.make_topology(nprocs), m.costs);

  auto tracer = std::make_shared<simt::Tracer>(std::size_t{1} << 22);
  obs::Registry registry;
  registry.enable_sampling(true);
  transport.set_tracer(tracer);
  transport.attach_metrics(&registry);

  std::fprintf(stderr, "[trace] b_eff %s, %d procs...\n", machine_name.c_str(),
               nprocs);
  beff::BeffOptions beff_opt;
  beff_opt.memory_per_proc = m.memory_per_proc;
  beff_opt.measure_analysis = false;
  beff::run_beff(transport, nprocs, beff_opt);

  if (m.io.has_value()) {
    // A short b_eff_io run so the trace also shows io-read/io-write
    // spans; T is far below the official schedule on purpose -- the
    // trace documents activity structure, not bandwidth numbers.
    std::fprintf(stderr, "[trace] b_eff_io %s, %d procs...\n",
                 machine_name.c_str(), nprocs);
    beffio::BeffIoOptions io_opt;
    io_opt.scheduled_time = 60.0;
    io_opt.memory_per_node = m.memory_per_proc;
    io_opt.file_prefix = m.short_name;
    beffio::run_beffio(transport, *m.io, nprocs, io_opt);
  }

  // Kernel-suite spans ('k' compute / 'x' exchange sessions) so the
  // trace shows the compute side of the balance picture too.
  std::fprintf(stderr, "[trace] kernels %s, %d procs...\n",
               machine_name.c_str(), nprocs);
  kernels::KernelOptions kern_opt;
  kern_opt.tracer = tracer.get();
  kernels::run_kernels(m, nprocs, kern_opt);

  std::ostringstream out;
  obs::ChromeTraceOptions trace_opt;
  // When profiling is on, the harness's own wall-clock spans ride along
  // on the dedicated "wall" pid so host cost and virtual timeline are
  // viewable side by side in one Perfetto window.
  trace_opt.wall_profiler = obs::prof::current();
  const std::size_t events =
      obs::write_chrome_trace(out, *tracer, &registry, trace_opt);
  util::write_output(path, out.str());
  std::fprintf(stderr,
               "[trace] %zu span events, %zu sessions -> %s "
               "(open in chrome://tracing or https://ui.perfetto.dev)\n",
               events, tracer->sessions().size(), path.c_str());
  return 0;
}

/// Owns the optional wall-clock profiler for the whole invocation:
/// attach on construction, then detach + export on destruction, which
/// runs after every parallel_for has returned and joined its threads
/// (the profiler must outlive them, see obs/prof.hpp).  Export failures only warn --
/// profiles are observe-only and must never change the exit code.
class ProfileSession {
 public:
  ProfileSession(bool enabled, std::string path) : path_(std::move(path)) {
    if (!enabled) return;
    profiler_ = std::make_unique<obs::prof::Profiler>();
    obs::prof::attach(profiler_.get());
  }
  ~ProfileSession() {
    if (profiler_ == nullptr) return;
    obs::prof::attach(nullptr);
    if (!path_.empty()) {
      std::ostringstream out;
      obs::prof::write_profile(out, *profiler_);
      try {
        util::write_output(path_, out.str());
      } catch (const std::exception& e) {
        std::cerr << "balbench-report: " << e.what() << '\n';
      }
    }
    obs::prof::write_summary(std::cerr, *profiler_);
  }
  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

 private:
  std::unique_ptr<obs::prof::Profiler> profiler_;
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string scope_arg = "doc";
  std::string record_path;
  std::string kernel_record_path;
  std::string markdown_path;
  std::string check_path;
  std::string trace_path;
  bool diff_trace = false;
  double tolerance = 0.0;
  std::vector<std::string> positionals;
  std::string history_path;
  std::string machine = "t3e";
  std::int64_t procs = 64;
  std::int64_t jobs = 1;
  bool verbose = false;
  std::string wall_profile_path;
  std::string faults_arg;
  std::string checkpoint_path;
  bool resume = false;
  std::int64_t kill_after = 0;
  std::string scenario_path;
  std::string validate_path;
  // The `profile` CMake preset builds with BALBENCH_PROFILE, which
  // turns wall-clock profiling on by default (summary to stderr).
#ifdef BALBENCH_PROFILE
  constexpr bool kProfileDefault = true;
#else
  constexpr bool kProfileDefault = false;
#endif
  util::Options options(
      "balbench-report: run the experiments sweep and emit JSON run "
      "records, the regenerated EXPERIMENTS.md, or Chrome traces.  "
      "Exit codes: 0 = clean sweep, 3 = completed with degraded/failed "
      "cells (see \"status\" in the record), 1 = fatal error, 2 = bad "
      "usage");
  options.add_string("scope", &scope_arg, "sweep size: quick | doc");
  options.add_string("record", &record_path, "write the JSON run record here");
  options.add_string("kernel-record", &kernel_record_path,
                     "write the standalone balbench-kernel-record/1 JSON "
                     "(kernel cells + balance factors) here");
  options.add_string("markdown", &markdown_path,
                     "write the regenerated EXPERIMENTS.md here");
  options.add_string("check-doc", &check_path,
                     "byte-compare the regenerated document against this file");
  options.add_string("trace", &trace_path,
                     "write a Chrome trace of one run (no sweep)");
  options.add_flag("diff-trace", &diff_trace,
                   "diff two Chrome traces given as positional arguments: "
                   "aligned per-cell virtual-time deltas to stdout, exit 3 "
                   "when any |delta| exceeds --tolerance");
  options.add_double("tolerance", &tolerance,
                     "--diff-trace drift tolerance in virtual seconds");
  options.add_string("history", &history_path,
                     "append the perf-history trend section rendered from "
                     "this balbench-perf-history/2 store to --markdown / "
                     "--check-doc output (see balbench-history)");
  options.add_positionals(&positionals, "FILE",
                          "trace files for --diff-trace (exactly two)");
  // The machine list is generated from the registry so this help text
  // can never drift from the code (same for machine_by_name errors).
  options.add_string("machine", &machine,
                     "machine for --trace: " + machines::machine_list());
  options.add_int("procs", &procs, "partition size for --trace");
  options.add_jobs(&jobs, "the experiments sweep");
  options.add_flag("verbose", &verbose,
                   "log per-cell start/finish lines with wall times to stderr "
                   "(never perturbs stdout or file outputs)");
  options.add_string("wall-profile", &wall_profile_path,
                     "write a wall-clock profile of this invocation "
                     "(balbench-wall-profile/1 JSON) here");
  options.add_string("scenario", &scenario_path,
                     "run the config-defined sweep from this "
                     "balbench-scenario/1 JSON file instead of the built-in "
                     "specs (docs/SCENARIOS.md)");
  options.add_string("validate-scenario", &validate_path,
                     "lint a scenario file and exit: 0 = valid, 2 = schema "
                     "violations (printed one per line)");
  options.add_string("faults", &faults_arg,
                     "deterministic fault injection spec, comma-separated "
                     "key=value: seed=N link=P degrade=F stall=P stall-s=T "
                     "io=P io-spike=P spike-s=T timeout=S retries=N "
                     "backoff=S backoff-cap=S (DESIGN.md Sec. 12.1)");
  options.add_string("checkpoint", &checkpoint_path,
                     "crash-safe journal of completed "
                     "sweep tasks (atomically rewritten after each task)");
  options.add_flag("resume", &resume,
                   "replay tasks already completed in the --checkpoint "
                   "journal; the resumed output is byte-identical to an "
                   "uninterrupted run");
  options.add_int("kill-after", &kill_after,
                  "test hook: raise SIGKILL after this many newly "
                  "checkpointed tasks (0 = never)");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  ProfileSession profile(kProfileDefault || !wall_profile_path.empty(),
                         wall_profile_path);

  if (!diff_trace && !positionals.empty()) {
    std::cerr << "balbench-report: positional arguments need --diff-trace\n";
    return 2;
  }
  if (diff_trace && positionals.size() != 2) {
    std::cerr << "balbench-report: --diff-trace takes exactly two trace "
                 "files, got "
              << positionals.size() << '\n';
    return 2;
  }

  try {
    if (!validate_path.empty()) {
      const std::vector<std::string> violations =
          scenario::validate_scenario_text(util::read_file(validate_path));
      if (violations.empty()) {
        std::cerr << "balbench-report: " << validate_path << " is a valid "
                  << "balbench-scenario/1 file\n";
        return 0;
      }
      for (const std::string& v : violations) {
        std::cerr << validate_path << ": " << v << '\n';
      }
      return 2;
    }
    if (diff_trace) {
      return diff_traces(positionals[0], positionals[1], tolerance);
    }
    if (!trace_path.empty()) {
      return write_trace(trace_path, machine, static_cast<int>(procs));
    }

    report::Scope scope;
    if (scope_arg == "quick") {
      scope = report::Scope::Quick;
    } else if (scope_arg == "doc") {
      scope = report::Scope::Doc;
    } else {
      std::cerr << "balbench-report: unknown --scope '" << scope_arg
                << "' (quick | doc)\n";
      return 2;
    }
    if (record_path.empty() && kernel_record_path.empty() &&
        markdown_path.empty() && check_path.empty()) {
      markdown_path.assign(1, '-');  // default: render the document to stdout
    }
    if (resume && checkpoint_path.empty()) {
      std::cerr << "balbench-report: --resume needs --checkpoint FILE\n";
      return 2;
    }
    if (kill_after > 0 && checkpoint_path.empty()) {
      std::cerr << "balbench-report: --kill-after needs --checkpoint FILE\n";
      return 2;
    }

    robust::FaultPlan plan;
    scenario::Scenario scen;
    report::ExperimentOptions run_opt;
    run_opt.scope = scope;
    run_opt.jobs = static_cast<int>(jobs);
    run_opt.verbose = verbose;
    if (!faults_arg.empty()) {
      plan = robust::FaultPlan::parse(faults_arg);
      run_opt.fault_plan = &plan;
    }
    if (!scenario_path.empty()) {
      scen = scenario::load_scenario_file(scenario_path);
      run_opt.scenario = &scen;
    }
    run_opt.checkpoint_path = checkpoint_path;
    run_opt.resume = resume;
    run_opt.kill_after = static_cast<int>(kill_after);

    const auto data = report::run_experiments(run_opt);
    const std::string hash = report::config_hash(scope, run_opt.scenario);

    if (!record_path.empty()) {
      std::ostringstream out;
      report::write_run_record(out, data, hash, report::git_revision());
      util::write_output(record_path, out.str());
    }
    if (!kernel_record_path.empty()) {
      std::ostringstream out;
      report::write_kernel_record(out, data, hash, report::git_revision());
      util::write_output(kernel_record_path, out.str());
    }
    std::string rendered;
    if (!markdown_path.empty() || !check_path.empty()) {
      std::string trend_section;
      if (!history_path.empty()) {
        std::ostringstream section;
        history::render_trend_section(section,
                                      history::load_history(history_path),
                                      history::TrendOptions{});
        trend_section = section.str();
      }
      std::ostringstream out;
      report::render_experiments_md(out, data, hash, trend_section);
      rendered = out.str();
    }
    if (!markdown_path.empty()) util::write_output(markdown_path, rendered);
    if (!check_path.empty()) return check_doc(check_path, rendered);

    // With faults on, a completed-but-imperfect sweep is exit 3 so CI
    // can tell "every cell clean" from "some cells degraded/failed"
    // without parsing the record.
    robust::Outcome worst = robust::Outcome::Ok;
    auto fold = [&worst](robust::Outcome o) {
      if (static_cast<int>(o) > static_cast<int>(worst)) worst = o;
    };
    for (const auto& b : data.beff) fold(b.r.worst_outcome());
    for (const auto& r : data.io) fold(r.r.worst_outcome());
    for (const auto& f : data.fault_sweep) fold(f.r.worst_outcome());
    if (worst != robust::Outcome::Ok) {
      std::cerr << "balbench-report: sweep completed with "
                << robust::outcome_name(worst) << " cells (exit 3)\n";
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "balbench-report: " << e.what() << '\n';
    return 1;
  }
}
