// balbench_e2e: the repository's end-to-end benchmark (README.md here).
//
//   balbench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--small]
//   balbench_e2e --selftest
//   balbench_e2e --write-references
//
// Run from the repository root: references come from kReferencesPath
// and scratch files go to kWorkDir, both relative to it.
//
// A measurement repeats set-up and body for S seconds (at least once)
// and prints a metric table, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  A
// traced invocation alternates untraced and traced repetitions, so it
// can prove the tracing changes no simulated value or work counter
// and report its overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report/experiments.hpp"
#include "e2e.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "reference.hpp"
#include "util/stats.hpp"
#include "util/wallclock.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#define E2E_CXX_FLAGS "unknown"
#define E2E_COMPILER "unknown"
#endif

namespace balbench::e2e {
namespace {

constexpr const char* kReferencesPath = "e2ebench/references.json";
constexpr const char* kWorkDir = ".bench_work";

/// Variables that select a different simulator configuration; timings
/// taken while one is set would measure another program.
constexpr const char* kProgramEnv[] = {"BALBENCH_FLOW_SOLVER",
                                       "BALBENCH_FLOW_CROSSCHECK",
                                       "BALBENCH_FIBER_STACK_KB"};

/// Set-ups timed before every repetition (the body runs on the inputs
/// of the last one) and once more at the end.  One set-up takes well
/// under a millisecond and its speed drifts with the load on the
/// host's cores, so setup_s is the median of batches spread over the
/// whole invocation.
constexpr int kSetupsPerBatch = 16;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int reps = 0;
  std::vector<double> walls;         // every untraced repetition, in order
  std::vector<double> traced_walls;  // every traced repetition, in order
  std::vector<double> setups;        // every set-up time
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced invocations only
  std::vector<std::string> notes;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A counter, sum or gauge of the snapshot by name (0 when absent).
double snap(const obs::MetricsSnapshot& s, const std::string& name) {
  if (auto it = s.counters.find(name); it != s.counters.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = s.sums.find(name); it != s.sums.end()) return it->second;
  if (auto it = s.gauges.find(name); it != s.gauges.end()) return it->second;
  return 0.0;
}

std::string stamp_json() {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object();
  w.field("git_rev", report::git_revision());
  w.field("build_type", E2E_BUILD_TYPE);
  w.field("cxx_flags", E2E_CXX_FLAGS);
  w.field("compiler", E2E_COMPILER);
  w.field("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  w.key("env").begin_object();
  for (const char* var : kProgramEnv) {
    const char* v = std::getenv(var);
    if (v != nullptr) {
      w.field(var, v);
    } else {
      w.key(var).null();
    }
  }
  w.end_object();
  w.end_object();
  return os.str();
}

/// Why timings from this process must not be reported, or "".
std::string refusal() {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return "this is an unoptimised or sanitizer build; rebuild with "
         "-DCMAKE_BUILD_TYPE=Release";
#else
  for (const char* var : kProgramEnv) {
    if (std::getenv(var) != nullptr) {
      return std::string(var) + " is set; unset it to measure the default program";
    }
  }
  return "";
#endif
}

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced repetition
// ---------------------------------------------------------------------------

struct TracedRep {
  Outcome outcome;
  std::vector<obs::prof::Span> prof_spans;
  obs::prof::SchedulerTelemetry scheduler;
};

std::string strip_cell_prefix(const std::string& label) {
  // "cell 17: random-4/Sendrecv" (session label) -> "random-4/Sendrecv"
  const auto pos = label.find(": ");
  return label.rfind("cell ", 0) == 0 && pos != std::string::npos
             ? label.substr(pos + 2)
             : label;
}

std::vector<Metric> per_layer_metrics(const TracedRep& t,
                                      const std::vector<double>& untraced_walls,
                                      const std::vector<double>& traced_walls,
                                      const std::map<std::string, double>& probes) {
  const obs::MetricsSnapshot& s = t.outcome.metrics;
  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, std::string unit) {
    m.push_back(Metric{std::move(name), v, std::move(unit)});
  };
  auto layer = [&t](const std::string& name) {
    const auto it = t.outcome.layer.find(name);
    return it == t.outcome.layer.end() ? 0.0 : it->second;
  };

  // b_eff cell sessions: from the forwarding transport where the
  // workload has one, else from the library's "beff" profiler spans.
  std::vector<std::pair<std::string, double>> cells = t.outcome.sessions;
  if (cells.empty()) {
    for (const auto& sp : t.prof_spans) {
      if (std::string(sp.category) == "beff") cells.emplace_back(sp.label, sp.dur);
    }
  }
  double random_s = 0.0, ring_s = 0.0, analysis_s = 0.0;
  std::vector<double> cell_durs;
  for (const auto& [label, dur] : cells) {
    const std::string name = strip_cell_prefix(label);
    if (name.rfind("random-", 0) == 0) {
      random_s += dur;
    } else if (name.rfind("ring-", 0) == 0) {
      ring_s += dur;
    } else {
      analysis_s += dur;
    }
    cell_durs.push_back(dur);
  }
  std::map<std::string, double> chain_s;
  std::size_t chains = 0;
  for (const auto& sp : t.prof_spans) {
    if (std::string(sp.category) != "beffio") continue;
    chain_s[sp.label] += sp.dur;
    ++chains;
  }

  const double events = snap(s, "simt.events_fired");
  add("simt.events_fired", events, "count");
  add("simt.context_switches", snap(s, "simt.context_switches"), "count");
  add("simt.host_ns_per_event",
      events > 0 ? util::median(untraced_walls) / events * 1e9 : 0.0, "ns");
  add("simt.switch_ns", probes.at("simt.switch_ns"), "ns");
  add("simt.dispatch_ns", probes.at("simt.dispatch_ns"), "ns");
  add("simt.fiber_stack_bytes_high_water",
      snap(s, "simt.fiber_stack_bytes_high_water"), "bytes");

  add("net.flow_resolves", snap(s, "net.flow_resolves"), "count");
  add("net.flow_resolves_incremental", snap(s, "net.flow_resolves_incremental"),
      "count");
  add("net.fill_random_s", probes.at("net.fill_random_s"), "s");
  add("net.fill_ring_s", probes.at("net.fill_ring_s"), "s");
  add("net.fill_random_resolves", probes.at("net.fill_random_resolves"), "count");

  add("parmsg.msgs_sent", snap(s, "parmsg.msgs_sent"), "count");
  add("parmsg.alltoallv_calls", snap(s, "parmsg.alltoallv_calls"), "count");
  add("parmsg.barrier_calls", snap(s, "parmsg.barrier_calls"), "count");
  add("parmsg.sessions", static_cast<double>(cells.size() + chains), "count");
  add("parmsg.construct_s", probes.at("parmsg.construct_s"), "s");

  add("beff.random_cells_s", random_s, "s");
  add("beff.ring_cells_s", ring_s, "s");
  add("beff.analysis_cells_s", analysis_s, "s");
  add("beff.cell_p50_s", util::median(cell_durs), "s");
  add("beff.cell_p75_s", quantile(cell_durs, 0.75), "s");
  add("beff.cell_max_s", util::maximum(cell_durs), "s");

  add("beffio.chain_scatter_s", chain_s["scatter"], "s");
  add("beffio.chain_shared_s", chain_s["shared"], "s");
  add("beffio.chain_separate_s", chain_s["separate+segmented"], "s");
  add("beffio.chain_random_s", chain_s["random-extension"], "s");
  add("pfsim.requests", snap(s, "pfsim.requests"), "count");
  add("pfsim.rmw_chunks", snap(s, "pfsim.rmw_chunks"), "count");
  const double hits = snap(s, "pfsim.read_cache_hit_chunks");
  const double misses = snap(s, "pfsim.read_cache_miss_chunks");
  add("pfsim.read_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
      "ratio");
  add("pario.calls", snap(s, "pario.calls"), "count");
  add("pario.syncs", snap(s, "pario.syncs"), "count");

  const auto& sched = t.scheduler;
  double task_max = 0.0;
  for (const auto& b : sched.batches) task_max = std::max(task_max, b.max_task_seconds);
  add("report.sweep_s", layer("report.sweep_s"), "s");
  add("report.critical_path_s", sched.critical_path_seconds, "s");
  add("report.parallel_efficiency", sched.batches.empty() ? 0.0 : sched.efficiency(),
      "ratio");
  add("report.idle_s", sched.idle_seconds, "s");
  add("report.task_max_s", task_max, "s");
  add("report.journal_write_mb", layer("report.journal_write_mb"), "MB");
  add("report.write_syscalls", layer("report.write_syscalls"), "count");
  add("report.journal_final_kb", layer("report.journal_final_kb"), "kB");
  add("report.record_encode_s", layer("report.record_encode_s"), "s");
  add("report.record_kb", layer("report.record_kb"), "kB");
  add("obs.record_parse_s", layer("obs.record_parse_s"), "s");

  add("trace.overhead_frac",
      util::median(traced_walls) / util::median(untraced_walls) - 1.0, "ratio");
  return m;
}

void write_trace_file(const std::string& path, const std::string& workload,
                      std::uint64_t seed, const SpanLog& log) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  obs::JsonWriter w(out, 1);
  w.begin_object();
  w.field("schema", "balbench-e2ebench-trace/1");
  w.field("workload", workload);
  w.field("seed", seed);
  w.key("stamp").value(stamp_json());
  w.key("spans").begin_array();
  for (const Span& s : log.spans()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("start", s.start);
    w.field("end", s.end);
    w.field("parent", s.parent);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------------
// One measurement
// ---------------------------------------------------------------------------

struct Request {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
};

Result measure(const Request& req, const ReferenceSet& refs) {
  Result res;
  std::unique_ptr<Workload> w =
      make_workload(req.workload, req.seed, req.small, kWorkDir);
  const auto ref_it = refs.find(w->reference_key());
  const Reference* ref = ref_it == refs.end() ? nullptr : &ref_it->second;

  std::vector<double> setup_samples;
  auto timed_setups = [&] {
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      w->cleanup();
      const double t0 = util::wall_now();
      w->setup();
      setup_samples.push_back(util::wall_now() - t0);
    }
  };

  SpanLog log;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::string untraced_values;  // digest of the first untraced outcome
  std::string untraced_counters;
  TracedRep traced;
  bool traced_matches = true;
  const double start = util::wall_now();
  for (int rep = 0;; ++rep) {
    const bool is_traced = req.trace && rep % 2 == 1;
    const int rep_span = is_traced ? log.open("rep " + std::to_string(rep)) : -1;
    timed_setups();
    obs::prof::Profiler profiler;
    if (is_traced) obs::prof::attach(&profiler);
    Outcome out;
    std::size_t failed = 0;
    const double t0 = util::wall_now();
    try {
      out = w->run(is_traced ? &log : nullptr);
      SpanScope span(is_traced ? &log : nullptr, "check");
      failed = check_outcome(out, ref, res.notes);
    } catch (const std::exception& e) {
      obs::prof::attach(nullptr);
      res.notes.push_back(std::string("repetition threw: ") + e.what());
      // Every operation the reference expects counts as failed.
      out = Outcome{};
      failed = check_outcome(out, ref, res.notes);
      if (out.ops.empty()) {
        out.ops.push_back(Op{"body", {}, true});
        failed = 1;
      }
    }
    const double wall = util::wall_now() - t0;
    obs::prof::attach(nullptr);
    res.attempted += out.ops.size();
    res.failed += failed;
    ++res.reps;

    std::string values_digest;
    for (const Op& op : out.ops) values_digest += digest(op.values);
    values_digest += digest(out.summary);
    const std::string counters_digest = digest(out.metrics);
    if (!is_traced) {
      untraced_walls.push_back(wall);
      if (untraced_values.empty()) {
        untraced_values = values_digest;
        untraced_counters = counters_digest;
      }
    } else {
      traced_walls.push_back(wall);
      if (values_digest != untraced_values || counters_digest != untraced_counters) {
        traced_matches = false;
        res.notes.push_back(
            "traced repetition differs from the untraced one in simulated values "
            "or work counters");
        res.failed += out.ops.size() - failed;
      }
      for (const auto& sp : profiler.spans()) {
        log.add(std::string(sp.category) + ':' + sp.label, sp.start,
                sp.start + sp.dur, rep_span);
      }
      traced.prof_spans = profiler.spans();
      traced.scheduler = profiler.scheduler();
      traced.outcome = std::move(out);
      log.close(rep_span);
    }
    w->cleanup();

    // Repetitions start until --seconds have passed; a traced
    // invocation needs at least one repetition of each kind.
    const bool have_all = !req.trace || !traced_walls.empty();
    if (have_all && util::wall_now() - start >= req.seconds) break;
  }
  timed_setups();
  w->cleanup();

  const double fails = static_cast<double>(res.failed);
  const double attempted = static_cast<double>(res.attempted);
  res.correct = res.failed == 0 && res.attempted > 0 && traced_matches;
  res.walls = untraced_walls;
  res.traced_walls = traced_walls;
  res.setups = setup_samples;
  res.end_to_end = {
      {"wall_s", util::median(untraced_walls), "s"},
      {"setup_s", util::median(setup_samples), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_frac", attempted > 0 ? 1.0 - fails / attempted : 0.0, "ratio"},
  };
  if (req.trace) {
    SpanScope span(&log, "probes");
    const auto probes = run_probes(req.seed, req.small);
    res.per_layer = per_layer_metrics(traced, untraced_walls, traced_walls, probes);
  }
  if (req.trace) {
    write_trace_file(std::string(kWorkDir) + "/trace-" + req.workload + "-seed" +
                         std::to_string(req.seed) + ".json",
                     req.workload, req.seed, log);
  }
  return res;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %-24s %s\n", m.name.c_str(), obs::json_double(m.value).c_str(),
                m.unit.c_str());
  }
}

void print_result(const Request& req, const Result& res) {
  std::printf("# e2ebench workload=%s seed=%llu input_seed=%llu trace=%d reps=%d\n",
              req.workload.c_str(), static_cast<unsigned long long>(req.seed),
              static_cast<unsigned long long>(accepted_seed(req.seed)),
              req.trace ? 1 : 0, res.reps);
  std::printf("# stamp %s\n", stamp_json().c_str());
  std::printf("# untraced repetition walls (s):");
  for (double w : res.walls) std::printf(" %.4f", w);
  if (!res.traced_walls.empty()) std::printf("; traced:");
  for (double w : res.traced_walls) std::printf(" %.4f", w);
  std::printf("\n# set-up samples: n=%zu p25=%.3g median=%.3g p75=%.3g (s)\n",
              res.setups.size(), quantile(res.setups, 0.25), quantile(res.setups, 0.5),
              quantile(res.setups, 0.75));
  std::printf("end-to-end (untraced repetitions):\n");
  print_table(res.end_to_end);
  std::printf("  %-36s %-24s %s\n", "failed_frac",
              obs::json_double(1.0 - res.end_to_end.back().value).c_str(), "ratio");
  if (!res.per_layer.empty()) {
    std::printf("per-layer (traced repetition and probes):\n");
    print_table(res.per_layer);
  }
  constexpr std::size_t kMaxNotes = 12;
  for (std::size_t i = 0; i < res.notes.size() && i < kMaxNotes; ++i) {
    std::printf("# note: %s\n", res.notes[i].c_str());
  }
  std::printf("correctness: %s (%llu of %llu operations failed)\n",
              res.correct ? "PASS" : "FAIL",
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  std::ostringstream os;
  {
    obs::JsonWriter w(os, 0);
    w.begin_object();
    w.field("correct", res.correct);
    w.field("attempted", res.attempted);
    w.field("failed", res.failed);
    w.key("metrics").begin_object();
    for (const Metric& m : req.trace ? res.per_layer : res.end_to_end) {
      w.key(m.name).begin_object();
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Reference generation and self-test
// ---------------------------------------------------------------------------

Outcome run_once(const std::string& workload, std::uint64_t seed, bool small,
                 std::string* key) {
  auto w = make_workload(workload, seed, small, kWorkDir);
  w->setup();
  Outcome out = w->run(nullptr);
  w->cleanup();
  *key = w->reference_key();
  return out;
}

int write_reference_file() {
  ReferenceSet refs;
  for (bool small : {true, false}) {
    for (const char* workload : kWorkloadNames) {
      const bool seeded = std::string(workload) != "sweep-mix-j4";
      const std::size_t n = seeded ? std::size(kAcceptedSeeds) : 2;
      for (std::size_t i = 0; i < n; ++i) {
        std::string key;
        const double t0 = util::wall_now();
        const Outcome out = run_once(workload, i, small, &key);
        const double host_s = util::wall_now() - t0;
        const Reference ref = reference_of(out);
        const auto [it, inserted] = refs.emplace(key, ref);
        if (!inserted) {
          // The sweep's seeds only reorder its cells: a second seed must
          // reproduce the first one's reference exactly.
          std::vector<std::string> notes;
          Outcome again = out;
          if (check_outcome(again, &it->second, notes) != 0) {
            std::fprintf(stderr, "e2ebench: %s depends on the cell order\n",
                         key.c_str());
            return 1;
          }
        }
        std::fprintf(stderr,
                     "e2ebench: reference %s (%zu operations; %.2f s host, %.0f events, "
                     "%.0f flow resolves)\n",
                     key.c_str(), out.ops.size(), host_s,
                     snap(out.metrics, "simt.events_fired"),
                     snap(out.metrics, "net.flow_resolves"));
      }
    }
  }
  write_references(kReferencesPath, refs);
  return 0;
}

int selftest(const ReferenceSet& refs) {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const char* workload : kWorkloadNames) {
    Request req;
    req.workload = workload;
    req.seed = 5;
    req.seconds = 0.0;  // one repetition of each kind
    req.small = true;

    req.trace = true;
    const Result traced = measure(req, refs);
    expect(traced.correct && traced.failed == 0 && traced.per_layer.size() > 40,
           std::string(workload) + ": small run matches the references, traced "
                                   "repetition identical to untraced");

    req.trace = false;
    const std::string key =
        make_workload(workload, req.seed, true, kWorkDir)->reference_key();
    ReferenceSet tampered = refs;
    Reference& ref = tampered.at(key);
    auto& first_op = ref.ops.begin()->second;
    first_op.fnv1a[0] = first_op.fnv1a[0] == '0' ? '1' : '0';
    const Result one = measure(req, tampered);
    expect(!one.correct && one.failed == 1 && one.end_to_end.back().value < 1.0,
           std::string(workload) + ": one changed operation reference fails that "
                                   "operation only");

    tampered = refs;
    auto& summary = tampered.at(key).summary;
    if (!summary.empty()) {
      double& v = summary.begin()->second;
      v = std::nextafter(v, INFINITY);
      const Result all = measure(req, tampered);
      expect(!all.correct && all.failed == all.attempted,
             std::string(workload) + ": one changed summary value (1 ulp) fails "
                                     "the repetition");
    }
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: balbench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--small]\n"
               "       balbench_e2e --selftest | --write-references\n"
               "workloads: beff-t3e256 beffio-sp-t3e128 sweep-mix-j4\n",
               msg);
  return 2;
}

int run_main(int argc, char** argv) {
  Request req;
  bool self = false;
  bool write_refs = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      req.workload = next();
      have_workload = true;
    } else if (a == "--seed") {
      req.seed = std::stoull(next());
    } else if (a == "--seconds") {
      req.seconds = std::stod(next());
    } else if (a == "--trace") {
      req.trace = next() != "0";
    } else if (a == "--small") {
      req.small = true;
    } else if (a == "--selftest") {
      self = true;
    } else if (a == "--write-references") {
      write_refs = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "e2ebench: refusing to report timings: %s\n", why.c_str());
    return 3;
  }
  std::filesystem::create_directories(kWorkDir);
  if (write_refs) return write_reference_file();
  const ReferenceSet refs = load_references(kReferencesPath);
  if (self) return selftest(refs);
  if (!have_workload) return usage("--workload is required");
  const Result res = measure(req, refs);
  print_result(req, res);
  return 0;
}

}  // namespace
}  // namespace balbench::e2e

int main(int argc, char** argv) {
  try {
    return balbench::e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
