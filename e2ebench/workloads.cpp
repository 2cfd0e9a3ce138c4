// The three workloads: b_eff on the T3E torus, b_eff_io on SP and T3E,
// and a checkpointed multi-threaded sweep over a scenario file.  Each
// calls the libraries' public functions only.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "core/beff/beff.hpp"
#include "core/beffio/beffio.hpp"
#include "core/report/experiments.hpp"
#include "core/scenario/scenario.hpp"
#include "e2e.hpp"
#include "machines/machines.hpp"
#include "parmsg/sim_transport.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace balbench::e2e {

std::uint64_t accepted_seed(std::uint64_t seed) {
  constexpr std::size_t n = std::size(kAcceptedSeeds);
  return kAcceptedSeeds[seed % n];
}

int SpanLog::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), util::wall_now(), 0.0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = util::wall_now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::add(std::string name, double start, double end, int parent) {
  spans_.push_back(Span{std::move(name), start, end, parent});
}

namespace {

// ---------------------------------------------------------------------------
// Simulated values of each result type, grouped by operation
// ---------------------------------------------------------------------------

/// One Op per b_eff cell session, in the cell order of beff.cpp:
/// (pattern, method) cells, then the analysis cells.  Labels carry the
/// cell index like the session labels do ("cell 7: random-16/Sendrecv"),
/// since small partitions repeat pattern names.
std::vector<Op> beff_cell_ops(const beff::BeffResult& r) {
  std::vector<Op> ops;
  auto label = [&ops](const std::string& name) {
    return "cell " + std::to_string(ops.size()) + ": " + name;
  };
  for (const auto& pm : r.patterns) {
    for (int m = 0; m < beff::kNumMethods; ++m) {
      Op op{label(pm.name + '/' + beff::method_name(static_cast<beff::Method>(m))), {}};
      for (const auto& sm : pm.sizes) {
        op.values.emplace_back("bw@" + std::to_string(sm.size),
                               sm.method_bw[static_cast<std::size_t>(m)]);
      }
      ops.push_back(std::move(op));
    }
  }
  const auto& a = r.analysis;
  auto add = [&](const std::string& name, double bw) {
    ops.push_back(Op{label(name), {{"bw", bw}}});
  };
  if (!a.cart3d_dims.empty()) {
    add("ping-pong", a.pingpong_bw);
    add("worst-cycle", a.worst_cycle_bw);
    add("bisection-paired", a.bisection_paired_bw);
    add("bisection-interleaved", a.bisection_interleaved_bw);
    for (std::size_t d = 0; d < a.cart2d_per_dim_bw.size(); ++d) {
      add("cart2d-dim" + std::to_string(d), a.cart2d_per_dim_bw[d]);
    }
    add("cart2d-combined", a.cart2d_combined_bw);
    for (std::size_t d = 0; d < a.cart3d_per_dim_bw.size(); ++d) {
      add("cart3d-dim" + std::to_string(d), a.cart3d_per_dim_bw[d]);
    }
    add("cart3d-combined", a.cart3d_combined_bw);
  }
  return ops;
}

Values beff_summary(const beff::BeffResult& r) {
  return {{"b_eff", r.b_eff},
          {"rings_logavg", r.rings_logavg},
          {"random_logavg", r.random_logavg},
          {"b_eff_at_lmax", r.b_eff_at_lmax},
          {"rings_logavg_at_lmax", r.rings_logavg_at_lmax},
          {"random_logavg_at_lmax", r.random_logavg_at_lmax},
          {"benchmark_seconds", r.benchmark_seconds}};
}

bool outcome_ok(const std::vector<robust::CellStatus>& statuses) {
  return std::all_of(statuses.begin(), statuses.end(), [](const auto& s) {
    return s.outcome == robust::Outcome::Ok;
  });
}

/// One Op per b_eff_io chain (beffio.hpp "Execution model"): chain 0 =
/// scatter type, 1 = shared type, 2 = separate + segmented types,
/// 3 = the random-offset extension.
std::vector<Op> beffio_chain_ops(const beffio::BeffIoResult& r) {
  static constexpr const char* kChains[] = {"scatter", "shared",
                                            "separate+segmented", "random"};
  std::vector<Op> ops;
  for (int chain = 0; chain < 4; ++chain) ops.push_back(Op{kChains[chain], {}});
  for (int m = 0; m < beffio::kNumAccessMethods; ++m) {
    const std::string method =
        beffio::access_method_name(static_cast<beffio::AccessMethod>(m));
    for (int t = 0; t < beffio::kNumPatternTypes; ++t) {
      const auto& type = r.access[static_cast<std::size_t>(m)]
                             .types[static_cast<std::size_t>(t)];
      Values& v = ops[static_cast<std::size_t>(std::min(t, 2))].values;
      const std::string prefix = method + "/type" + std::to_string(t);
      v.emplace_back(prefix + "/bw", type.bandwidth());
      v.emplace_back(prefix + "/seconds", type.seconds);
      for (const auto& p : type.patterns) {
        const std::string pp = prefix + "/pat" + std::to_string(p.pattern.number);
        v.emplace_back(pp + "/bw", p.bandwidth());
        v.emplace_back(pp + "/seconds", p.seconds);
      }
    }
    ops[3].values.emplace_back(method + "/bw",
                               r.random_extension[static_cast<std::size_t>(m)]);
  }
  if (!outcome_ok(r.chain_status)) {
    for (auto& op : ops) op.failed = true;
  }
  return ops;
}

Values beffio_summary(const beffio::BeffIoResult& r) {
  Values v{{"b_eff_io", r.b_eff_io}, {"benchmark_seconds", r.benchmark_seconds}};
  for (int m = 0; m < beffio::kNumAccessMethods; ++m) {
    v.emplace_back(std::string(beffio::access_method_name(
                       static_cast<beffio::AccessMethod>(m))) + "/weighted_bw",
                   r.access[static_cast<std::size_t>(m)].weighted_bandwidth());
  }
  return v;
}

void append(Values& into, const std::string& prefix, const Values& from) {
  for (const auto& [name, v] : from) into.emplace_back(prefix + name, v);
}

// ---------------------------------------------------------------------------
// Forwarding transport: times every session of the traced b_eff run
// ---------------------------------------------------------------------------

class TimedTransport final : public parmsg::Transport {
 public:
  explicit TimedTransport(parmsg::Transport& inner) : inner_(inner) {}

  [[nodiscard]] int max_processes() const override {
    return inner_.max_processes();
  }
  void run(int nprocs, const std::function<void(parmsg::Comm&)>& body) override {
    const double t0 = util::wall_now();
    inner_.run(nprocs, body);
    sessions_.emplace_back(label_, util::wall_now() - t0);
  }
  void attach_metrics(obs::Registry* registry) override {
    inner_.attach_metrics(registry);
  }
  [[nodiscard]] obs::Registry* metrics() const override { return inner_.metrics(); }
  void label_next_session(const std::string& label) override {
    label_ = label;
    inner_.label_next_session(label);
  }
  void set_fault_plan(const robust::FaultPlan* plan) override {
    inner_.set_fault_plan(plan);
  }
  void set_fault_attempt(int attempt) override { inner_.set_fault_attempt(attempt); }
  [[nodiscard]] robust::SessionInjector* session_injector() const override {
    return inner_.session_injector();
  }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }

  [[nodiscard]] std::vector<std::pair<std::string, double>>& sessions() {
    return sessions_;
  }

 private:
  parmsg::Transport& inner_;
  std::string label_;
  std::vector<std::pair<std::string, double>> sessions_;
};

// ---------------------------------------------------------------------------
// beff-t3e256
// ---------------------------------------------------------------------------

class BeffWorkload final : public Workload {
 public:
  BeffWorkload(std::uint64_t seed, bool small)
      : seed_(accepted_seed(seed)), nprocs_(small ? 16 : 256), small_(small) {}

  void setup() override {
    machine_ = machines::machine_by_name("t3e");
    transport_ = std::make_unique<parmsg::SimTransport>(
        machine_.make_topology(nprocs_), machine_.costs);
    options_ = beff::BeffOptions{};
    options_.memory_per_proc = machine_.memory_per_proc;
    options_.random_seed = seed_;
    options_.measure_analysis = true;
    options_.collect_metrics = true;
    options_.jobs = 1;
  }

  Outcome run(SpanLog* trace) override {
    Outcome out;
    beff::BeffResult r;
    if (trace != nullptr) {
      TimedTransport timed(*transport_);
      SpanScope span(trace, "beff.run_beff");
      r = beff::run_beff(timed, nprocs_, options_);
      out.sessions = std::move(timed.sessions());
    } else {
      r = beff::run_beff(*transport_, nprocs_, options_);
    }
    out.ops = beff_cell_ops(r);
    if (!outcome_ok(r.cell_status)) {
      for (auto& op : out.ops) op.failed = true;
    }
    out.summary = beff_summary(r);
    out.metrics = std::move(r.metrics);
    return out;
  }

  [[nodiscard]] std::string reference_key() const override {
    return std::string(small_ ? "small/" : "") + "beff-t3e" +
           std::to_string(nprocs_) + "/seed=" + std::to_string(seed_);
  }

 private:
  std::uint64_t seed_;
  int nprocs_;
  bool small_;
  machines::MachineSpec machine_;
  std::unique_ptr<parmsg::SimTransport> transport_;
  beff::BeffOptions options_;
};

// ---------------------------------------------------------------------------
// beffio-sp-t3e128
// ---------------------------------------------------------------------------

class BeffIoWorkload final : public Workload {
 public:
  BeffIoWorkload(std::uint64_t seed, bool small)
      : seed_(accepted_seed(seed)), nprocs_(small ? 8 : 128), small_(small) {}

  void setup() override {
    parts_.clear();
    for (const char* key : {"sp", "t3e"}) {
      Part p;
      p.machine = machines::machine_by_name(key);
      p.transport = std::make_unique<parmsg::SimTransport>(
          p.machine.make_topology(nprocs_), p.machine.costs);
      p.options.scheduled_time = 900.0;
      p.options.memory_per_node = p.machine.memory_per_proc;
      p.options.file_prefix = p.machine.short_name;
      p.options.include_random_type = true;
      p.options.random_seed = seed_;
      p.options.collect_metrics = true;
      p.options.jobs = 1;
      parts_.push_back(std::move(p));
    }
  }

  Outcome run(SpanLog* trace) override {
    Outcome out;
    for (Part& p : parts_) {
      const std::string name = p.machine.short_name + '/' + std::to_string(nprocs_);
      SpanScope span(trace, "beffio.run_beffio " + name);
      beffio::BeffIoResult r =
          beffio::run_beffio(*p.transport, *p.machine.io, nprocs_, p.options);
      for (Op& op : beffio_chain_ops(r)) {
        op.label = name + ' ' + op.label;
        out.ops.push_back(std::move(op));
      }
      append(out.summary, name + ' ', beffio_summary(r));
      out.metrics.merge(r.metrics);
    }
    return out;
  }

  [[nodiscard]] std::string reference_key() const override {
    return std::string(small_ ? "small/" : "") + "beffio-sp-t3e" +
           std::to_string(nprocs_) + "/seed=" + std::to_string(seed_);
  }

 private:
  struct Part {
    machines::MachineSpec machine;
    std::unique_ptr<parmsg::SimTransport> transport;
    beffio::BeffIoOptions options;
  };
  std::uint64_t seed_;
  int nprocs_;
  bool small_;
  std::vector<Part> parts_;
};

// ---------------------------------------------------------------------------
// sweep-mix-j4
// ---------------------------------------------------------------------------

/// Process-wide write counters from /proc/self/io (0 where absent).
struct IoCounters {
  double wchar = 0.0;
  double syscw = 0.0;
};

IoCounters read_io_counters() {
  IoCounters c;
  std::ifstream in("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (in >> key >> value) {
    if (key == "wchar:") c.wchar = value;
    if (key == "syscw:") c.syscw = value;
  }
  return c;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, bool small, std::string work_dir)
      : order_rng_(seed), small_(small), work_dir_(std::move(work_dir)) {}
  ~SweepWorkload() override { cleanup(); }
  SweepWorkload(const SweepWorkload&) = delete;
  SweepWorkload& operator=(const SweepWorkload&) = delete;

  void setup() override {
    dir_ = std::filesystem::path(work_dir_) /
           ("sweep-" + std::to_string(::getpid()) + '-' + std::to_string(++setups_));
    std::filesystem::create_directories(dir_);
    const std::string text = scenario_text();
    const std::string path = (dir_ / "scenario.json").string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
      if (!out) throw std::runtime_error("cannot write " + path);
    }
    scenario_ = scenario::load_scenario_file(path);
    options_ = report::ExperimentOptions{};
    options_.scope = report::Scope::Quick;
    options_.jobs = 4;
    options_.checkpoint_path = (dir_ / "journal.json").string();
    options_.scenario = &scenario_;
  }

  Outcome run(SpanLog* trace) override {
    Outcome out;
    const IoCounters io0 = read_io_counters();
    const double t0 = util::wall_now();
    report::ExperimentsData data;
    {
      SpanScope span(trace, "report.run_experiments");
      data = report::run_experiments(options_);
    }
    const double t1 = util::wall_now();
    const IoCounters io1 = read_io_counters();
    std::string record;
    {
      SpanScope span(trace, "report.write_run_record");
      std::ostringstream os;
      report::write_run_record(os, data, report::config_hash(options_.scope, &scenario_),
                               "e2ebench");
      record = os.str();
    }
    const double t2 = util::wall_now();
    {
      std::ofstream f(dir_ / "record.json", std::ios::binary | std::ios::trunc);
      f << record;
      if (!f) throw std::runtime_error("cannot write the run record");
    }

    // Operations and their counters, keyed by configuration: the
    // order of the cells in the scenario changes neither the check nor
    // the (floating-point) merge of the counters.
    std::map<std::string, const obs::MetricsSnapshot*> snapshots;
    for (const auto& b : data.beff) {
      Op op{"beff " + b.key + '/' + std::to_string(b.nprocs), {}};
      for (const Op& cell : beff_cell_ops(b.r)) {
        append(op.values, cell.label + ' ', cell.values);
      }
      append(op.values, "", beff_summary(b.r));
      op.failed = !outcome_ok(b.r.cell_status);
      snapshots[op.label] = &b.r.metrics;
      out.ops.push_back(std::move(op));
    }
    for (const auto& io : data.io) {
      char t_buf[32];
      std::snprintf(t_buf, sizeof t_buf, " T=%.0f", io.scheduled_seconds);
      Op op{"beffio " + io.key + '/' + std::to_string(io.nprocs) + t_buf, {}};
      for (const Op& chain : beffio_chain_ops(io.r)) {
        append(op.values, chain.label + ' ', chain.values);
        op.failed = op.failed || chain.failed;
      }
      append(op.values, "", beffio_summary(io.r));
      snapshots[op.label] = &io.r.metrics;
      out.ops.push_back(std::move(op));
    }
    for (const auto& k : data.kernels) {
      Op op{"kernels " + k.key + '/' + std::to_string(k.nprocs), {}};
      for (const auto& kr : k.r.kernels) {
        op.values.emplace_back(kr.name + "/seconds", kr.seconds);
        op.values.emplace_back(kr.name + "/value", kr.value);
      }
      op.values.emplace_back("suite_seconds", k.r.suite_seconds);
      snapshots[op.label] = &k.r.metrics;
      out.ops.push_back(std::move(op));
    }
    out.ops.push_back(Op{"termination-check t3e/32",
                         {{"termination_check_seconds", data.termination_check_seconds},
                          {"io_call_seconds", data.io_call_seconds}}});
    std::sort(out.ops.begin(), out.ops.end(),
              [](const Op& a, const Op& b) { return a.label < b.label; });
    for (const auto& [label, snapshot] : snapshots) out.metrics.merge(*snapshot);

    if (trace != nullptr) {
      std::error_code ec;
      const auto journal = std::filesystem::file_size(options_.checkpoint_path, ec);
      out.layer["report.sweep_s"] = t1 - t0;
      out.layer["report.journal_write_mb"] = (io1.wchar - io0.wchar) / 1.0e6;
      out.layer["report.write_syscalls"] = io1.syscw - io0.syscw;
      out.layer["report.journal_final_kb"] = ec ? 0.0 : static_cast<double>(journal) / 1.0e3;
      out.layer["report.record_encode_s"] = t2 - t1;
      out.layer["report.record_kb"] = static_cast<double>(record.size()) / 1.0e3;
      SpanScope span(trace, "obs.parse_json record");
      const double p0 = util::wall_now();
      const obs::JsonValue doc = obs::parse_json(record);
      out.layer["obs.record_parse_s"] = util::wall_now() - p0;
      if (doc.find("schema") == nullptr) {
        throw std::runtime_error("run record has no schema field");
      }
    }
    return out;
  }

  [[nodiscard]] std::string reference_key() const override {
    return small_ ? "small/sweep-mix-3cells" : "sweep-mix-j4";
  }

  void cleanup() override {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }

 private:
  struct Cell {
    std::string kind;  // "beff" | "beffio" | "kernels"
    std::string json;
  };

  [[nodiscard]] std::vector<Cell> cells() const {
    std::vector<Cell> v;
    auto beff = [&](const char* m, int np) {
      v.push_back({"beff", std::string("{\"machine\": \"") + m + "\", \"procs\": [" +
                               std::to_string(np) + "], \"analysis\": true}"});
    };
    auto io = [&](const char* m, int np, int t) {
      v.push_back({"beffio", std::string("{\"machine\": \"") + m + "\", \"procs\": [" +
                                 std::to_string(np) + "], \"scheduled_seconds\": " +
                                 std::to_string(t) + "}"});
    };
    auto kern = [&](const char* m, int np) {
      v.push_back({"kernels", std::string("{\"machine\": \"") + m +
                                  "\", \"procs\": [" + std::to_string(np) + "]}"});
    };
    if (small_) {
      beff("t3e", 8);
      io("t3e", 4, 600);
      kern("sx5", 4);
      return v;
    }
    for (int np : {128, 24, 2}) beff("t3e", np);
    for (int np : {128, 24}) beff("sr8000rr", np);
    beff("sr8000", 24);
    beff("sr2201", 16);
    for (int np : {16, 8, 4}) beff("sx4", np);
    beff("sx5", 4);
    beff("hpv", 7);
    beff("sv1", 15);
    for (int np : {16, 32}) io("t3e", np, 600);
    for (int np : {32, 64}) io("sp", np, 600);
    io("sr8000", 24, 600);
    kern("t3e", 128);
    kern("sr8000rr", 128);
    kern("sp", 64);
    kern("sx5", 4);
    return v;
  }

  /// The scenario document, its cells shuffled by the next draw of
  /// the seed's stream: every set-up gets a new order, so a run's
  /// median covers many schedules instead of the seed's first one.
  [[nodiscard]] std::string scenario_text() {
    std::vector<Cell> v = cells();
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[order_rng_.below(i)]);
    }
    std::string text =
        "{\n  \"schema\": \"balbench-scenario/1\",\n  \"name\": \"e2ebench-sweep-mix\",\n"
        "  \"sweep\": {\n";
    bool first_kind = true;
    for (const char* kind : {"beff", "beffio", "kernels"}) {
      text += first_kind ? "" : ",\n";
      first_kind = false;
      text += std::string("    \"") + kind + "\": [";
      bool first = true;
      for (const Cell& c : v) {
        if (c.kind != kind) continue;
        text += (first ? "\n      " : ",\n      ") + c.json;
        first = false;
      }
      text += "\n    ]";
    }
    text += "\n  }\n}\n";
    return text;
  }

  util::Xoshiro256 order_rng_;
  bool small_;
  std::string work_dir_;
  std::filesystem::path dir_;
  int setups_ = 0;
  scenario::Scenario scenario_;
  report::ExperimentOptions options_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small,
                                        const std::string& work_dir) {
  if (name == "beff-t3e256") return std::make_unique<BeffWorkload>(seed, small);
  if (name == "beffio-sp-t3e128") return std::make_unique<BeffIoWorkload>(seed, small);
  if (name == "sweep-mix-j4") {
    return std::make_unique<SweepWorkload>(seed, small, work_dir);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace balbench::e2e
