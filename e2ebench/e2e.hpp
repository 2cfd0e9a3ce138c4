// Shared types of the end-to-end benchmark (see README.md here).
//
// A workload builds its inputs in setup() -- timed as `setup_s` -- and
// runs its body in run(), which returns every simulated value it
// produced, grouped into *operations* (one b_eff cell session, one
// b_eff_io chain or one sweep task).  main.cpp times the body, checks
// each operation's values against the committed references, and turns
// the traced repetitions into per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace balbench::e2e {

/// Named simulated values (bandwidths in bytes per virtual second,
/// durations in virtual seconds), compared bit for bit.
using Values = std::vector<std::pair<std::string, double>>;

/// One operation of a workload body and the simulated values it
/// produced.  `label` is the key into the reference file.
struct Op {
  std::string label;
  Values values;
  bool failed = false;  // threw or ended with a non-Ok outcome
};

/// Everything one repetition of a workload body produced.
struct Outcome {
  std::vector<Op> ops;
  /// Run-level reductions (b_eff, b_eff_io, ...); a mismatch here
  /// fails every operation of the repetition.
  Values summary;
  /// Merged work counters of every session (simt.*, net.*, parmsg.*,
  /// pfsim.*, pario.*); compared between traced and untraced runs,
  /// never against the references.
  obs::MetricsSnapshot metrics;
  /// Per-layer numbers only a traced repetition measures (session
  /// timings, journal I/O, record encoding); keyed by metric name.
  std::map<std::string, double> layer;
  /// (label, host seconds) of every b_eff cell session, when the
  /// workload can observe them through its forwarding transport.
  std::vector<std::pair<std::string, double>> sessions;
};

/// Simple wall-clock span log for traced repetitions: name, start,
/// end and parent, kept in memory and written out at exit.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the log, -1 = root
};

class SpanLog {
 public:
  int open(std::string name);
  void close(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Adds an already-completed span (e.g. a library profiler span).
  void add(std::string name, double start, double end, int parent);

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it a no-op (untraced repetitions).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// (Re)builds every input of the body: machine specs, topologies,
  /// transports, options, and for the sweep its scenario file.
  virtual void setup() = 0;
  /// Runs the body once on the inputs of the last setup().  `trace`
  /// is non-null in traced repetitions only.
  virtual Outcome run(SpanLog* trace) = 0;
  /// Key of this workload's entry in the reference file.
  [[nodiscard]] virtual std::string reference_key() const = 0;
  /// Removes whatever setup() left on disk.
  virtual void cleanup() {}
};

inline constexpr const char* kWorkloadNames[] = {
    "beff-t3e256", "beffio-sp-t3e128", "sweep-mix-j4"};

/// Accepted b_eff / b_eff_io input seeds: `--seed n` selects
/// kAcceptedSeeds[n mod size], so every input has a committed
/// reference.  2001 is the paper's default.
inline constexpr std::uint64_t kAcceptedSeeds[] = {2001, 2002, 2003, 2004,
                                                   2005, 2006, 2007, 2008};

std::uint64_t accepted_seed(std::uint64_t seed);

/// Throws std::invalid_argument for an unknown workload name.
/// `small` selects the seconds-scale sizes used by the self-test.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small,
                                        const std::string& work_dir);

/// Probes that time one layer in isolation (traced runs only).
std::map<std::string, double> run_probes(std::uint64_t beff_seed, bool small);

}  // namespace balbench::e2e
