// Virtual-time activity tracing.
//
// A Tracer collects per-process activity spans (compute, barrier,
// waiting on messages, I/O, ...) during a simulation run and renders
// them as a per-process ASCII timeline -- a profiler view of where the
// simulated machine spends its virtual time.  The communication layer
// and the MPI-I/O layer record into it when one is attached to the
// transport; recording is O(1) per span and disabled entirely when no
// tracer is attached.
//
// All times in this header are VIRTUAL seconds (simt::Engine clock),
// never host wall-clock.  For an interactive view, convert a tracer to
// Chrome trace_event JSON with obs::write_chrome_trace() and open the
// file in chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace balbench::simt {

/// One activity interval of one simulated process.
/// Categories are single characters so the ASCII timeline stays
/// readable: the category char is what gets drawn.
struct TraceSpan {
  double start = 0.0;   // virtual seconds (engine clock of its session)
  double end = 0.0;     // virtual seconds, end >= start
  int process = 0;      // simulated rank within the session
  char category = '?';  // legend key, see Tracer::describe()
  std::string label;    // optional human-readable refinement
};

/// A tracer can span several engine *sessions* (e.g. one per b_eff
/// measurement cell, each with its own virtual clock starting at 0).
/// begin_session() marks the boundary; exporters use it to give every
/// session its own timeline instead of overlaying clocks.
struct TraceSession {
  std::size_t first_span = 0;  // index into spans() of the first span
  std::string label;           // e.g. "cell 17: ring-2/Sendrecv"
};

class Tracer {
 public:
  /// Spans beyond this cap are dropped (the drop count is reported);
  /// keeps runaway runs bounded.
  explicit Tracer(std::size_t max_spans = 1 << 20) : max_spans_(max_spans) {}

  /// Records [start, end] virtual seconds of `category` activity on
  /// simulated rank `process`.  O(1); spans with end < start are
  /// ignored.
  void record(double start, double end, int process, char category,
              std::string label = {});

  /// Marks the start of a new engine session; subsequent spans belong
  /// to it.  The transport calls this once per run when a tracer is
  /// attached.
  void begin_session(std::string label);

  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<TraceSession>& sessions() const {
    return sessions_;
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Drops all spans and sessions; the legend is kept.
  void clear();

  /// Register a legend entry for a category character (e.g. 'b' ->
  /// "collective").
  void describe(char category, std::string meaning);
  /// Category char -> meaning, as registered via describe().
  [[nodiscard]] const std::map<char, std::string>& legend() const {
    return legend_;
  }

  /// Per-process timeline: one row per process (up to `max_rows`),
  /// `width` time buckets; each cell shows the category that dominated
  /// the bucket.  Includes per-category virtual-time totals.
  void render_timeline(std::ostream& os, int width = 72,
                       int max_rows = 16) const;

  /// Total recorded virtual seconds per category (sum of span lengths;
  /// concurrent spans count multiply).
  [[nodiscard]] std::map<char, double> category_totals() const;

 private:
  std::size_t max_spans_;
  std::size_t dropped_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<TraceSession> sessions_;
  std::map<char, std::string> legend_;
};

}  // namespace balbench::simt
