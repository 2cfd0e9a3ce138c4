#include "simt/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace balbench::simt {

void Tracer::record(double start, double end, int process, char category,
                    std::string label) {
  if (end < start) return;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(TraceSpan{start, end, process, category, std::move(label)});
}

void Tracer::begin_session(std::string label) {
  sessions_.push_back(TraceSession{spans_.size(), std::move(label)});
}

void Tracer::clear() {
  spans_.clear();
  sessions_.clear();
  dropped_ = 0;
}

void Tracer::describe(char category, std::string meaning) {
  legend_[category] = std::move(meaning);
}

std::map<char, double> Tracer::category_totals() const {
  std::map<char, double> totals;
  for (const auto& s : spans_) totals[s.category] += s.end - s.start;
  return totals;
}

void Tracer::render_timeline(std::ostream& os, int width, int max_rows) const {
  if (spans_.empty()) {
    os << "(empty trace)\n";
    return;
  }
  double t0 = spans_.front().start;
  double t1 = spans_.front().end;
  int max_proc = 0;
  for (const auto& s : spans_) {
    t0 = std::min(t0, s.start);
    t1 = std::max(t1, s.end);
    max_proc = std::max(max_proc, s.process);
  }
  if (t1 <= t0) t1 = t0 + 1e-9;
  const int rows = std::min(max_proc + 1, max_rows);
  const double bucket = (t1 - t0) / width;

  // Dominant category per (row, bucket): accumulate time per category.
  std::vector<std::vector<std::map<char, double>>> cells(
      static_cast<std::size_t>(rows),
      std::vector<std::map<char, double>>(static_cast<std::size_t>(width)));
  for (const auto& s : spans_) {
    if (s.process >= rows) continue;
    const int b0 = std::clamp(
        static_cast<int>((s.start - t0) / bucket), 0, width - 1);
    const int b1 = std::clamp(static_cast<int>((s.end - t0) / bucket), 0,
                              width - 1);
    for (int b = b0; b <= b1; ++b) {
      const double lo = t0 + b * bucket;
      const double hi = lo + bucket;
      const double overlap = std::min(hi, s.end) - std::max(lo, s.start);
      if (overlap > 0.0) {
        cells[static_cast<std::size_t>(s.process)][static_cast<std::size_t>(b)]
             [s.category] += overlap;
      }
    }
  }

  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", t1 - t0);
  os << "virtual-time trace, " << spans_.size() << " spans over " << buf
     << " s" << (dropped_ > 0 ? " (some spans dropped)" : "") << '\n';
  for (int r = 0; r < rows; ++r) {
    std::snprintf(buf, sizeof buf, "p%-3d |", r);
    os << buf;
    for (int b = 0; b < width; ++b) {
      const auto& cell = cells[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)];
      char best = ' ';
      double best_t = 0.0;
      for (const auto& [cat, t] : cell) {
        if (t > best_t) {
          best_t = t;
          best = cat;
        }
      }
      os << best;
    }
    os << "|\n";
  }
  if (max_proc + 1 > rows) {
    os << "(+" << (max_proc + 1 - rows) << " more processes not shown)\n";
  }

  os << "totals:";
  for (const auto& [cat, t] : category_totals()) {
    std::snprintf(buf, sizeof buf, "%.4g", t);
    os << "  " << cat;
    auto it = legend_.find(cat);
    if (it != legend_.end()) os << '=' << it->second;
    os << ' ' << buf << 's';
  }
  os << '\n';
}

}  // namespace balbench::simt
