#include "core/report/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/journal.hpp"

namespace balbench::report {

namespace {

// JsonValue stores every number as double; all journal integers are
// simulated counts far below 2^53, where this conversion is exact.
std::int64_t as_i64(const obs::JsonValue& v) {
  return std::llround(v.as_number());
}
std::uint64_t as_u64(const obs::JsonValue& v) {
  return static_cast<std::uint64_t>(std::llround(v.as_number()));
}
int as_int(const obs::JsonValue& v) {
  return static_cast<int>(std::llround(v.as_number()));
}
double as_double(const obs::JsonValue& v) { return v.as_number(); }
std::string as_string(const obs::JsonValue& v) { return v.as_string(); }

template <typename Values>
void write_array(obs::JsonWriter& w, const char* key, const Values& values) {
  w.key(key).begin_array();
  for (const auto& v : values) w.value(v);
  w.end_array();
}

template <typename Read>
auto read_array(const obs::JsonValue& v, Read read) {
  std::vector<decltype(read(v))> out;
  for (const auto& e : v.as_array()) out.push_back(read(e));
  return out;
}

obs::MetricsSnapshot read_metrics(const obs::JsonValue& v) {
  obs::MetricsSnapshot m;
  for (const auto& [k, e] : v.at("counters").as_object()) {
    m.counters[k] = as_u64(e);
  }
  for (const auto& [k, e] : v.at("sums").as_object()) m.sums[k] = e.as_number();
  for (const auto& [k, e] : v.at("gauges").as_object()) {
    m.gauges[k] = e.as_number();
  }
  for (const auto& [k, e] : v.at("histograms").as_object()) {
    obs::HistogramData h;
    h.count = as_u64(e.at("count"));
    h.sum = e.at("sum").as_number();
    h.max = e.at("max").as_number();
    for (const auto& b : e.at("buckets").as_array()) {
      const auto& pair = b.as_array();
      h.buckets.emplace_back(as_int(pair.at(0)), as_u64(pair.at(1)));
    }
    m.histograms[k] = std::move(h);
  }
  return m;
}

robust::Outcome outcome_from_name(const std::string& s) {
  if (s == "ok") return robust::Outcome::Ok;
  if (s == "degraded") return robust::Outcome::Degraded;
  if (s == "failed") return robust::Outcome::Failed;
  throw std::runtime_error("checkpoint: unknown outcome '" + s + "'");
}

void write_status(obs::JsonWriter& w,
                  const std::vector<robust::CellStatus>& statuses) {
  w.begin_array();
  for (const auto& s : statuses) {
    w.begin_object();
    w.field("outcome", robust::outcome_name(s.outcome));
    w.field("attempts", s.attempts);
    w.field("backoff_s", s.backoff_s);
    w.field("error", s.error);
    w.end_object();
  }
  w.end_array();
}

robust::CellStatus read_status(const obs::JsonValue& e) {
  robust::CellStatus s;
  s.outcome = outcome_from_name(e.at("outcome").as_string());
  s.attempts = as_int(e.at("attempts"));
  s.backoff_s = e.at("backoff_s").as_number();
  s.error = e.at("error").as_string();
  return s;
}

}  // namespace

void write_metrics(obs::JsonWriter& w, const obs::MetricsSnapshot& m) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [k, v] : m.counters) w.field(k, v);
  w.end_object();
  w.key("sums").begin_object();
  for (const auto& [k, v] : m.sums) w.field(k, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [k, v] : m.gauges) w.field(k, v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [k, h] : m.histograms) {
    w.key(k).begin_object();
    w.field("count", h.count).field("sum", h.sum).field("max", h.max);
    w.key("buckets").begin_array();
    for (const auto& [index, count] : h.buckets) {
      w.begin_array().value(index).value(count).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

// ---------------------------------------------------------------------------
// b_eff result round-trip
// ---------------------------------------------------------------------------

void write_beff_result(obs::JsonWriter& w, const beff::BeffResult& r) {
  w.begin_object();
  w.field("kind", "beff");
  w.field("nprocs", r.nprocs);
  w.field("lmax", r.lmax);
  write_array(w, "sizes", r.sizes);
  w.key("patterns").begin_array();
  for (const auto& p : r.patterns) {
    w.begin_object();
    w.field("name", p.name);
    w.field("is_random", p.is_random);
    w.key("sizes").begin_array();
    for (const auto& s : p.sizes) {
      w.begin_object();
      w.field("size", s.size);
      write_array(w, "method_bw", s.method_bw);
      w.field("best_bw", s.best_bw);
      w.field("looplength", s.looplength);
      w.end_object();
    }
    w.end_array();
    w.field("avg_bw", p.avg_bw);
    w.field("bw_at_lmax", p.bw_at_lmax);
    w.end_object();
  }
  w.end_array();
  w.field("b_eff", r.b_eff);
  w.field("rings_logavg", r.rings_logavg);
  w.field("random_logavg", r.random_logavg);
  w.field("b_eff_at_lmax", r.b_eff_at_lmax);
  w.field("rings_logavg_at_lmax", r.rings_logavg_at_lmax);
  w.field("random_logavg_at_lmax", r.random_logavg_at_lmax);
  w.key("analysis").begin_object();
  w.field("pingpong_bw", r.analysis.pingpong_bw);
  w.field("worst_cycle_bw", r.analysis.worst_cycle_bw);
  w.field("bisection_paired_bw", r.analysis.bisection_paired_bw);
  w.field("bisection_interleaved_bw", r.analysis.bisection_interleaved_bw);
  write_array(w, "cart2d_dims", r.analysis.cart2d_dims);
  write_array(w, "cart2d_per_dim_bw", r.analysis.cart2d_per_dim_bw);
  w.field("cart2d_combined_bw", r.analysis.cart2d_combined_bw);
  write_array(w, "cart3d_dims", r.analysis.cart3d_dims);
  write_array(w, "cart3d_per_dim_bw", r.analysis.cart3d_per_dim_bw);
  w.field("cart3d_combined_bw", r.analysis.cart3d_combined_bw);
  w.end_object();
  w.field("benchmark_seconds", r.benchmark_seconds);
  w.key("metrics");
  write_metrics(w, r.metrics);
  w.key("cell_status");
  write_status(w, r.cell_status);
  write_array(w, "cell_labels", r.cell_labels);
  w.end_object();
}

beff::BeffResult read_beff_result(const obs::JsonValue& v) {
  beff::BeffResult r;
  r.nprocs = as_int(v.at("nprocs"));
  r.lmax = as_i64(v.at("lmax"));
  r.sizes = read_array(v.at("sizes"), as_i64);
  for (const auto& pe : v.at("patterns").as_array()) {
    beff::PatternMeasurement p;
    p.name = pe.at("name").as_string();
    p.is_random = pe.at("is_random").as_bool();
    for (const auto& se : pe.at("sizes").as_array()) {
      beff::SizeMeasurement s;
      s.size = as_i64(se.at("size"));
      const auto& bw = se.at("method_bw").as_array();
      if (bw.size() != static_cast<std::size_t>(beff::kNumMethods)) {
        throw std::runtime_error("checkpoint: bad method_bw arity");
      }
      for (int m = 0; m < beff::kNumMethods; ++m) {
        s.method_bw[static_cast<std::size_t>(m)] =
            bw[static_cast<std::size_t>(m)].as_number();
      }
      s.best_bw = se.at("best_bw").as_number();
      s.looplength = as_int(se.at("looplength"));
      p.sizes.push_back(std::move(s));
    }
    p.avg_bw = pe.at("avg_bw").as_number();
    p.bw_at_lmax = pe.at("bw_at_lmax").as_number();
    r.patterns.push_back(std::move(p));
  }
  r.b_eff = v.at("b_eff").as_number();
  r.rings_logavg = v.at("rings_logavg").as_number();
  r.random_logavg = v.at("random_logavg").as_number();
  r.b_eff_at_lmax = v.at("b_eff_at_lmax").as_number();
  r.rings_logavg_at_lmax = v.at("rings_logavg_at_lmax").as_number();
  r.random_logavg_at_lmax = v.at("random_logavg_at_lmax").as_number();
  const obs::JsonValue& a = v.at("analysis");
  r.analysis.pingpong_bw = a.at("pingpong_bw").as_number();
  r.analysis.worst_cycle_bw = a.at("worst_cycle_bw").as_number();
  r.analysis.bisection_paired_bw = a.at("bisection_paired_bw").as_number();
  r.analysis.bisection_interleaved_bw =
      a.at("bisection_interleaved_bw").as_number();
  r.analysis.cart2d_dims = read_array(a.at("cart2d_dims"), as_int);
  r.analysis.cart2d_per_dim_bw =
      read_array(a.at("cart2d_per_dim_bw"), as_double);
  r.analysis.cart2d_combined_bw = a.at("cart2d_combined_bw").as_number();
  r.analysis.cart3d_dims = read_array(a.at("cart3d_dims"), as_int);
  r.analysis.cart3d_per_dim_bw =
      read_array(a.at("cart3d_per_dim_bw"), as_double);
  r.analysis.cart3d_combined_bw = a.at("cart3d_combined_bw").as_number();
  r.benchmark_seconds = v.at("benchmark_seconds").as_number();
  r.metrics = read_metrics(v.at("metrics"));
  r.cell_status = read_array(v.at("cell_status"), read_status);
  r.cell_labels = read_array(v.at("cell_labels"), as_string);
  return r;
}

// ---------------------------------------------------------------------------
// b_eff_io result round-trip
// ---------------------------------------------------------------------------

void write_beffio_result(obs::JsonWriter& w, const beffio::BeffIoResult& r) {
  w.begin_object();
  w.field("kind", "beffio");
  w.field("nprocs", r.nprocs);
  w.field("scheduled_time", r.scheduled_time);
  w.field("mpart", r.mpart);
  w.key("access").begin_array();
  for (const auto& am : r.access) {
    w.begin_object();
    w.field("method", static_cast<int>(am.method));
    w.key("types").begin_array();
    for (const auto& tr : am.types) {
      w.begin_object();
      w.field("type", static_cast<int>(tr.type));
      w.key("patterns").begin_array();
      for (const auto& pr : tr.patterns) {
        w.begin_object();
        w.field("number", pr.pattern.number);
        w.field("ptype", static_cast<int>(pr.pattern.type));
        w.field("l", pr.pattern.l);
        w.field("L", pr.pattern.L);
        w.field("time_units", pr.pattern.time_units);
        w.field("fill_up", pr.pattern.fill_up);
        w.field("bytes", pr.bytes);
        w.field("seconds", pr.seconds);
        w.field("calls", pr.calls);
        w.end_object();
      }
      w.end_array();
      w.field("bytes", tr.bytes);
      w.field("seconds", tr.seconds);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.field("b_eff_io", r.b_eff_io);
  write_array(w, "random_extension", r.random_extension);
  w.field("benchmark_seconds", r.benchmark_seconds);
  w.field("segment_bytes", r.segment_bytes);
  w.key("fs_stats").begin_object();
  w.field("requests", r.fs_stats.requests);
  w.field("bytes_written", r.fs_stats.bytes_written);
  w.field("bytes_read", r.fs_stats.bytes_read);
  w.field("read_cache_hits", r.fs_stats.read_cache_hits);
  w.field("read_cache_misses", r.fs_stats.read_cache_misses);
  w.field("rmw_chunks", r.fs_stats.rmw_chunks);
  w.field("seeks", r.fs_stats.seeks);
  w.end_object();
  w.key("metrics");
  write_metrics(w, r.metrics);
  w.key("chain_status");
  write_status(w, r.chain_status);
  write_array(w, "chain_labels", r.chain_labels);
  w.end_object();
}

beffio::BeffIoResult read_beffio_result(const obs::JsonValue& v) {
  beffio::BeffIoResult r;
  r.nprocs = as_int(v.at("nprocs"));
  r.scheduled_time = v.at("scheduled_time").as_number();
  r.mpart = as_i64(v.at("mpart"));
  const auto& access = v.at("access").as_array();
  if (access.size() != static_cast<std::size_t>(beffio::kNumAccessMethods)) {
    throw std::runtime_error("checkpoint: bad access arity");
  }
  for (std::size_t m = 0; m < access.size(); ++m) {
    auto& am = r.access[m];
    am.method = static_cast<beffio::AccessMethod>(as_int(access[m].at("method")));
    const auto& types = access[m].at("types").as_array();
    if (types.size() != static_cast<std::size_t>(beffio::kNumPatternTypes)) {
      throw std::runtime_error("checkpoint: bad types arity");
    }
    for (std::size_t t = 0; t < types.size(); ++t) {
      auto& tr = am.types[t];
      tr.type = static_cast<beffio::PatternType>(as_int(types[t].at("type")));
      for (const auto& pe : types[t].at("patterns").as_array()) {
        beffio::PatternAccessResult pr;
        pr.pattern.number = as_int(pe.at("number"));
        pr.pattern.type = static_cast<beffio::PatternType>(as_int(pe.at("ptype")));
        pr.pattern.l = as_i64(pe.at("l"));
        pr.pattern.L = as_i64(pe.at("L"));
        pr.pattern.time_units = as_int(pe.at("time_units"));
        pr.pattern.fill_up = pe.at("fill_up").as_bool();
        pr.bytes = as_i64(pe.at("bytes"));
        pr.seconds = pe.at("seconds").as_number();
        pr.calls = as_i64(pe.at("calls"));
        tr.patterns.push_back(std::move(pr));
      }
      tr.bytes = as_i64(types[t].at("bytes"));
      tr.seconds = types[t].at("seconds").as_number();
    }
  }
  r.b_eff_io = v.at("b_eff_io").as_number();
  const auto& random = v.at("random_extension").as_array();
  if (random.size() != static_cast<std::size_t>(beffio::kNumAccessMethods)) {
    throw std::runtime_error("checkpoint: bad random_extension arity");
  }
  for (std::size_t m = 0; m < random.size(); ++m) {
    r.random_extension[m] = random[m].as_number();
  }
  r.benchmark_seconds = v.at("benchmark_seconds").as_number();
  r.segment_bytes = as_i64(v.at("segment_bytes"));
  const obs::JsonValue& fs = v.at("fs_stats");
  r.fs_stats.requests = as_i64(fs.at("requests"));
  r.fs_stats.bytes_written = as_i64(fs.at("bytes_written"));
  r.fs_stats.bytes_read = as_i64(fs.at("bytes_read"));
  r.fs_stats.read_cache_hits = as_i64(fs.at("read_cache_hits"));
  r.fs_stats.read_cache_misses = as_i64(fs.at("read_cache_misses"));
  r.fs_stats.rmw_chunks = as_i64(fs.at("rmw_chunks"));
  r.fs_stats.seeks = fs.at("seeks").as_number();
  r.metrics = read_metrics(v.at("metrics"));
  r.chain_status = read_array(v.at("chain_status"), read_status);
  r.chain_labels = read_array(v.at("chain_labels"), as_string);
  return r;
}

// ---------------------------------------------------------------------------
// Journals
// ---------------------------------------------------------------------------

namespace {

template <typename Result>
std::string compact(void (*write)(obs::JsonWriter&, const Result&),
                    const Result& r) {
  std::ostringstream out;
  {
    obs::JsonWriter w(out, 0);
    write(w, r);
  }
  return out.str();
}

/// The resume policy both checkpoints share: a missing, unusable or
/// other-configuration journal starts fresh with a stderr note
/// (resuming into the wrong configuration would be worse than
/// re-running); otherwise `visit` replays every record.  Returns false
/// when starting fresh, so the caller drops what was partly replayed.
bool resume_journal(const char* tag, const char* unit, const std::string& path,
                    const char* kind, const std::string& config,
                    const obs::JournalVisitor& visit) {
  try {
    if (const auto n = obs::read_journal(path, kind, config, visit)) {
      std::fprintf(stderr, "%s %s: resuming, %zu %s%s completed\n", tag,
                   path.c_str(), *n, unit, *n == 1 ? "" : "s");
      return true;
    }
    std::fprintf(stderr, "%s %s: no journal, starting fresh\n", tag,
                 path.c_str());
  } catch (const obs::JournalConfigMismatch&) {
    std::fprintf(stderr, "%s %s: written for a different configuration, "
                 "discarding journal\n", tag, path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s unusable journal (%s), starting fresh\n", tag,
                 e.what());
  }
  return false;
}

}  // namespace

Checkpoint::Checkpoint(std::string path, std::string config_key, bool resume)
    : path_(std::move(path)), config_key_(std::move(config_key)) {
  // Round-trip each task through the typed structs so the stored form
  // is canonical again and a malformed payload is rejected here, not
  // mid-sweep.
  const auto replay = [this](const std::string& task,
                             const obs::JsonValue& payload) {
    const std::string& kind = payload.at("kind").as_string();
    if (kind == "beff") {
      payloads_[task] = compact(write_beff_result, read_beff_result(payload));
    } else if (kind == "beffio") {
      payloads_[task] =
          compact(write_beffio_result, read_beffio_result(payload));
    } else {
      throw std::runtime_error("unknown task kind '" + kind + "'");
    }
  };
  if (resume && !resume_journal("[checkpoint]", "task", path_, kKind,
                                config_key_, replay)) {
    payloads_.clear();
  }
}

bool Checkpoint::has(const std::string& task) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return payloads_.count(task) != 0;
}

std::optional<obs::JsonValue> Checkpoint::payload(const std::string& task,
                                                  const char* kind) const {
  std::string text;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = payloads_.find(task);
    if (it == payloads_.end()) return std::nullopt;
    text = it->second;
  }
  obs::JsonValue v = obs::parse_json(text);
  if (v.at("kind").as_string() != kind) return std::nullopt;
  return v;
}

bool Checkpoint::load(const std::string& task,
                      beff::BeffResult* out) const {
  const auto v = payload(task, "beff");
  if (v) *out = read_beff_result(*v);
  return v.has_value();
}

bool Checkpoint::load(const std::string& task,
                      beffio::BeffIoResult* out) const {
  const auto v = payload(task, "beffio");
  if (v) *out = read_beffio_result(*v);
  return v.has_value();
}

void Checkpoint::record(const std::string& task,
                        const beff::BeffResult& r) {
  store(task, compact(write_beff_result, r));
}

void Checkpoint::record(const std::string& task,
                        const beffio::BeffIoResult& r) {
  store(task, compact(write_beffio_result, r));
}

std::size_t Checkpoint::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

void Checkpoint::store(const std::string& task, std::string payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  payloads_[task] = std::move(payload);
  ++recorded_;
  obs::JournalWriter journal(kKind, config_key_);
  for (const auto& [key, text] : payloads_) journal.add(key, text);
  journal.commit(path_);
}

PerfCheckpoint::PerfCheckpoint(std::string path, std::string config_key,
                               bool resume)
    : path_(std::move(path)), config_key_(std::move(config_key)) {
  const auto replay = [this](const std::string& id,
                             const obs::JsonValue& samples) {
    std::vector<double> v;
    for (const auto& s : samples.as_array()) v.push_back(s.as_number());
    cells_[id] = std::move(v);
  };
  if (resume && !resume_journal("[perf] checkpoint", "cell", path_, kKind,
                                config_key_, replay)) {
    cells_.clear();
  }
}

bool PerfCheckpoint::load(const std::string& id,
                          std::vector<double>* samples) const {
  const auto it = cells_.find(id);
  if (it == cells_.end()) return false;
  *samples = it->second;
  return true;
}

void PerfCheckpoint::record(const std::string& id,
                            const std::vector<double>& samples) {
  cells_[id] = samples;
  obs::JournalWriter journal(kKind, config_key_);
  for (const auto& [cid, v] : cells_) {
    std::string text = "[";
    for (const double x : v) text += obs::json_double(x) + ',';
    if (!v.empty()) text.pop_back();
    journal.add(cid, text + ']');
  }
  journal.commit(path_);
}

}  // namespace balbench::report
