#include "core/report/checkpoint.hpp"

#include <array>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/journal.hpp"

namespace balbench::report {

namespace {

// ---------------------------------------------------------------------------
// The payload, declared once: each journaled struct's members in key
// order.  `f(key, member)` writes or reads one member, so one list
// drives both directions (JsonOut and JsonIn below) and the two can
// never disagree on a key or its place.
// ---------------------------------------------------------------------------

/// A field list takes its struct const to write it, mutable to read it.
template <typename R, typename T>
concept Of = std::same_as<std::remove_const_t<R>, T>;

template <typename F, Of<obs::HistogramData> R>
void fields(F& f, R& r) {
  f("count", r.count);
  f("sum", r.sum);
  f("max", r.max);
  f("buckets", r.buckets);
}

template <typename F, Of<obs::MetricsSnapshot> R>
void fields(F& f, R& r) {
  f("counters", r.counters);
  f("sums", r.sums);
  f("gauges", r.gauges);
  f("histograms", r.histograms);
}

template <typename F, Of<robust::CellStatus> R>
void fields(F& f, R& r) {
  f("outcome", r.outcome);
  f("attempts", r.attempts);
  f("backoff_s", r.backoff_s);
  f("error", r.error);
}

template <typename F, Of<beff::SizeMeasurement> R>
void fields(F& f, R& r) {
  f("size", r.size);
  f("method_bw", r.method_bw);
  f("best_bw", r.best_bw);
  f("looplength", r.looplength);
}

template <typename F, Of<beff::PatternMeasurement> R>
void fields(F& f, R& r) {
  f("name", r.name);
  f("is_random", r.is_random);
  f("sizes", r.sizes);
  f("avg_bw", r.avg_bw);
  f("bw_at_lmax", r.bw_at_lmax);
}

template <typename F, Of<beff::AnalysisResults> R>
void fields(F& f, R& r) {
  f("pingpong_bw", r.pingpong_bw);
  f("worst_cycle_bw", r.worst_cycle_bw);
  f("bisection_paired_bw", r.bisection_paired_bw);
  f("bisection_interleaved_bw", r.bisection_interleaved_bw);
  f("cart2d_dims", r.cart2d_dims);
  f("cart2d_per_dim_bw", r.cart2d_per_dim_bw);
  f("cart2d_combined_bw", r.cart2d_combined_bw);
  f("cart3d_dims", r.cart3d_dims);
  f("cart3d_per_dim_bw", r.cart3d_per_dim_bw);
  f("cart3d_combined_bw", r.cart3d_combined_bw);
}

template <typename F, Of<beff::BeffResult> R>
void fields(F& f, R& r) {
  f("nprocs", r.nprocs);
  f("lmax", r.lmax);
  f("sizes", r.sizes);
  f("patterns", r.patterns);
  f("b_eff", r.b_eff);
  f("rings_logavg", r.rings_logavg);
  f("random_logavg", r.random_logavg);
  f("b_eff_at_lmax", r.b_eff_at_lmax);
  f("rings_logavg_at_lmax", r.rings_logavg_at_lmax);
  f("random_logavg_at_lmax", r.random_logavg_at_lmax);
  f("analysis", r.analysis);
  f("benchmark_seconds", r.benchmark_seconds);
  f("metrics", r.metrics);
  f("cell_status", r.cell_status);
  f("cell_labels", r.cell_labels);
}

/// The pattern's members are flattened into the result's object.
template <typename F, Of<beffio::PatternAccessResult> R>
void fields(F& f, R& r) {
  f("number", r.pattern.number);
  f("ptype", r.pattern.type);
  f("l", r.pattern.l);
  f("L", r.pattern.L);
  f("time_units", r.pattern.time_units);
  f("fill_up", r.pattern.fill_up);
  f("bytes", r.bytes);
  f("seconds", r.seconds);
  f("calls", r.calls);
}

template <typename F, Of<beffio::TypeAccessResult> R>
void fields(F& f, R& r) {
  f("type", r.type);
  f("patterns", r.patterns);
  f("bytes", r.bytes);
  f("seconds", r.seconds);
}

template <typename F, Of<beffio::AccessMethodResult> R>
void fields(F& f, R& r) {
  f("method", r.method);
  f("types", r.types);
}

template <typename F, Of<pfsim::FileSystem::Stats> R>
void fields(F& f, R& r) {
  f("requests", r.requests);
  f("bytes_written", r.bytes_written);
  f("bytes_read", r.bytes_read);
  f("read_cache_hits", r.read_cache_hits);
  f("read_cache_misses", r.read_cache_misses);
  f("rmw_chunks", r.rmw_chunks);
  f("seeks", r.seeks);
}

template <typename F, Of<beffio::BeffIoResult> R>
void fields(F& f, R& r) {
  f("nprocs", r.nprocs);
  f("scheduled_time", r.scheduled_time);
  f("mpart", r.mpart);
  f("access", r.access);
  f("b_eff_io", r.b_eff_io);
  f("random_extension", r.random_extension);
  f("benchmark_seconds", r.benchmark_seconds);
  f("segment_bytes", r.segment_bytes);
  f("fs_stats", r.fs_stats);
  f("metrics", r.metrics);
  f("chain_status", r.chain_status);
  f("chain_labels", r.chain_labels);
}

// ---------------------------------------------------------------------------
// The two walkers over the lists.  Value kinds: numbers and bools,
// strings, enums as ints, an Outcome as its name, [first, second]
// pairs, std::array and std::vector as arrays, string-keyed maps and
// listed structs as objects.
// ---------------------------------------------------------------------------

template <typename T>
constexpr bool kFixedSize = false;
template <typename T, std::size_t N>
constexpr bool kFixedSize<std::array<T, N>> = true;

struct JsonOut {
  obs::JsonWriter& w;

  template <typename T>
  void operator()(const char* key, const T& v) {
    w.key(key);
    put(v);
  }

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, robust::Outcome>) {
      w.value(robust::outcome_name(v));
    } else if constexpr (std::is_enum_v<T>) {
      w.value(static_cast<int>(v));
    } else if constexpr (std::is_arithmetic_v<T> ||
                         std::is_same_v<T, std::string>) {
      w.value(v);
    } else if constexpr (requires { typename T::first_type; }) {
      w.begin_array();
      put(v.first);
      put(v.second);
      w.end_array();
    } else if constexpr (requires { typename T::mapped_type; }) {
      w.begin_object();
      for (const auto& [k, e] : v) {
        w.key(k);
        put(e);
      }
      w.end_object();
    } else if constexpr (requires { typename T::value_type; }) {
      w.begin_array();
      for (const auto& e : v) put(e);
      w.end_array();
    } else {
      w.begin_object();
      fields(*this, v);
      w.end_object();
    }
  }
};

/// Reads `v` into `out`; `key` names the member in error messages.
template <typename T>
void read_into(const obs::JsonValue& v, const char* key, T& out);

struct JsonIn {
  const obs::JsonValue& v;

  template <typename T>
  void operator()(const char* key, T& out) const {
    read_into(v.at(key), key, out);
  }
};

template <typename T>
void read_into(const obs::JsonValue& v, const char* key, T& out) {
  if constexpr (std::is_same_v<T, robust::Outcome>) {
    const std::string& name = v.as_string();
    for (const auto o : {robust::Outcome::Ok, robust::Outcome::Degraded,
                         robust::Outcome::Failed}) {
      if (name == robust::outcome_name(o)) {
        out = o;
        return;
      }
    }
    throw std::runtime_error("checkpoint: unknown outcome '" + name + "'");
  } else if constexpr (std::is_same_v<T, bool>) {
    out = v.as_bool();
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    // JsonValue stores every number as double; all journal integers are
    // simulated counts far below 2^53, where this conversion is exact.
    out = static_cast<T>(std::llround(v.as_number()));
  } else if constexpr (std::is_floating_point_v<T>) {
    out = v.as_number();
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = v.as_string();
  } else if constexpr (requires { typename T::first_type; }) {
    const auto& pair = v.as_array();
    read_into(pair.at(0), key, out.first);
    read_into(pair.at(1), key, out.second);
  } else if constexpr (requires { typename T::mapped_type; }) {
    for (const auto& [k, e] : v.as_object()) read_into(e, key, out[k]);
  } else if constexpr (kFixedSize<T>) {
    const auto& elems = v.as_array();
    if (elems.size() != out.size()) {
      throw std::runtime_error(std::string("checkpoint: bad ") + key +
                               " arity");
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      read_into(elems[i], key, out[i]);
    }
  } else if constexpr (requires { typename T::value_type; }) {
    for (const auto& e : v.as_array()) {
      read_into(e, key, out.emplace_back());
    }
  } else {
    JsonIn in{v};
    fields(in, out);
  }
}

template <typename T>
void write_json(obs::JsonWriter& w, const T& v) {
  JsonOut{w}.put(v);
}

/// A result object: its "kind" discriminator, then its field list.
template <typename Result>
void write_result(obs::JsonWriter& w, const char* kind, const Result& r) {
  w.begin_object().field("kind", kind);
  JsonOut out{w};
  fields(out, r);
  w.end_object();
}

template <typename Result>
Result read_result(const obs::JsonValue& v) {
  Result r;
  JsonIn in{v};
  fields(in, r);
  return r;
}

}  // namespace

void write_metrics(obs::JsonWriter& w, const obs::MetricsSnapshot& m) {
  write_json(w, m);
}

void write_beff_result(obs::JsonWriter& w, const beff::BeffResult& r) {
  write_result(w, "beff", r);
}

beff::BeffResult read_beff_result(const obs::JsonValue& v) {
  return read_result<beff::BeffResult>(v);
}

void write_beffio_result(obs::JsonWriter& w, const beffio::BeffIoResult& r) {
  write_result(w, "beffio", r);
}

beffio::BeffIoResult read_beffio_result(const obs::JsonValue& v) {
  return read_result<beffio::BeffIoResult>(v);
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
    read_into(samples, "samples", v);
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
    journal.add(cid, compact(write_json<std::vector<double>>, v));
  }
  journal.commit(path_);
}

}  // namespace balbench::report
