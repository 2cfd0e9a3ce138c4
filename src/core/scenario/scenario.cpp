#include "core/scenario/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "net/topology.hpp"
#include "parmsg/comm.hpp"
#include "pfsim/config.hpp"
#include "util/atomic_write.hpp"

namespace balbench::scenario {

namespace {

using obs::JsonValue;

constexpr const char* kSchema = "balbench-scenario/1";

/// Shortest round-trip decimal form (same as obs::json_double for
/// finite values) so canonical machine lines hash stably.
std::string num(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return "bool";
    case JsonValue::Kind::Number: return "number";
    case JsonValue::Kind::String: return "string";
    case JsonValue::Kind::Array: return "array";
    case JsonValue::Kind::Object: return "object";
  }
  return "value";
}

/// Error-accumulating view over one JSON object.  Every getter
/// records a path-qualified violation instead of throwing, then
/// returns the fallback, so one validation pass reports *all*
/// problems in a document (the --validate-scenario contract).
class Obj {
 public:
  Obj(const JsonValue* v, std::string path, std::vector<std::string>* errors)
      : path_(std::move(path)), errors_(errors) {
    if (v == nullptr) return;
    if (v->kind() != JsonValue::Kind::Object) {
      error("expected an object, got " + std::string(kind_name(v->kind())));
      return;
    }
    value_ = v;
  }

  [[nodiscard]] bool present() const { return value_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }

  void error(const std::string& what) const {
    errors_->push_back(path_ + ": " + what);
  }
  void error_at(const std::string& key, const std::string& what) const {
    errors_->push_back(path_ + "." + key + ": " + what);
  }

  /// Flags keys outside `allowed` -- typos in optional keys must fail
  /// validation, or defaults silently swallow them.  `allowed` is a
  /// braced list or a section's collected keys.
  template <typename Keys = std::initializer_list<const char*>>
  void check_keys(const Keys& allowed) const {
    if (value_ == nullptr) return;
    for (const auto& [key, v] : value_->as_object()) {
      bool ok = false;
      for (const char* a : allowed) {
        if (key == a) { ok = true; break; }
      }
      if (!ok) error_at(key, "unknown key");
    }
  }

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    return value_ == nullptr ? nullptr : value_->find(key);
  }

  std::string get_string(const std::string& key, const std::string& fallback,
                         bool required = false) const {
    const JsonValue* v = typed(key, JsonValue::Kind::String, "a string",
                               required);
    return v == nullptr ? fallback : v->as_string();
  }

  double get_number(const std::string& key, double fallback,
                    bool required = false) const {
    const JsonValue* v = typed(key, JsonValue::Kind::Number, "a number",
                               required);
    return v == nullptr ? fallback : v->as_number();
  }

  /// A number that must be > 0 (bandwidths, peak rates, latencies that
  /// cannot be zero).
  double get_positive(const std::string& key, double fallback,
                      bool required = false) const {
    const double v = get_number(key, fallback, required);
    if (!(v > 0.0)) {
      error_at(key, "must be > 0, got " + num(v));
      return fallback;
    }
    return v;
  }

  /// A number that must be >= 0 (overheads, latencies, window edges).
  double get_nonneg(const std::string& key, double fallback,
                    bool required = false) const {
    const double v = get_number(key, fallback, required);
    if (!(v >= 0.0)) {
      error_at(key, "must be >= 0, got " + num(v));
      return fallback;
    }
    return v;
  }

  /// An integer >= min that fits `T`, the type of the member it is
  /// read into: a key read into an `int` is a violation above INT_MAX,
  /// never a wrapped value.
  template <typename T>
  T get_int_min(const std::string& key, std::int64_t min, T fallback,
                bool required = false) const {
    const JsonValue* v = typed(key, JsonValue::Kind::Number, "an integer",
                               required);
    if (v == nullptr) return fallback;
    const double d = v->as_number();
    if (std::floor(d) != d || std::abs(d) > 9.0e18) {
      error_at(key, "expected an integer, got " + num(d));
      return fallback;
    }
    const auto i = static_cast<std::int64_t>(d);
    constexpr std::int64_t kMax = std::numeric_limits<T>::max();
    if (i < min || i > kMax) {
      error_at(key, (i < min ? "must be >= " + std::to_string(min)
                             : "must be <= " + std::to_string(kMax)) +
                        ", got " + std::to_string(i));
      return fallback;
    }
    return static_cast<T>(i);
  }

  bool get_bool(const std::string& key, bool fallback) const {
    const JsonValue* v = typed(key, JsonValue::Kind::Bool, "true or false",
                               false);
    return v == nullptr ? fallback : v->as_bool();
  }

  /// Child object under `key` ("" path entries never happen: a missing
  /// optional child yields an absent Obj whose getters all return
  /// fallbacks without recording errors).
  [[nodiscard]] Obj child(const std::string& key,
                          bool required = false) const {
    const JsonValue* v = find(key);
    if (v == nullptr && required && present()) {
      error_at(key, "required key is missing");
    }
    return Obj(v, path_ + "." + key, errors_);
  }

  /// Array of objects under `key`; element type errors are recorded
  /// and the offending element skipped.
  [[nodiscard]] std::vector<Obj> children(const std::string& key,
                                          bool required = false) const {
    std::vector<Obj> out;
    const JsonValue* v = typed(key, JsonValue::Kind::Array, "an array",
                               required);
    if (v == nullptr) return out;
    const auto& items = v->as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      out.emplace_back(&items[i],
                       path_ + "." + key + "[" + std::to_string(i) + "]",
                       errors_);
    }
    return out;
  }

  /// Array of numbers under `key`.
  std::vector<double> get_numbers(const std::string& key,
                                  bool required = false) const {
    std::vector<double> out;
    const JsonValue* v = typed(key, JsonValue::Kind::Array,
                               "an array of numbers", required);
    if (v == nullptr) return out;
    const auto& items = v->as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].kind() != JsonValue::Kind::Number) {
        errors_->push_back(path_ + "." + key + "[" + std::to_string(i) +
                           "]: expected a number, got " +
                           kind_name(items[i].kind()));
        continue;
      }
      out.push_back(items[i].as_number());
    }
    return out;
  }

  /// Array of integers under `key` (used for "procs": [2, 4, 8]).
  std::vector<int> get_ints_min(const std::string& key, int min,
                                bool required = false) const {
    std::vector<int> out;
    for (double d : get_numbers(key, required)) {
      if (std::floor(d) != d || d < min || d > 1 << 20) {
        error_at(key, "each entry must be an integer >= " +
                          std::to_string(min) + ", got " + num(d));
        continue;
      }
      out.push_back(static_cast<int>(d));
    }
    return out;
  }

 private:
  /// The value under `key` when it is a `kind`, else nullptr after
  /// recording why: a missing required key, or "expected <what>".
  const JsonValue* typed(const std::string& key, JsonValue::Kind kind,
                         const char* what, bool required) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      if (required && present()) error_at(key, "required key is missing");
      return nullptr;
    }
    if (v->kind() != kind) {
      error_at(key, std::string("expected ") + what + ", got " +
                        kind_name(v->kind()));
      return nullptr;
    }
    return v;
  }

  const JsonValue* value_ = nullptr;
  std::string path_;
  std::vector<std::string>* errors_;
};

// -------------------------------------------------------------------------
// Machine sections, declared once.
//
// The parameters of each section -- the machine's own scalars,
// roofline, costs, io and every topology kind -- are one `fields(f,
// ...)` list in parse order, which is also canonical order.  An entry
// names the JSON key, the canonical token, the member and its Rule.
// Three walkers drive every list: allow() feeds Obj::check_keys,
// Reader reads the keys with path-qualified violations, and Writer
// appends "token=value" to the canonical line that config_hash, the
// checkpoint journal key and the serve cache key hash.  So a listed key
// is allowed, read and hashed, and an unlisted one is none of these.
// -------------------------------------------------------------------------

/// What a key accepts.  Numbers are kPositive (> 0), kNonNeg (>= 0) or
/// at_least(n) (an integer >= n that fits its member; for an int list,
/// each entry); bools, strings and placements take kAny.  A required
/// key reports its absence and keeps `fallback` when missing or
/// invalid; an optional key keeps the member's default.
struct Rule {
  enum class Check { Any, Positive, NonNeg, AtLeast };
  Check check = Check::Any;
  std::int64_t min = 0;
  bool mandatory = false;
  double fallback = 0.0;

  [[nodiscard]] constexpr Rule required(double value) const {
    return {check, min, true, value};
  }
};

constexpr Rule kAny{};
constexpr Rule kPositive{Rule::Check::Positive};
constexpr Rule kNonNeg{Rule::Check::NonNeg};
constexpr Rule at_least(std::int64_t n) { return {Rule::Check::AtLeast, n}; }

/// A field list takes its struct const to write it, mutable to read it.
template <typename R, typename T>
concept Of = std::same_as<std::remove_const_t<R>, T>;

/// The machine's own scalars.  pingpong_Bps is validated and hashed,
/// but read by no output.
template <typename F, Of<machines::MachineSpec> S, Of<double> D>
void fields(F& f, S& spec, D& pingpong) {
  f("display", "display", spec.name, kAny);
  f("max_procs", "max_procs", spec.max_procs, at_least(1).required(1));
  f("memory_per_proc_bytes", "mem", spec.memory_per_proc,
    at_least(1).required(1 << 20));
  f("shared_memory", "shared", spec.shared_memory, kAny);
  f("rmax_gflops_per_proc", "rmax", spec.rmax_gflops_per_proc,
    kPositive.required(0.1));
  f("pingpong_Bps", "pingpong", pingpong, kNonNeg);
}

template <typename F, Of<machines::Roofline> R>
void fields(F& f, R& r) {
  f("peak_flops", "peak", r.peak_flops, kPositive.required(1.0));
  f("mem_bw_Bps", "mem_bw", r.mem_bw, kPositive.required(1.0));
  f("cache_bytes", "cache", r.cache_bytes, at_least(0));
  f("mem_latency_seconds", "mem_latency", r.mem_latency, kNonNeg);
  f("net_bw_Bps", "net_bw", r.net_bw, kPositive.required(1.0));
}

template <typename F, Of<parmsg::CommCosts> C>
void fields(F& f, C& c) {
  f("send_overhead_seconds", "send", c.send_overhead, kNonNeg);
  f("recv_overhead_seconds", "recv", c.recv_overhead, kNonNeg);
  f("alltoallv_base_seconds", "a2a_base", c.alltoallv_base, kNonNeg);
  f("alltoallv_per_rank_seconds", "a2a_rank", c.alltoallv_per_rank, kNonNeg);
  f("barrier_hop_seconds", "barrier", c.barrier_hop, kNonNeg);
  f("bcast_hop_seconds", "bcast", c.bcast_hop, kNonNeg);
  f("reduce_hop_seconds", "reduce", c.reduce_hop, kNonNeg);
}

template <typename F, Of<pfsim::IoSystemConfig> C>
void fields(F& f, C& c) {
  f("num_servers", "servers", c.num_servers, at_least(1));
  f("disks_per_server", "disks", c.disks_per_server, at_least(1));
  f("disk_bw_Bps", "disk_bw", c.disk.bandwidth, kPositive);
  f("disk_seek_seconds", "seek", c.disk.seek_time, kNonNeg);
  f("disk_sequential_threshold_bytes", "seq_threshold",
    c.disk.sequential_threshold, at_least(0));
  f("server_bw_Bps", "server_bw", c.server_bandwidth, kPositive);
  f("client_link_bw_Bps", "client_bw", c.client_link_bw, kPositive);
  f("fabric_bw_Bps", "fabric_bw", c.fabric_bandwidth, kPositive);
  f("fabric_latency_seconds", "fabric_latency", c.fabric_latency, kNonNeg);
  f("write_penalty", "write_penalty", c.write_penalty, kPositive);
  f("stripe_unit_bytes", "stripe", c.stripe_unit, at_least(1));
  f("block_size_bytes", "block", c.block_size, at_least(1));
  f("cache_bytes", "cache", c.cache_bytes, at_least(0));
  f("cache_bypass_threshold_bytes", "bypass", c.cache_bypass_threshold,
    at_least(0));
  f("open_close_seconds", "open_close", c.open_close_overhead, kNonNeg);
  f("request_overhead_seconds", "request", c.request_overhead, kNonNeg);
  f("server_request_overhead_seconds", "server_request",
    c.server_request_overhead, kNonNeg);
  f("collective_two_phase", "two_phase", c.collective_two_phase, kAny);
  f("optimized_segmented_collective", "opt_segmented",
    c.optimized_segmented_collective, kAny);
  f("shared_pointer_overhead_seconds", "shared_ptr",
    c.shared_pointer_overhead, kNonNeg);
  f("unaligned_overhead_seconds", "unaligned", c.unaligned_overhead, kNonNeg);
}

template <typename F, Of<net::CrossbarParams> P>
void fields(F& f, P& p) {
  f("port_bw_Bps", "port_bw", p.port_bw, kPositive);
  f("latency_seconds", "latency", p.latency_sec, kNonNeg);
}

template <typename F, Of<net::SharedMemoryParams> P>
void fields(F& f, P& p) {
  f("copy_bw_Bps", "copy_bw", p.per_process_copy_bw, kPositive);
  f("aggregate_bw_Bps", "aggregate_bw", p.aggregate_bw, kPositive);
  f("latency_seconds", "latency", p.latency_sec, kNonNeg);
}

/// `dims` comes first and is lowered by hand: absent means sized by
/// nprocs, written "auto".
template <typename F, Of<net::Torus3DParams> P>
void fields(F& f, P& p) {
  f("nic_bw_Bps", "nic_bw", p.nic_bw, kPositive);
  f("duplex_factor", "duplex", p.duplex_factor, kPositive);
  f("link_bw_Bps", "link_bw", p.link_bw, kPositive);
  f("base_latency_seconds", "base_latency", p.base_latency, kNonNeg);
  f("per_hop_latency_seconds", "hop_latency", p.per_hop_latency, kNonNeg);
  f("self_bw_Bps", "self_bw", p.self_bw, kPositive);
}

template <typename F, Of<net::SmpClusterParams> P>
void fields(F& f, P& p) {
  f("nodes", "nodes", p.nodes, at_least(1).required(16));
  f("procs_per_node", "procs_per_node", p.procs_per_node,
    at_least(1).required(8));
  f("placement", "placement", p.placement, kAny);
  f("copy_bw_Bps", "copy_bw", p.per_process_copy_bw, kPositive);
  f("node_memory_bw_Bps", "node_bw", p.node_memory_bw, kPositive);
  f("nic_bw_Bps", "nic_bw", p.nic_bw, kPositive);
  f("switch_bw_Bps", "switch_bw", p.switch_bw, kPositive);
  f("intra_latency_seconds", "intra_latency", p.intra_latency, kNonNeg);
  f("inter_latency_seconds", "inter_latency", p.inter_latency, kNonNeg);
}

template <typename F, Of<net::FatTreeParams> P>
void fields(F& f, P& p) {
  f("leaves", "leaves", p.leaves, at_least(1));
  f("leaf_radix", "leaf_radix", p.leaf_radix, at_least(1));
  f("spines", "spines", p.spines, at_least(1));
  f("port_bw_Bps", "port_bw", p.port_bw, kPositive);
  f("up_bw_Bps", "up_bw", p.up_bw, kPositive);
  f("latency_seconds", "latency", p.latency_sec, kNonNeg);
  f("spine_latency_seconds", "spine_latency", p.spine_latency, kNonNeg);
}

template <typename F, Of<net::DragonflyParams> P>
void fields(F& f, P& p) {
  f("groups", "groups", p.groups, at_least(1));
  f("group_size", "group_size", p.group_size, at_least(1));
  f("port_bw_Bps", "port_bw", p.port_bw, kPositive);
  f("local_bw_Bps", "local_bw", p.local_bw, kPositive);
  f("global_bw_Bps", "global_bw", p.global_bw, kPositive);
  f("base_latency_seconds", "base_latency", p.base_latency, kNonNeg);
  f("global_latency_seconds", "global_latency", p.global_latency, kNonNeg);
}

template <typename F, Of<net::MultiRailParams> P>
void fields(F& f, P& p) {
  f("rails", "rails", p.rails, at_least(1));
  f("rail_bw_Bps", "rail_bw", p.rail_bw, kPositive);
  f("latency_seconds", "latency", p.latency_sec, kNonNeg);
}

/// `edges` is written here but read by lower_adjacency after the
/// scalars: each edge's checks need the node count.
template <typename F, Of<net::AdjacencyParams> P>
void fields(F& f, P& p) {
  f("nodes", "nodes", p.nodes, at_least(1).required(1));
  f("attach", "attach", p.attach, at_least(0).required(0));
  f("edges", "edges", p.edges, kAny);
  f("port_bw_Bps", "port_bw", p.port_bw, kPositive);
  f("latency_seconds", "latency", p.latency_sec, kNonNeg);
  f("per_hop_latency_seconds", "hop_latency", p.per_hop_latency, kNonNeg);
}

const char* placement_name(net::Placement p) {
  return p == net::Placement::RoundRobin ? "round_robin" : "sequential";
}

using Edges = std::vector<net::AdjacencyParams::Edge>;

struct Reader {
  const Obj& o;

  template <typename T>
  void operator()(const char* key, const char*, T& v, Rule r) const {
    if constexpr (std::is_same_v<T, bool>) {
      v = o.get_bool(key, v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = o.get_string(key, v);
    } else if constexpr (std::is_same_v<T, net::Placement>) {
      const std::string name = o.get_string(key, placement_name(v));
      if (name == "sequential") {
        v = net::Placement::Sequential;
      } else if (name == "round_robin") {
        v = net::Placement::RoundRobin;
      } else {
        o.error_at(key, "expected \"sequential\" or \"round_robin\", got \"" +
                            name + "\"");
      }
    } else if constexpr (std::is_same_v<T, std::vector<int>>) {
      v = o.get_ints_min(key, static_cast<int>(r.min), r.mandatory);
    } else if constexpr (std::is_integral_v<T>) {
      v = o.get_int_min(key, r.min,
                        r.mandatory ? static_cast<T>(r.fallback) : v,
                        r.mandatory);
    } else if constexpr (std::is_floating_point_v<T>) {
      const double fallback = r.mandatory ? r.fallback : v;
      v = r.check == Rule::Check::Positive
              ? o.get_positive(key, fallback, r.mandatory)
              : o.get_nonneg(key, fallback, r.mandatory);
    } else {
      static_assert(std::is_same_v<T, Edges>);
    }
  }
};

struct Writer {
  std::string text;

  template <typename T>
  void operator()(const char*, const char* token, const T& v, Rule) {
    if (!text.empty()) text += ' ';
    text += token;
    text += '=';
    if constexpr (std::is_same_v<T, bool>) {
      text += v ? '1' : '0';
    } else if constexpr (std::is_same_v<T, std::string>) {
      text += '"' + v + '"';
    } else if constexpr (std::is_same_v<T, net::Placement>) {
      text += placement_name(v);
    } else if constexpr (std::is_same_v<T, std::vector<int>>) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) text += ',';
        text += std::to_string(v[i]);
      }
    } else if constexpr (std::is_same_v<T, Edges>) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) text += ';';
        text += std::to_string(v[i].a) + "-" + std::to_string(v[i].b) + "@" +
                num(v[i].bandwidth);
      }
    } else if constexpr (std::is_integral_v<T>) {
      text += std::to_string(v);
    } else {
      text += num(v);
    }
  }
};

/// Flags every key of `o` that is neither listed nor one of
/// `hand_keys`, the keys its lowering reads by hand.
template <typename... R>
void allow(const Obj& o, std::initializer_list<const char*> hand_keys,
           const R&... r) {
  std::vector<const char*> keys(hand_keys);
  auto add = [&keys](const char* key, const char*, const auto&, Rule) {
    keys.push_back(key);
  };
  fields(add, r...);
  o.check_keys(keys);
}

template <typename... R>
void read(const Obj& o, R&... r) {
  Reader in{o};
  fields(in, r...);
}

/// allow() and read(), for a section that reads no key before its list.
template <typename R>
void read_listed(const Obj& o, std::initializer_list<const char*> hand_keys,
                 R& r) {
  allow(o, hand_keys, r);
  read(o, r);
}

/// `head` followed by one "token=value" per listed key.
template <typename... R>
std::string canonical(std::string head, const R&... r) {
  Writer out{std::move(head)};
  fields(out, r...);
  return std::move(out.text);
}

// -------------------------------------------------------------------------
// Topology lowering.  Each kind produces a factory closure over its
// final parameters and its canonical text.  `capacity` is the fixed
// endpoint count of structural kinds (0 = the topology is sized by
// nprocs at build time) so machine.max_procs can be checked against it.
// -------------------------------------------------------------------------

struct LoweredTopology {
  std::function<std::unique_ptr<net::Topology>(int)> factory;
  std::string canonical;
  std::int64_t capacity = 0;  // 0 = sized by nprocs
};

/// The listed parameters of a kind that has no hand-read key.
template <typename P>
LoweredTopology lower_listed(const Obj& t, P& p) {
  read_listed(t, {"kind"}, p);
  LoweredTopology out;
  out.canonical = canonical("", p);
  return out;
}

/// A kind whose topology is sized by nprocs when it is built.
template <typename P, auto make>
LoweredTopology lower_sized(const Obj& t) {
  P p;
  LoweredTopology out = lower_listed(t, p);
  out.factory = [p](int nprocs) {
    P q = p;
    q.processes = nprocs;
    return make(q);
  };
  return out;
}

/// Endpoint counts of the kinds of fixed size, in 64 bits so that an
/// oversized product is a violation, not a wrapped int.
std::int64_t endpoints(const net::SmpClusterParams& p) {
  return std::int64_t{p.nodes} * p.procs_per_node;
}
std::int64_t endpoints(const net::FatTreeParams& p) {
  return std::int64_t{p.leaves} * p.leaf_radix;
}
std::int64_t endpoints(const net::DragonflyParams& p) {
  return std::int64_t{p.groups} * p.group_size;
}

template <typename P, auto make>
LoweredTopology lower_fixed(const Obj& t) {
  P p;
  LoweredTopology out = lower_listed(t, p);
  out.capacity = endpoints(p);
  out.factory = [p](int) { return make(p); };
  return out;
}

LoweredTopology lower_torus3d(const Obj& t) {
  net::Torus3DParams p;
  allow(t, {"kind", "dims"}, p);
  bool fixed_dims = false;
  if (t.find("dims") != nullptr) {
    const std::vector<int> dims = t.get_ints_min("dims", 1);
    if (dims.size() != 3) {
      t.error_at("dims", "expected exactly 3 positive integers");
    } else {
      std::copy(dims.begin(), dims.end(), p.dims);
      fixed_dims = true;
    }
  }
  read(t, p);
  LoweredTopology out;
  std::string dims = "auto";
  if (fixed_dims) {
    dims = std::to_string(p.dims[0]) + "x" + std::to_string(p.dims[1]) + "x" +
           std::to_string(p.dims[2]);
    out.capacity = std::int64_t{p.dims[0]} * p.dims[1] * p.dims[2];
  }
  out.canonical = canonical("dims=" + dims, p);
  out.factory = [p, fixed_dims](int nprocs) {
    net::Torus3DParams q = p;
    if (!fixed_dims) net::torus_dims_for(nprocs, q.dims);
    return net::make_torus3d(q);
  };
  return out;
}

LoweredTopology lower_adjacency(const Obj& t) {
  net::AdjacencyParams p;
  read_listed(t, {"kind"}, p);
  for (const Obj& e : t.children("edges", true)) {
    e.check_keys({"a", "b", "bandwidth_Bps"});
    net::AdjacencyParams::Edge& edge = p.edges.emplace_back();
    edge.a = e.get_int_min("a", 0, 0, true);
    edge.b = e.get_int_min("b", 0, 0, true);
    edge.bandwidth = e.get_positive("bandwidth_Bps", edge.bandwidth);
    if (edge.a == edge.b) e.error("edge endpoints must differ");
    if (edge.a >= p.nodes || edge.b >= p.nodes) {
      e.error("edge endpoint out of range (nodes=" +
              std::to_string(p.nodes) + ")");
    }
  }
  for (std::size_t i = 0; i < p.attach.size(); ++i) {
    if (p.attach[i] >= p.nodes) {
      t.error_at("attach", "entry " + std::to_string(i) +
                               " out of range (nodes=" +
                               std::to_string(p.nodes) + ")");
    }
  }
  if (p.attach.empty()) t.error_at("attach", "must list at least one endpoint");
  if (p.edges.empty()) t.error_at("edges", "must list at least one edge");
  LoweredTopology out;
  out.canonical = canonical("", p);
  out.capacity = static_cast<std::int64_t>(p.attach.size());
  out.factory = [p](int) { return net::make_adjacency(p); };
  return out;
}

constexpr std::pair<const char*, LoweredTopology (*)(const Obj&)> kKinds[] = {
    {"crossbar", lower_sized<net::CrossbarParams, net::make_crossbar>},
    {"shared_memory",
     lower_sized<net::SharedMemoryParams, net::make_shared_memory>},
    {"torus3d", lower_torus3d},
    {"smp_cluster", lower_fixed<net::SmpClusterParams, net::make_smp_cluster>},
    {"fat_tree", lower_fixed<net::FatTreeParams, net::make_fat_tree>},
    {"dragonfly", lower_fixed<net::DragonflyParams, net::make_dragonfly>},
    {"multi_rail", lower_sized<net::MultiRailParams, net::make_multi_rail>},
    {"adjacency", lower_adjacency},
};

LoweredTopology lower_topology(const Obj& t) {
  const std::string kind = t.get_string("kind", "", true);
  for (const auto& [name, lower] : kKinds) {
    if (kind != name) continue;
    LoweredTopology out = lower(t);
    out.canonical = kind + " " + out.canonical;
    constexpr std::int64_t kMaxEndpoints = std::numeric_limits<int>::max();
    if (out.capacity > kMaxEndpoints) {
      t.error(std::to_string(out.capacity) + " endpoints exceed " +
              std::to_string(kMaxEndpoints));
    }
    return out;
  }
  if (!kind.empty()) {
    std::string expected;
    for (std::size_t i = 0; i < std::size(kKinds); ++i) {
      if (i != 0) expected += i + 1 == std::size(kKinds) ? " or " : ", ";
      expected += kKinds[i].first;
    }
    t.error_at("kind", "unknown topology kind \"" + kind + "\" (expected " +
                           expected + ")");
  }
  return {};
}

// -------------------------------------------------------------------------
// Machine lowering.
// -------------------------------------------------------------------------

MachineEntry parse_machine(const Obj& m) {
  MachineEntry entry;
  machines::MachineSpec& spec = entry.spec;
  double pingpong = 0.0;
  allow(m, {"name", "roofline", "costs", "topology", "io"}, spec, pingpong);
  spec.short_name = m.get_string("name", "", true);
  for (char ch : spec.short_name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
                    ch == '-' || ch == '_';
    if (!ok) {
      m.error_at("name",
                 "machine names are lowercase [a-z0-9_-] (CLI keys and "
                 "record fields), got \"" + spec.short_name + "\"");
      break;
    }
  }
  spec.name = spec.short_name;  // the display name's default
  read(m, spec, pingpong);
  read_listed(m.child("roofline", true), {}, spec.roofline);
  read_listed(m.child("costs"), {}, spec.costs);

  LoweredTopology topo = lower_topology(m.child("topology", true));
  if (topo.factory) {
    if (topo.capacity > 0 && spec.max_procs > topo.capacity) {
      m.error_at("max_procs",
                 "exceeds the topology's " + std::to_string(topo.capacity) +
                     " endpoints");
    }
    spec.make_topology = std::move(topo.factory);
  }

  const Obj io = m.child("io");
  if (io.present()) {
    spec.io.emplace().name = spec.short_name + " (scenario)";
    read_listed(io, {}, *spec.io);
  }

  entry.canonical = canonical("machine " + spec.short_name, spec, pingpong) +
                    " roofline{" + canonical("", spec.roofline) +
                    "} costs{" + canonical("", spec.costs) + "} topology{" +
                    topo.canonical + "}" +
                    (io.present() ? " io{" + canonical("", *spec.io) + "}"
                                  : "");
  return entry;
}

// -------------------------------------------------------------------------
// Cells, faults and the fault sweep.
// -------------------------------------------------------------------------

/// True when `key` names a machine this run can resolve: one defined
/// by the scenario, or a registry short name.
bool resolvable(const Scenario& s, const std::string& key) {
  if (s.find_machine(key) != nullptr) return true;
  try {
    (void)machines::machine_by_name(key);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Shared "machine" + "procs" reading for all cell kinds.  Returns the
/// machine key ("" on error) and fills `procs`.
std::string parse_cell_machine(const Scenario& s, const Obj& cell,
                               std::vector<int>* procs) {
  const std::string key = cell.get_string("machine", "", true);
  if (!key.empty() && !resolvable(s, key)) {
    cell.error_at("machine",
                  "\"" + key +
                      "\" is neither a scenario machine nor a built-in (" +
                      machines::machine_list() + ")");
    return "";
  }
  *procs = cell.get_ints_min("procs", 1, true);
  if (procs->empty() && cell.present()) {
    // get_ints_min already reported the specific problem.
    return "";
  }
  if (!key.empty()) {
    const machines::MachineSpec spec = s.resolve_machine(key);
    for (int np : *procs) {
      if (np > spec.max_procs) {
        cell.error_at("procs", std::to_string(np) + " exceeds " + key +
                                   "'s max_procs (" +
                                   std::to_string(spec.max_procs) + ")");
      }
    }
  }
  return key;
}

void parse_sweep(Scenario* s, const Obj& sweep) {
  sweep.check_keys({"beff", "beffio", "kernels"});
  for (const Obj& cell : sweep.children("beff")) {
    cell.check_keys({"machine", "procs", "analysis", "display"});
    std::vector<int> procs;
    const std::string key = parse_cell_machine(*s, cell, &procs);
    if (key.empty()) continue;
    const bool analysis = cell.get_bool("analysis", false);
    const std::string display = cell.get_string("display", "");
    for (int np : procs) s->beff.push_back({key, np, analysis, display});
  }
  for (const Obj& cell : sweep.children("beffio")) {
    cell.check_keys({"machine", "procs", "scheduled_seconds",
                     "mpart_cap_bytes", "figure", "display"});
    std::vector<int> procs;
    const std::string key = parse_cell_machine(*s, cell, &procs);
    if (key.empty()) continue;
    IoCell io;
    io.machine = key;
    io.scheduled_seconds =
        cell.get_positive("scheduled_seconds", io.scheduled_seconds);
    io.mpart_cap = cell.get_int_min("mpart_cap_bytes", 0, io.mpart_cap);
    io.figure = cell.get_string("figure", "");
    if (!io.figure.empty() && io.figure != "fig3" && io.figure != "fig4" &&
        io.figure != "fig5") {
      cell.error_at("figure", "expected \"fig3\", \"fig4\" or \"fig5\", "
                              "got \"" + io.figure + "\"");
    }
    io.display = cell.get_string("display", "");
    const machines::MachineSpec spec = s->resolve_machine(key);
    if (!spec.io.has_value()) {
      cell.error_at("machine",
                    "\"" + key + "\" has no io section, so it cannot run "
                                 "b_eff_io cells");
      continue;
    }
    for (int np : procs) {
      io.nprocs = np;
      s->io.push_back(io);
    }
  }
  for (const Obj& cell : sweep.children("kernels")) {
    cell.check_keys({"machine", "procs", "display"});
    std::vector<int> procs;
    const std::string key = parse_cell_machine(*s, cell, &procs);
    if (key.empty()) continue;
    const std::string display = cell.get_string("display", "");
    for (int np : procs) s->kernels.push_back({key, np, display});
  }
}

/// Overlays "window" / "drop" sub-objects onto a FaultPlan (shared by
/// the "faults" section and the fault sweep's optional window).
void parse_window(const Obj& w, double* start_s, double* end_s) {
  w.check_keys({"start_seconds", "end_seconds"});
  *start_s = w.get_nonneg("start_seconds", *start_s);
  *end_s = w.get_nonneg("end_seconds", *end_s, true);
  if (w.present() && *end_s > 0.0 && *end_s <= *start_s) {
    w.error("end_seconds must be > start_seconds");
  }
}

void parse_faults(Scenario* s, const Obj& faults) {
  faults.check_keys({"spec", "window", "drop"});
  s->has_faults = true;
  const std::string spec = faults.get_string("spec", "");
  if (!spec.empty()) {
    try {
      s->faults = robust::FaultPlan::parse(spec);
    } catch (const std::invalid_argument& e) {
      faults.error_at("spec", e.what());
    }
  }
  const Obj window = faults.child("window");
  if (window.present()) {
    parse_window(window, &s->faults.window_start_s, &s->faults.window_end_s);
  }
  const Obj drop = faults.child("drop");
  if (drop.present()) {
    drop.check_keys({"rank", "after_seconds"});
    s->faults.drop_rank = drop.get_int_min("rank", 0, 0, true);
    s->faults.drop_after_s =
        drop.get_nonneg("after_seconds", s->faults.drop_after_s);
  }
}

void parse_fault_sweep(Scenario* s, const Obj& fs) {
  fs.check_keys({"machine", "procs", "link_rates", "degrade_factor", "seed",
                 "window", "display"});
  s->has_fault_sweep = true;
  FaultSweep& sweep = s->fault_sweep;
  sweep.machine = fs.get_string("machine", "", true);
  sweep.display = fs.get_string("display", "");
  if (!sweep.machine.empty() && !resolvable(*s, sweep.machine)) {
    fs.error_at("machine",
                "\"" + sweep.machine +
                    "\" is neither a scenario machine nor a built-in (" +
                    machines::machine_list() + ")");
  }
  sweep.nprocs = fs.get_int_min("procs", 2, 2, true);
  if (!sweep.machine.empty() && resolvable(*s, sweep.machine)) {
    const machines::MachineSpec spec = s->resolve_machine(sweep.machine);
    if (sweep.nprocs > spec.max_procs) {
      fs.error_at("procs", std::to_string(sweep.nprocs) + " exceeds " +
                               sweep.machine + "'s max_procs (" +
                               std::to_string(spec.max_procs) + ")");
    }
  }
  sweep.rates = fs.get_numbers("link_rates", true);
  if (sweep.rates.empty() && fs.present()) {
    fs.error_at("link_rates", "must list at least one rate");
  }
  for (double r : sweep.rates) {
    if (r < 0.0 || r > 1.0) {
      fs.error_at("link_rates", "rates are probabilities in [0, 1], got " +
                                    num(r));
    }
  }
  sweep.degrade_factor = fs.get_number("degrade_factor",
                                       sweep.degrade_factor);
  if (!(sweep.degrade_factor > 0.0) || sweep.degrade_factor > 1.0) {
    fs.error_at("degrade_factor", "must be in (0, 1], got " +
                                      num(sweep.degrade_factor));
  }
  const std::int64_t seed = fs.get_int_min("seed", 0,
                                           static_cast<std::int64_t>(
                                               sweep.seed));
  sweep.seed = static_cast<std::uint64_t>(seed);
  const Obj window = fs.child("window");
  if (window.present()) {
    parse_window(window, &sweep.window_start_s, &sweep.window_end_s);
  }
}

Scenario parse_into(const JsonValue& doc, std::vector<std::string>* errors) {
  Scenario s;
  Obj root(&doc, "$", errors);
  root.check_keys({"schema", "name", "machines", "sweep", "faults",
                   "fault_sweep"});
  const std::string schema = root.get_string("schema", "", true);
  if (!schema.empty() && schema != kSchema) {
    root.error_at("schema", "expected \"" + std::string(kSchema) +
                                "\", got \"" + schema + "\"");
  }
  s.name = root.get_string("name", "", true);

  std::set<std::string> machine_names;
  for (const Obj& m : root.children("machines")) {
    MachineEntry entry = parse_machine(m);
    if (entry.spec.short_name.empty()) continue;
    if (!machine_names.insert(entry.spec.short_name).second) {
      m.error_at("name", "duplicate machine name \"" +
                             entry.spec.short_name + "\"");
      continue;
    }
    s.machines.push_back(std::move(entry));
  }

  const Obj sweep = root.child("sweep");
  if (sweep.present()) parse_sweep(&s, sweep);

  const Obj faults = root.child("faults");
  if (faults.present()) parse_faults(&s, faults);

  const Obj fault_sweep = root.child("fault_sweep");
  if (fault_sweep.present()) parse_fault_sweep(&s, fault_sweep);

  if (s.beff.empty() && s.io.empty() && s.kernels.empty() &&
      !s.has_fault_sweep && errors->empty()) {
    root.error("scenario schedules nothing: add a sweep section (beff / "
               "beffio / kernels cells) or a fault_sweep");
  }
  return s;
}

}  // namespace

const machines::MachineSpec* Scenario::find_machine(
    const std::string& key) const {
  for (const MachineEntry& m : machines) {
    if (m.spec.short_name == key) return &m.spec;
  }
  return nullptr;
}

machines::MachineSpec Scenario::resolve_machine(const std::string& key) const {
  if (const machines::MachineSpec* m = find_machine(key)) return *m;
  return machines::machine_by_name(key);
}

std::string Scenario::describe() const {
  // The optional row-label and figure keys print only when set, so a
  // scenario that does not use them keeps its config hash.
  auto display_token = [](const std::string& display) {
    return display.empty() ? std::string() : " display=\"" + display + "\"";
  };
  std::ostringstream os;
  os << kSchema << " name=" << name << '\n';
  for (const MachineEntry& m : machines) os << m.canonical << '\n';
  for (const BeffCell& c : beff) {
    os << "beff " << c.machine << " np=" << c.nprocs
       << " analysis=" << (c.analysis ? 1 : 0) << display_token(c.display)
       << '\n';
  }
  for (const IoCell& c : io) {
    os << "beffio " << c.machine << " np=" << c.nprocs
       << " T=" << num(c.scheduled_seconds) << " cap=" << c.mpart_cap
       << (c.figure.empty() ? "" : " figure=" + c.figure)
       << display_token(c.display) << '\n';
  }
  for (const KernelCell& c : kernels) {
    os << "kernels " << c.machine << " np=" << c.nprocs
       << display_token(c.display) << '\n';
  }
  if (has_faults) os << "faults " << faults.describe() << '\n';
  if (has_fault_sweep) {
    os << "fault-sweep " << fault_sweep.machine << " np=" << fault_sweep.nprocs
       << " degrade=" << num(fault_sweep.degrade_factor)
       << " seed=" << fault_sweep.seed
       << " window=" << num(fault_sweep.window_start_s) << "-"
       << num(fault_sweep.window_end_s) << " rates=";
    for (std::size_t i = 0; i < fault_sweep.rates.size(); ++i) {
      if (i != 0) os << ',';
      os << num(fault_sweep.rates[i]);
    }
    os << display_token(fault_sweep.display) << '\n';
  }
  return os.str();
}

Scenario parse_scenario(const obs::JsonValue& doc) {
  std::vector<std::string> errors;
  Scenario s = parse_into(doc, &errors);
  if (!errors.empty()) {
    std::string what = "invalid scenario:";
    for (const std::string& e : errors) what += "\n  " + e;
    throw ScenarioError(what);
  }
  return s;
}

Scenario parse_scenario_text(std::string_view text) {
  return parse_scenario(obs::parse_json(text));
}

Scenario load_scenario_file(const std::string& path) {
  return parse_scenario_text(util::read_file(path));
}

std::vector<std::string> validate_scenario_text(std::string_view text) {
  std::vector<std::string> errors;
  try {
    const JsonValue doc = obs::parse_json(text);
    (void)parse_into(doc, &errors);
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }
  return errors;
}

}  // namespace balbench::scenario
