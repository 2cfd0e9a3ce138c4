#include "core/scenario/scenario.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "net/topology.hpp"
#include "parmsg/comm.hpp"
#include "pfsim/config.hpp"

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
  /// validation, or defaults silently swallow them.
  void check_keys(std::initializer_list<const char*> allowed) const {
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

  [[nodiscard]] bool has(const std::string& key) const {
    return find(key) != nullptr;
  }

  std::string get_string(const std::string& key, const std::string& fallback,
                         bool required = false) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      if (required && present()) error_at(key, "required key is missing");
      return fallback;
    }
    if (v->kind() != JsonValue::Kind::String) {
      error_at(key, "expected a string, got " +
                        std::string(kind_name(v->kind())));
      return fallback;
    }
    return v->as_string();
  }

  double get_number(const std::string& key, double fallback,
                    bool required = false) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      if (required && present()) error_at(key, "required key is missing");
      return fallback;
    }
    if (v->kind() != JsonValue::Kind::Number) {
      error_at(key, "expected a number, got " +
                        std::string(kind_name(v->kind())));
      return fallback;
    }
    return v->as_number();
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

  std::int64_t get_int(const std::string& key, std::int64_t fallback,
                       bool required = false) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      if (required && present()) error_at(key, "required key is missing");
      return fallback;
    }
    if (v->kind() != JsonValue::Kind::Number) {
      error_at(key, "expected an integer, got " +
                        std::string(kind_name(v->kind())));
      return fallback;
    }
    const double d = v->as_number();
    if (std::floor(d) != d || std::abs(d) > 9.0e18) {
      error_at(key, "expected an integer, got " + num(d));
      return fallback;
    }
    return static_cast<std::int64_t>(d);
  }

  std::int64_t get_int_min(const std::string& key, std::int64_t min,
                           std::int64_t fallback,
                           bool required = false) const {
    const std::int64_t v = get_int(key, fallback, required);
    if (v < min) {
      error_at(key, "must be >= " + std::to_string(min) + ", got " +
                        std::to_string(v));
      return fallback;
    }
    return v;
  }

  bool get_bool(const std::string& key, bool fallback) const {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    if (v->kind() != JsonValue::Kind::Bool) {
      error_at(key, "expected true or false, got " +
                        std::string(kind_name(v->kind())));
      return fallback;
    }
    return v->as_bool();
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
    const JsonValue* v = find(key);
    if (v == nullptr) {
      if (required && present()) error_at(key, "required key is missing");
      return out;
    }
    if (v->kind() != JsonValue::Kind::Array) {
      error_at(key, "expected an array, got " +
                        std::string(kind_name(v->kind())));
      return out;
    }
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
    const JsonValue* v = find(key);
    if (v == nullptr) {
      if (required && present()) error_at(key, "required key is missing");
      return out;
    }
    if (v->kind() != JsonValue::Kind::Array) {
      error_at(key, "expected an array of numbers, got " +
                        std::string(kind_name(v->kind())));
      return out;
    }
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
  const JsonValue* value_ = nullptr;
  std::string path_;
  std::vector<std::string>* errors_;
};

// -------------------------------------------------------------------------
// Topology lowering.
//
// Each branch reads the kind's parameters (unit-suffixed keys, struct
// defaults for optionals), validates them, and produces both a factory
// closure (capturing the final parameter values) and the canonical
// one-line form that feeds the config hash.  `capacity` is the fixed
// endpoint count of structural kinds (0 = the topology is sized by
// nprocs at build time) so machine.max_procs can be checked against it.
// -------------------------------------------------------------------------

struct LoweredTopology {
  std::function<std::unique_ptr<net::Topology>(int)> factory;
  std::string canonical;
  int capacity = 0;  // 0 = sized by nprocs
};

LoweredTopology lower_crossbar(const Obj& t) {
  t.check_keys({"kind", "port_bw_Bps", "latency_seconds"});
  net::CrossbarParams p;
  p.port_bw = t.get_positive("port_bw_Bps", p.port_bw);
  p.latency_sec = t.get_nonneg("latency_seconds", p.latency_sec);
  LoweredTopology out;
  out.canonical = "crossbar port_bw=" + num(p.port_bw) +
                  " latency=" + num(p.latency_sec);
  out.factory = [p](int nprocs) {
    net::CrossbarParams q = p;
    q.processes = nprocs;
    return net::make_crossbar(q);
  };
  return out;
}

LoweredTopology lower_shared_memory(const Obj& t) {
  t.check_keys({"kind", "copy_bw_Bps", "aggregate_bw_Bps",
                "latency_seconds"});
  net::SharedMemoryParams p;
  p.per_process_copy_bw = t.get_positive("copy_bw_Bps", p.per_process_copy_bw);
  p.aggregate_bw = t.get_positive("aggregate_bw_Bps", p.aggregate_bw);
  p.latency_sec = t.get_nonneg("latency_seconds", p.latency_sec);
  LoweredTopology out;
  out.canonical = "shared_memory copy_bw=" + num(p.per_process_copy_bw) +
                  " aggregate_bw=" + num(p.aggregate_bw) +
                  " latency=" + num(p.latency_sec);
  out.factory = [p](int nprocs) {
    net::SharedMemoryParams q = p;
    q.processes = nprocs;
    return net::make_shared_memory(q);
  };
  return out;
}

LoweredTopology lower_torus3d(const Obj& t) {
  t.check_keys({"kind", "dims", "nic_bw_Bps", "duplex_factor", "link_bw_Bps",
                "base_latency_seconds", "per_hop_latency_seconds",
                "self_bw_Bps"});
  net::Torus3DParams p;
  bool fixed_dims = false;
  if (t.has("dims")) {
    const std::vector<int> dims = t.get_ints_min("dims", 1);
    if (dims.size() != 3) {
      t.error_at("dims", "expected exactly 3 positive integers");
    } else {
      p.dims[0] = dims[0];
      p.dims[1] = dims[1];
      p.dims[2] = dims[2];
      fixed_dims = true;
    }
  }
  p.nic_bw = t.get_positive("nic_bw_Bps", p.nic_bw);
  p.duplex_factor = t.get_positive("duplex_factor", p.duplex_factor);
  p.link_bw = t.get_positive("link_bw_Bps", p.link_bw);
  p.base_latency = t.get_nonneg("base_latency_seconds", p.base_latency);
  p.per_hop_latency =
      t.get_nonneg("per_hop_latency_seconds", p.per_hop_latency);
  p.self_bw = t.get_positive("self_bw_Bps", p.self_bw);
  LoweredTopology out;
  out.canonical =
      "torus3d dims=" +
      (fixed_dims ? std::to_string(p.dims[0]) + "x" +
                        std::to_string(p.dims[1]) + "x" +
                        std::to_string(p.dims[2])
                  : std::string("auto")) +
      " nic_bw=" + num(p.nic_bw) + " duplex=" + num(p.duplex_factor) +
      " link_bw=" + num(p.link_bw) + " base_latency=" + num(p.base_latency) +
      " hop_latency=" + num(p.per_hop_latency) + " self_bw=" + num(p.self_bw);
  if (fixed_dims) out.capacity = p.dims[0] * p.dims[1] * p.dims[2];
  out.factory = [p, fixed_dims](int nprocs) {
    net::Torus3DParams q = p;
    if (!fixed_dims) net::torus_dims_for(nprocs, q.dims);
    return net::make_torus3d(q);
  };
  return out;
}

LoweredTopology lower_smp_cluster(const Obj& t) {
  t.check_keys({"kind", "nodes", "procs_per_node", "placement",
                "copy_bw_Bps", "node_memory_bw_Bps", "nic_bw_Bps",
                "switch_bw_Bps", "intra_latency_seconds",
                "inter_latency_seconds"});
  net::SmpClusterParams p;
  p.nodes = static_cast<int>(t.get_int_min("nodes", 1, p.nodes, true));
  p.procs_per_node =
      static_cast<int>(t.get_int_min("procs_per_node", 1, p.procs_per_node,
                                     true));
  const std::string placement =
      t.get_string("placement", "sequential");
  if (placement == "sequential") {
    p.placement = net::Placement::Sequential;
  } else if (placement == "round_robin") {
    p.placement = net::Placement::RoundRobin;
  } else {
    t.error_at("placement",
               "expected \"sequential\" or \"round_robin\", got \"" +
                   placement + "\"");
  }
  p.per_process_copy_bw = t.get_positive("copy_bw_Bps", p.per_process_copy_bw);
  p.node_memory_bw = t.get_positive("node_memory_bw_Bps", p.node_memory_bw);
  p.nic_bw = t.get_positive("nic_bw_Bps", p.nic_bw);
  p.switch_bw = t.get_positive("switch_bw_Bps", p.switch_bw);
  p.intra_latency = t.get_nonneg("intra_latency_seconds", p.intra_latency);
  p.inter_latency = t.get_nonneg("inter_latency_seconds", p.inter_latency);
  LoweredTopology out;
  out.canonical = "smp_cluster nodes=" + std::to_string(p.nodes) +
                  " procs_per_node=" + std::to_string(p.procs_per_node) +
                  " placement=" + placement +
                  " copy_bw=" + num(p.per_process_copy_bw) +
                  " node_bw=" + num(p.node_memory_bw) +
                  " nic_bw=" + num(p.nic_bw) +
                  " switch_bw=" + num(p.switch_bw) +
                  " intra_latency=" + num(p.intra_latency) +
                  " inter_latency=" + num(p.inter_latency);
  out.capacity = p.nodes * p.procs_per_node;
  out.factory = [p](int) { return net::make_smp_cluster(p); };
  return out;
}

LoweredTopology lower_fat_tree(const Obj& t) {
  t.check_keys({"kind", "leaves", "leaf_radix", "spines", "port_bw_Bps",
                "up_bw_Bps", "latency_seconds", "spine_latency_seconds"});
  net::FatTreeParams p;
  p.leaves = static_cast<int>(t.get_int_min("leaves", 1, p.leaves));
  p.leaf_radix = static_cast<int>(t.get_int_min("leaf_radix", 1,
                                                p.leaf_radix));
  p.spines = static_cast<int>(t.get_int_min("spines", 1, p.spines));
  p.port_bw = t.get_positive("port_bw_Bps", p.port_bw);
  p.up_bw = t.get_positive("up_bw_Bps", p.up_bw);
  p.latency_sec = t.get_nonneg("latency_seconds", p.latency_sec);
  p.spine_latency = t.get_nonneg("spine_latency_seconds", p.spine_latency);
  LoweredTopology out;
  out.canonical = "fat_tree leaves=" + std::to_string(p.leaves) +
                  " leaf_radix=" + std::to_string(p.leaf_radix) +
                  " spines=" + std::to_string(p.spines) +
                  " port_bw=" + num(p.port_bw) + " up_bw=" + num(p.up_bw) +
                  " latency=" + num(p.latency_sec) +
                  " spine_latency=" + num(p.spine_latency);
  out.capacity = p.leaves * p.leaf_radix;
  out.factory = [p](int) { return net::make_fat_tree(p); };
  return out;
}

LoweredTopology lower_dragonfly(const Obj& t) {
  t.check_keys({"kind", "groups", "group_size", "port_bw_Bps",
                "local_bw_Bps", "global_bw_Bps", "base_latency_seconds",
                "global_latency_seconds"});
  net::DragonflyParams p;
  p.groups = static_cast<int>(t.get_int_min("groups", 1, p.groups));
  p.group_size = static_cast<int>(t.get_int_min("group_size", 1,
                                                p.group_size));
  p.port_bw = t.get_positive("port_bw_Bps", p.port_bw);
  p.local_bw = t.get_positive("local_bw_Bps", p.local_bw);
  p.global_bw = t.get_positive("global_bw_Bps", p.global_bw);
  p.base_latency = t.get_nonneg("base_latency_seconds", p.base_latency);
  p.global_latency = t.get_nonneg("global_latency_seconds", p.global_latency);
  LoweredTopology out;
  out.canonical = "dragonfly groups=" + std::to_string(p.groups) +
                  " group_size=" + std::to_string(p.group_size) +
                  " port_bw=" + num(p.port_bw) +
                  " local_bw=" + num(p.local_bw) +
                  " global_bw=" + num(p.global_bw) +
                  " base_latency=" + num(p.base_latency) +
                  " global_latency=" + num(p.global_latency);
  out.capacity = p.groups * p.group_size;
  out.factory = [p](int) { return net::make_dragonfly(p); };
  return out;
}

LoweredTopology lower_multi_rail(const Obj& t) {
  t.check_keys({"kind", "rails", "rail_bw_Bps", "latency_seconds"});
  net::MultiRailParams p;
  p.rails = static_cast<int>(t.get_int_min("rails", 1, p.rails));
  p.rail_bw = t.get_positive("rail_bw_Bps", p.rail_bw);
  p.latency_sec = t.get_nonneg("latency_seconds", p.latency_sec);
  LoweredTopology out;
  out.canonical = "multi_rail rails=" + std::to_string(p.rails) +
                  " rail_bw=" + num(p.rail_bw) +
                  " latency=" + num(p.latency_sec);
  out.factory = [p](int nprocs) {
    net::MultiRailParams q = p;
    q.processes = nprocs;
    return net::make_multi_rail(q);
  };
  return out;
}

LoweredTopology lower_adjacency(const Obj& t) {
  t.check_keys({"kind", "nodes", "attach", "edges", "port_bw_Bps",
                "latency_seconds", "per_hop_latency_seconds"});
  net::AdjacencyParams p;
  p.nodes = static_cast<int>(t.get_int_min("nodes", 1, 1, true));
  p.attach = t.get_ints_min("attach", 0, true);
  p.port_bw = t.get_positive("port_bw_Bps", p.port_bw);
  p.latency_sec = t.get_nonneg("latency_seconds", p.latency_sec);
  p.per_hop_latency =
      t.get_nonneg("per_hop_latency_seconds", p.per_hop_latency);
  std::string edges_canon;
  for (const Obj& e : t.children("edges", true)) {
    e.check_keys({"a", "b", "bandwidth_Bps"});
    net::AdjacencyParams::Edge edge;
    edge.a = static_cast<int>(e.get_int_min("a", 0, 0, true));
    edge.b = static_cast<int>(e.get_int_min("b", 0, 0, true));
    edge.bandwidth = e.get_positive("bandwidth_Bps", edge.bandwidth);
    if (edge.a == edge.b) e.error("edge endpoints must differ");
    if (edge.a >= p.nodes || edge.b >= p.nodes) {
      e.error("edge endpoint out of range (nodes=" +
              std::to_string(p.nodes) + ")");
    }
    p.edges.push_back(edge);
    if (!edges_canon.empty()) edges_canon += ";";
    edges_canon += std::to_string(edge.a) + "-" + std::to_string(edge.b) +
                   "@" + num(edge.bandwidth);
  }
  std::string attach_canon;
  for (std::size_t i = 0; i < p.attach.size(); ++i) {
    if (p.attach[i] >= p.nodes) {
      t.error_at("attach", "entry " + std::to_string(i) +
                               " out of range (nodes=" +
                               std::to_string(p.nodes) + ")");
    }
    if (!attach_canon.empty()) attach_canon += ",";
    attach_canon += std::to_string(p.attach[i]);
  }
  if (p.attach.empty()) t.error_at("attach", "must list at least one endpoint");
  if (p.edges.empty()) t.error_at("edges", "must list at least one edge");
  LoweredTopology out;
  out.canonical = "adjacency nodes=" + std::to_string(p.nodes) +
                  " attach=" + attach_canon + " edges=" + edges_canon +
                  " port_bw=" + num(p.port_bw) +
                  " latency=" + num(p.latency_sec) +
                  " hop_latency=" + num(p.per_hop_latency);
  out.capacity = static_cast<int>(p.attach.size());
  out.factory = [p](int) { return net::make_adjacency(p); };
  return out;
}

LoweredTopology lower_topology(const Obj& t) {
  const std::string kind = t.get_string("kind", "", true);
  if (kind == "crossbar") return lower_crossbar(t);
  if (kind == "shared_memory") return lower_shared_memory(t);
  if (kind == "torus3d") return lower_torus3d(t);
  if (kind == "smp_cluster") return lower_smp_cluster(t);
  if (kind == "fat_tree") return lower_fat_tree(t);
  if (kind == "dragonfly") return lower_dragonfly(t);
  if (kind == "multi_rail") return lower_multi_rail(t);
  if (kind == "adjacency") return lower_adjacency(t);
  if (!kind.empty()) {
    t.error_at("kind",
               "unknown topology kind \"" + kind +
                   "\" (expected crossbar, shared_memory, torus3d, "
                   "smp_cluster, fat_tree, dragonfly, multi_rail or "
                   "adjacency)");
  }
  return {};
}

// -------------------------------------------------------------------------
// Machine lowering.
// -------------------------------------------------------------------------

parmsg::CommCosts parse_costs(const Obj& c, std::string* canonical) {
  c.check_keys({"send_overhead_seconds", "recv_overhead_seconds",
                "alltoallv_base_seconds", "alltoallv_per_rank_seconds",
                "barrier_hop_seconds", "bcast_hop_seconds",
                "reduce_hop_seconds"});
  parmsg::CommCosts costs;
  costs.send_overhead = c.get_nonneg("send_overhead_seconds",
                                     costs.send_overhead);
  costs.recv_overhead = c.get_nonneg("recv_overhead_seconds",
                                     costs.recv_overhead);
  costs.alltoallv_base = c.get_nonneg("alltoallv_base_seconds",
                                      costs.alltoallv_base);
  costs.alltoallv_per_rank = c.get_nonneg("alltoallv_per_rank_seconds",
                                          costs.alltoallv_per_rank);
  costs.barrier_hop = c.get_nonneg("barrier_hop_seconds", costs.barrier_hop);
  costs.bcast_hop = c.get_nonneg("bcast_hop_seconds", costs.bcast_hop);
  costs.reduce_hop = c.get_nonneg("reduce_hop_seconds", costs.reduce_hop);
  *canonical = "send=" + num(costs.send_overhead) +
               " recv=" + num(costs.recv_overhead) +
               " a2a_base=" + num(costs.alltoallv_base) +
               " a2a_rank=" + num(costs.alltoallv_per_rank) +
               " barrier=" + num(costs.barrier_hop) +
               " bcast=" + num(costs.bcast_hop) +
               " reduce=" + num(costs.reduce_hop);
  return costs;
}

machines::Roofline parse_roofline(const Obj& r, std::string* canonical) {
  r.check_keys({"peak_flops", "mem_bw_Bps", "cache_bytes",
                "mem_latency_seconds", "net_bw_Bps"});
  machines::Roofline roof;
  roof.peak_flops = r.get_positive("peak_flops", 1.0, true);
  roof.mem_bw = r.get_positive("mem_bw_Bps", 1.0, true);
  roof.cache_bytes = r.get_int_min("cache_bytes", 0, roof.cache_bytes);
  roof.mem_latency = r.get_nonneg("mem_latency_seconds", roof.mem_latency);
  roof.net_bw = r.get_positive("net_bw_Bps", 1.0, true);
  *canonical = "peak=" + num(roof.peak_flops) + " mem_bw=" + num(roof.mem_bw) +
               " cache=" + std::to_string(roof.cache_bytes) +
               " mem_latency=" + num(roof.mem_latency) +
               " net_bw=" + num(roof.net_bw);
  return roof;
}

pfsim::IoSystemConfig parse_io(const Obj& io, const std::string& machine,
                               std::string* canonical) {
  io.check_keys({"num_servers", "disks_per_server", "disk_bw_Bps",
                 "disk_seek_seconds", "disk_sequential_threshold_bytes",
                 "server_bw_Bps", "client_link_bw_Bps", "fabric_bw_Bps",
                 "fabric_latency_seconds", "write_penalty",
                 "stripe_unit_bytes", "block_size_bytes", "cache_bytes",
                 "cache_bypass_threshold_bytes", "open_close_seconds",
                 "request_overhead_seconds",
                 "server_request_overhead_seconds", "collective_two_phase",
                 "optimized_segmented_collective",
                 "shared_pointer_overhead_seconds",
                 "unaligned_overhead_seconds"});
  pfsim::IoSystemConfig c;
  c.name = machine + " (scenario)";
  c.num_servers =
      static_cast<int>(io.get_int_min("num_servers", 1, c.num_servers));
  c.disks_per_server = static_cast<int>(
      io.get_int_min("disks_per_server", 1, c.disks_per_server));
  c.disk.bandwidth = io.get_positive("disk_bw_Bps", c.disk.bandwidth);
  c.disk.seek_time = io.get_nonneg("disk_seek_seconds", c.disk.seek_time);
  c.disk.sequential_threshold = io.get_int_min(
      "disk_sequential_threshold_bytes", 0, c.disk.sequential_threshold);
  c.server_bandwidth = io.get_positive("server_bw_Bps", c.server_bandwidth);
  c.client_link_bw = io.get_positive("client_link_bw_Bps", c.client_link_bw);
  c.fabric_bandwidth = io.get_positive("fabric_bw_Bps", c.fabric_bandwidth);
  c.fabric_latency = io.get_nonneg("fabric_latency_seconds",
                                   c.fabric_latency);
  c.write_penalty = io.get_positive("write_penalty", c.write_penalty);
  c.stripe_unit = io.get_int_min("stripe_unit_bytes", 1, c.stripe_unit);
  c.block_size = io.get_int_min("block_size_bytes", 1, c.block_size);
  c.cache_bytes = io.get_int_min("cache_bytes", 0, c.cache_bytes);
  c.cache_bypass_threshold = io.get_int_min("cache_bypass_threshold_bytes", 0,
                                            c.cache_bypass_threshold);
  c.open_close_overhead = io.get_nonneg("open_close_seconds",
                                        c.open_close_overhead);
  c.request_overhead = io.get_nonneg("request_overhead_seconds",
                                     c.request_overhead);
  c.server_request_overhead = io.get_nonneg(
      "server_request_overhead_seconds", c.server_request_overhead);
  c.collective_two_phase =
      io.get_bool("collective_two_phase", c.collective_two_phase);
  c.optimized_segmented_collective = io.get_bool(
      "optimized_segmented_collective", c.optimized_segmented_collective);
  c.shared_pointer_overhead = io.get_nonneg(
      "shared_pointer_overhead_seconds", c.shared_pointer_overhead);
  c.unaligned_overhead = io.get_nonneg("unaligned_overhead_seconds",
                                       c.unaligned_overhead);
  *canonical =
      "servers=" + std::to_string(c.num_servers) +
      " disks=" + std::to_string(c.disks_per_server) +
      " disk_bw=" + num(c.disk.bandwidth) +
      " seek=" + num(c.disk.seek_time) +
      " seq_threshold=" + std::to_string(c.disk.sequential_threshold) +
      " server_bw=" + num(c.server_bandwidth) +
      " client_bw=" + num(c.client_link_bw) +
      " fabric_bw=" + num(c.fabric_bandwidth) +
      " fabric_latency=" + num(c.fabric_latency) +
      " write_penalty=" + num(c.write_penalty) +
      " stripe=" + std::to_string(c.stripe_unit) +
      " block=" + std::to_string(c.block_size) +
      " cache=" + std::to_string(c.cache_bytes) +
      " bypass=" + std::to_string(c.cache_bypass_threshold) +
      " open_close=" + num(c.open_close_overhead) +
      " request=" + num(c.request_overhead) +
      " server_request=" + num(c.server_request_overhead) +
      " two_phase=" + (c.collective_two_phase ? "1" : "0") +
      " opt_segmented=" + (c.optimized_segmented_collective ? "1" : "0") +
      " shared_ptr=" + num(c.shared_pointer_overhead) +
      " unaligned=" + num(c.unaligned_overhead);
  return c;
}

MachineEntry parse_machine(const Obj& m) {
  m.check_keys({"name", "display", "max_procs", "memory_per_proc_bytes",
                "shared_memory", "rmax_gflops_per_proc", "pingpong_Bps",
                "roofline", "costs", "topology", "io"});
  MachineEntry entry;
  machines::MachineSpec& spec = entry.spec;
  spec.short_name = m.get_string("name", "", true);
  if (!spec.short_name.empty()) {
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
  }
  spec.name = m.get_string("display", spec.short_name);
  spec.max_procs = static_cast<int>(m.get_int_min("max_procs", 1, 1, true));
  spec.memory_per_proc =
      m.get_int_min("memory_per_proc_bytes", 1, 1 << 20, true);
  spec.shared_memory = m.get_bool("shared_memory", false);
  spec.rmax_gflops_per_proc =
      m.get_positive("rmax_gflops_per_proc", 0.1, true);
  // Validated, and part of the config hash, but read by no output.
  const double pingpong = m.get_nonneg("pingpong_Bps", 0.0);

  std::string roof_canon;
  spec.roofline = parse_roofline(m.child("roofline", true), &roof_canon);

  std::string costs_canon;
  spec.costs = parse_costs(m.child("costs"), &costs_canon);

  LoweredTopology topo = lower_topology(m.child("topology", true));
  if (topo.factory) {
    if (topo.capacity > 0 && spec.max_procs > topo.capacity) {
      m.error_at("max_procs",
                 "exceeds the topology's " + std::to_string(topo.capacity) +
                     " endpoints");
    }
    spec.make_topology = std::move(topo.factory);
  }

  std::string io_canon;
  const Obj io = m.child("io");
  if (io.present()) {
    spec.io = parse_io(io, spec.short_name, &io_canon);
  }

  entry.canonical =
      "machine " + spec.short_name + " display=\"" + spec.name + "\"" +
      " max_procs=" + std::to_string(spec.max_procs) +
      " mem=" + std::to_string(spec.memory_per_proc) +
      " shared=" + (spec.shared_memory ? "1" : "0") +
      " rmax=" + num(spec.rmax_gflops_per_proc) +
      " pingpong=" + num(pingpong) + " roofline{" + roof_canon +
      "} costs{" + costs_canon + "} topology{" + topo.canonical + "}" +
      (io.present() ? " io{" + io_canon + "}" : "");
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
    s->faults.drop_rank =
        static_cast<int>(drop.get_int_min("rank", 0, 0, true));
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
  sweep.nprocs = static_cast<int>(fs.get_int_min("procs", 2, 2, true));
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
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioError("cannot read scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_text(buf.str());
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
