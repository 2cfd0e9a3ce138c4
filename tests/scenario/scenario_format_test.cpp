// The canonical machine lines are a format: report::config_hash, the
// checkpoint journal key and the serve cache key all hash
// Scenario::describe().  One document sets every key of every machine
// section (all eight topology kinds, costs, roofline, io and the
// machine's own scalars) to a non-default value; its describe() text
// and the config hash of every shipped example are pinned byte for
// byte, and changing any single scalar key of it must change both the
// text and the hash -- a key the parser reads but does not hash would
// let a journal or cache entry of another machine replay as this one.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/report/experiments.hpp"
#include "core/scenario/scenario.hpp"
#include "obs/json.hpp"
#include "util/atomic_write.hpp"

namespace balbench::scenario {
namespace {

using obs::JsonValue;

/// Every machine-section key, each set away from its default.
const char* kEveryKey = R"({
  "schema": "balbench-scenario/1",
  "name": "every-key",
  "machines": [
    { "name": "m-xbar", "display": "Crossbar box", "max_procs": 64,
      "memory_per_proc_bytes": 33554432, "shared_memory": true,
      "rmax_gflops_per_proc": 0.75, "pingpong_Bps": 2.5e8,
      "roofline": { "peak_flops": 1.5e9, "mem_bw_Bps": 3e9,
                    "cache_bytes": 4194304, "mem_latency_seconds": 9e-8,
                    "net_bw_Bps": 4e8 },
      "costs": { "send_overhead_seconds": 2e-6,
                 "recv_overhead_seconds": 2.5e-6,
                 "alltoallv_base_seconds": 6e-6,
                 "alltoallv_per_rank_seconds": 8e-8,
                 "barrier_hop_seconds": 3.5e-6, "bcast_hop_seconds": 4e-6,
                 "reduce_hop_seconds": 4.5e-6 },
      "topology": { "kind": "crossbar", "port_bw_Bps": 2e9,
                    "latency_seconds": 7e-6 },
      "io": { "num_servers": 3, "disks_per_server": 2,
              "disk_bw_Bps": 6e7, "disk_seek_seconds": 4e-3,
              "disk_sequential_threshold_bytes": 131072,
              "server_bw_Bps": 1.5e8, "client_link_bw_Bps": 1.2e8,
              "fabric_bw_Bps": 2e9, "fabric_latency_seconds": 2e-5,
              "write_penalty": 1.5, "stripe_unit_bytes": 32768,
              "block_size_bytes": 8192, "cache_bytes": 536870912,
              "cache_bypass_threshold_bytes": 1048576,
              "open_close_seconds": 3e-3, "request_overhead_seconds": 1e-4,
              "server_request_overhead_seconds": 2e-5,
              "collective_two_phase": false,
              "optimized_segmented_collective": false,
              "shared_pointer_overhead_seconds": 1e-4,
              "unaligned_overhead_seconds": 4e-4 } },
    { "name": "m-shm", "max_procs": 8, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 2e9, "net_bw_Bps": 1e9 },
      "topology": { "kind": "shared_memory", "copy_bw_Bps": 3e9,
                    "aggregate_bw_Bps": 4.8e10, "latency_seconds": 4e-6 } },
    { "name": "m-torus", "max_procs": 4, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 2e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "torus3d", "dims": [2, 2, 3],
                    "nic_bw_Bps": 3e8, "duplex_factor": 1.5,
                    "link_bw_Bps": 5e8, "base_latency_seconds": 9e-6,
                    "per_hop_latency_seconds": 2e-7, "self_bw_Bps": 7e8 } },
    { "name": "m-smp", "max_procs": 4, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 2e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "smp_cluster", "nodes": 3, "procs_per_node": 2,
                    "placement": "round_robin", "copy_bw_Bps": 1.2e9,
                    "node_memory_bw_Bps": 6e9, "nic_bw_Bps": 8e8,
                    "switch_bw_Bps": 3.2e10, "intra_latency_seconds": 3e-6,
                    "inter_latency_seconds": 1.2e-5 } },
    { "name": "m-fat", "max_procs": 4, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 2e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "fat_tree", "leaves": 2, "leaf_radix": 3,
                    "spines": 3, "port_bw_Bps": 1.5e9, "up_bw_Bps": 3e9,
                    "latency_seconds": 9e-6,
                    "spine_latency_seconds": 4e-6 } },
    { "name": "m-fly", "max_procs": 4, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 2e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "dragonfly", "groups": 3, "group_size": 2,
                    "port_bw_Bps": 1.1e9, "local_bw_Bps": 7e9,
                    "global_bw_Bps": 1.5e9, "base_latency_seconds": 1.1e-5,
                    "global_latency_seconds": 2e-5 } },
    { "name": "m-rail", "max_procs": 8, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 2e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "multi_rail", "rails": 3, "rail_bw_Bps": 1.2e9,
                    "latency_seconds": 8e-6 } },
    { "name": "m-adj", "max_procs": 2, "memory_per_proc_bytes": 16777216,
      "rmax_gflops_per_proc": 0.5,
      "roofline": { "peak_flops": 1e9, "mem_bw_Bps": 2e9, "net_bw_Bps": 1e8 },
      "topology": { "kind": "adjacency", "nodes": 5, "attach": [0, 1, 4],
                    "edges": [ { "a": 0, "b": 2, "bandwidth_Bps": 2e9 },
                               { "a": 1, "b": 3, "bandwidth_Bps": 3e9 } ],
                    "port_bw_Bps": 2e9, "latency_seconds": 9e-6,
                    "per_hop_latency_seconds": 2e-6 } }
  ],
  "sweep": { "beff": [ { "machine": "m-xbar", "procs": [2] } ] }
})";

TEST(ScenarioFormat, MachineCanonicalLinesArePinned) {
  const Scenario s = parse_scenario_text(kEveryKey);
  EXPECT_EQ(
      s.describe(),
      "balbench-scenario/1 name=every-key\n"
      "machine m-xbar display=\"Crossbar box\" max_procs=64 mem=33554432 "
      "shared=1 rmax=0.75 pingpong=2.5e+08 roofline{peak=1.5e+09 "
      "mem_bw=3e+09 cache=4194304 mem_latency=9e-08 net_bw=4e+08} "
      "costs{send=2e-06 recv=2.5e-06 a2a_base=6e-06 a2a_rank=8e-08 "
      "barrier=3.5e-06 bcast=4e-06 reduce=4.5e-06} topology{crossbar "
      "port_bw=2e+09 latency=7e-06} io{servers=3 disks=2 disk_bw=6e+07 "
      "seek=0.004 seq_threshold=131072 server_bw=1.5e+08 "
      "client_bw=1.2e+08 fabric_bw=2e+09 fabric_latency=2e-05 "
      "write_penalty=1.5 stripe=32768 block=8192 cache=536870912 "
      "bypass=1048576 open_close=0.003 request=1e-04 "
      "server_request=2e-05 two_phase=0 opt_segmented=0 shared_ptr=1e-04 "
      "unaligned=4e-04}\n"
      "machine m-shm display=\"m-shm\" max_procs=8 mem=16777216 shared=0 "
      "rmax=0.5 pingpong=0 roofline{peak=1e+09 mem_bw=2e+09 cache=0 "
      "mem_latency=0 net_bw=1e+09} costs{send=1e-06 recv=1e-06 "
      "a2a_base=4e-06 a2a_rank=6e-08 barrier=3e-06 bcast=3e-06 "
      "reduce=3e-06} topology{shared_memory copy_bw=3e+09 "
      "aggregate_bw=4.8e+10 latency=4e-06}\n"
      "machine m-torus display=\"m-torus\" max_procs=4 mem=16777216 "
      "shared=0 rmax=0.5 pingpong=0 roofline{peak=1e+09 mem_bw=2e+09 "
      "cache=0 mem_latency=0 net_bw=1e+08} costs{send=1e-06 recv=1e-06 "
      "a2a_base=4e-06 a2a_rank=6e-08 barrier=3e-06 bcast=3e-06 "
      "reduce=3e-06} topology{torus3d dims=2x2x3 nic_bw=3e+08 duplex=1.5 "
      "link_bw=5e+08 base_latency=9e-06 hop_latency=2e-07 "
      "self_bw=7e+08}\n"
      "machine m-smp display=\"m-smp\" max_procs=4 mem=16777216 shared=0 "
      "rmax=0.5 pingpong=0 roofline{peak=1e+09 mem_bw=2e+09 cache=0 "
      "mem_latency=0 net_bw=1e+08} costs{send=1e-06 recv=1e-06 "
      "a2a_base=4e-06 a2a_rank=6e-08 barrier=3e-06 bcast=3e-06 "
      "reduce=3e-06} topology{smp_cluster nodes=3 procs_per_node=2 "
      "placement=round_robin copy_bw=1.2e+09 node_bw=6e+09 nic_bw=8e+08 "
      "switch_bw=3.2e+10 intra_latency=3e-06 inter_latency=1.2e-05}\n"
      "machine m-fat display=\"m-fat\" max_procs=4 mem=16777216 shared=0 "
      "rmax=0.5 pingpong=0 roofline{peak=1e+09 mem_bw=2e+09 cache=0 "
      "mem_latency=0 net_bw=1e+08} costs{send=1e-06 recv=1e-06 "
      "a2a_base=4e-06 a2a_rank=6e-08 barrier=3e-06 bcast=3e-06 "
      "reduce=3e-06} topology{fat_tree leaves=2 leaf_radix=3 spines=3 "
      "port_bw=1.5e+09 up_bw=3e+09 latency=9e-06 spine_latency=4e-06}\n"
      "machine m-fly display=\"m-fly\" max_procs=4 mem=16777216 shared=0 "
      "rmax=0.5 pingpong=0 roofline{peak=1e+09 mem_bw=2e+09 cache=0 "
      "mem_latency=0 net_bw=1e+08} costs{send=1e-06 recv=1e-06 "
      "a2a_base=4e-06 a2a_rank=6e-08 barrier=3e-06 bcast=3e-06 "
      "reduce=3e-06} topology{dragonfly groups=3 group_size=2 "
      "port_bw=1.1e+09 local_bw=7e+09 global_bw=1.5e+09 "
      "base_latency=1.1e-05 global_latency=2e-05}\n"
      "machine m-rail display=\"m-rail\" max_procs=8 mem=16777216 "
      "shared=0 rmax=0.5 pingpong=0 roofline{peak=1e+09 mem_bw=2e+09 "
      "cache=0 mem_latency=0 net_bw=1e+08} costs{send=1e-06 recv=1e-06 "
      "a2a_base=4e-06 a2a_rank=6e-08 barrier=3e-06 bcast=3e-06 "
      "reduce=3e-06} topology{multi_rail rails=3 rail_bw=1.2e+09 "
      "latency=8e-06}\n"
      "machine m-adj display=\"m-adj\" max_procs=2 mem=16777216 shared=0 "
      "rmax=0.5 pingpong=0 roofline{peak=1e+09 mem_bw=2e+09 cache=0 "
      "mem_latency=0 net_bw=1e+08} costs{send=1e-06 recv=1e-06 "
      "a2a_base=4e-06 a2a_rank=6e-08 barrier=3e-06 bcast=3e-06 "
      "reduce=3e-06} topology{adjacency nodes=5 attach=0,1,4 "
      "edges=0-2@2e+09;1-3@3e+09 port_bw=2e+09 latency=9e-06 "
      "hop_latency=2e-06}\n"
      "beff m-xbar np=2 analysis=0\n");

  const std::map<std::string, std::string> pinned = {
      {"dragonfly-study", "a8dd8a92f4e61d40"},
      {"io-tuning", "316ee16c9b0f9bd0"},
      {"node-drop", "1a8be6f9483b40f4"},
      {"pattern-mix", "9382e6ac1162b1e6"},
      {"procurement-whatif", "36bc1296779f551e"},
  };
  std::map<std::string, std::string> hashes;
  for (const auto& entry : std::filesystem::directory_iterator(
           BALBENCH_SCENARIO_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const Scenario example =
        parse_scenario_text(util::read_file(entry.path().string()));
    hashes[entry.path().stem().string()] =
        report::config_hash(report::Scope::Quick, &example);
  }
  EXPECT_EQ(hashes, pinned);
}

/// Calls `visit` once per scalar key under `v` with a copy of the whole
/// document in which only that key's value differs: a number gets +1
/// (every rule of every key still holds), a bool flips, a display
/// string grows and a placement swaps.  Machine names and topology
/// kinds are identities, not parameters, and arrays (dims, attach) are
/// not scalar keys.
void each_changed_key(
    const JsonValue& v, const std::string& path,
    const std::function<JsonValue(JsonValue)>& rebuild,
    const std::function<void(const std::string&, const JsonValue&)>& visit) {
  if (v.kind() == JsonValue::Kind::Array) {
    const auto& items = v.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      each_changed_key(items[i], path + "[" + std::to_string(i) + "]",
                       [&](JsonValue item) {
                         std::vector<JsonValue> copy = items;
                         copy[i] = std::move(item);
                         return rebuild(JsonValue::make_array(copy));
                       },
                       visit);
    }
    return;
  }
  if (v.kind() != JsonValue::Kind::Object) return;
  for (const auto& [key, child] : v.as_object()) {
    const auto replaced = [&](JsonValue value) {
      std::map<std::string, JsonValue> copy = v.as_object();
      copy[key] = std::move(value);
      return rebuild(JsonValue::make_object(copy));
    };
    const std::string at = path + "." + key;
    switch (child.kind()) {
      case JsonValue::Kind::Number:
        visit(at, replaced(JsonValue::make_number(child.as_number() + 1)));
        break;
      case JsonValue::Kind::Bool:
        visit(at, replaced(JsonValue::make_bool(!child.as_bool())));
        break;
      case JsonValue::Kind::String:
        if (key == "display") {
          visit(at, replaced(JsonValue::make_string(child.as_string() + "*")));
        } else if (key == "placement") {
          visit(at, replaced(JsonValue::make_string("sequential")));
        }
        break;
      default:
        each_changed_key(child, at, replaced, visit);
    }
  }
}

TEST(ScenarioFormat, ChangingAnyMachineKeyChangesTheHash) {
  const JsonValue doc = obs::parse_json(kEveryKey);
  const Scenario base = parse_scenario(doc);
  const std::string base_text = base.describe();
  const std::string base_hash =
      report::config_hash(report::Scope::Quick, &base);
  int keys = 0;
  each_changed_key(
      doc.at("machines"), "$.machines",
      [&](JsonValue machines) {
        std::map<std::string, JsonValue> copy = doc.as_object();
        copy["machines"] = std::move(machines);
        return JsonValue::make_object(copy);
      },
      [&](const std::string& path, const JsonValue& changed) {
        ++keys;
        const Scenario s = parse_scenario(changed);
        EXPECT_NE(s.describe(), base_text) << path;
        EXPECT_NE(report::config_hash(report::Scope::Quick, &s), base_hash)
            << path;
      });
  // Machine 1: 6 own scalars, roofline 5, costs 7, io 21, crossbar 2.
  // Machines 2-8: 3 own scalars and a roofline of 3 each (42), plus
  // their topologies' 3 + 6 + 9 + 7 + 7 + 3 + 4 keys and the two
  // edges' 3 each (45).
  EXPECT_EQ(keys, 128);
}

}  // namespace
}  // namespace balbench::scenario
