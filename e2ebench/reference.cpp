#include "reference.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/hash.hpp"

namespace balbench::e2e {

namespace {

void append_bits(std::string& buf, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::string digest(const Values& values) {
  std::string buf;
  for (const auto& [name, v] : values) {
    buf += name;
    buf.push_back('\0');
    append_bits(buf, v);
  }
  return util::fnv1a_hex(buf);
}

std::string digest(const obs::MetricsSnapshot& s) {
  std::string buf;
  for (const auto& [name, v] : s.counters) buf += name + '=' + std::to_string(v) + ';';
  for (const auto& [name, v] : s.sums) {
    buf += name + '=';
    append_bits(buf, v);
  }
  for (const auto& [name, v] : s.gauges) {
    buf += name + '=';
    append_bits(buf, v);
  }
  for (const auto& [name, h] : s.histograms) {
    buf += name + '=' + std::to_string(h.count) + ';';
    append_bits(buf, h.sum);
    append_bits(buf, h.max);
    for (const auto& [i, n] : h.buckets) {
      buf += std::to_string(i) + ':' + std::to_string(n) + ';';
    }
  }
  return util::fnv1a_hex(buf);
}

Reference reference_of(const Outcome& outcome) {
  Reference ref;
  for (const Op& op : outcome.ops) {
    ref.ops[op.label] = OpReference{op.values.size(), digest(op.values)};
  }
  for (const auto& [name, v] : outcome.summary) ref.summary[name] = v;
  return ref;
}

ReferenceSet load_references(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read references file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const obs::JsonValue doc = obs::parse_json(text.str());
  if (doc.at("schema").as_string() != "balbench-e2ebench-references/1") {
    throw std::runtime_error(path + ": unexpected schema");
  }
  ReferenceSet refs;
  for (const auto& [key, entry] : doc.at("entries").as_object()) {
    Reference& ref = refs[key];
    for (const auto& [label, op] : entry.at("ops").as_object()) {
      ref.ops[label] = OpReference{
          static_cast<std::size_t>(op.at("values").as_number()),
          op.at("fnv1a").as_string()};
    }
    for (const auto& [name, v] : entry.at("summary").as_object()) {
      // Stored as "%.17g" strings: strtod round-trips them exactly.
      ref.summary[name] = std::strtod(v.as_string().c_str(), nullptr);
    }
  }
  return refs;
}

void write_references(const std::string& path, const ReferenceSet& refs) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write references file " + path);
  {
    obs::JsonWriter w(out, 1);
    w.begin_object();
    w.field("schema", "balbench-e2ebench-references/1");
    w.key("entries").begin_object();
    for (const auto& [key, ref] : refs) {
      w.key(key).begin_object();
      w.key("summary").begin_object();
      for (const auto& [name, v] : ref.summary) w.field(name, exact(v));
      w.end_object();
      w.key("ops").begin_object();
      for (const auto& [label, op] : ref.ops) {
        w.key(label).begin_object();
        w.field("values", static_cast<std::uint64_t>(op.values));
        w.field("fnv1a", op.fnv1a);
        w.end_object();
      }
      w.end_object();
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  out << '\n';
  if (!out) throw std::runtime_error("failed writing references file " + path);
}

std::size_t check_outcome(Outcome& outcome, const Reference* ref,
                          std::vector<std::string>& notes) {
  bool summary_ok = ref != nullptr;
  if (ref == nullptr) {
    notes.push_back("no reference for this input");
  } else {
    if (ref->summary.size() != outcome.summary.size()) summary_ok = false;
    for (const auto& [name, v] : outcome.summary) {
      const auto it = ref->summary.find(name);
      if (it == ref->summary.end() || !same_bits(it->second, v)) {
        summary_ok = false;
        notes.push_back("summary " + name + " = " + exact(v) + ", reference " +
                        (it == ref->summary.end() ? "missing" : exact(it->second)));
      }
    }
  }
  if (ref != nullptr) {
    // An operation the reference expects but the body never produced
    // counts as attempted and failed.
    for (const auto& [label, op_ref] : ref->ops) {
      bool present = false;
      for (const Op& op : outcome.ops) present = present || op.label == label;
      if (!present) {
        outcome.ops.push_back(Op{label, {}, true});
        notes.push_back(label + ": missing from the run");
      }
    }
  }
  std::size_t failed = 0;
  for (Op& op : outcome.ops) {
    if (!op.failed && ref != nullptr) {
      const auto it = ref->ops.find(op.label);
      if (it == ref->ops.end()) {
        op.failed = true;
        notes.push_back(op.label + ": no reference");
      } else if (it->second.values != op.values.size() ||
                 it->second.fnv1a != digest(op.values)) {
        op.failed = true;
        notes.push_back(op.label + ": simulated values differ from the reference");
      }
    }
    if (!summary_ok) op.failed = true;
    if (op.failed) ++failed;
  }
  return failed;
}

}  // namespace balbench::e2e
