// Committed correctness references (references.json here).
//
// Per workload input, the file holds every operation's value count and
// an FNV-1a digest over its (name, IEEE-754 bits) pairs, plus the
// run-level summary values written out in full.  Simulated results
// are deterministic, so any speed-only change must reproduce them bit
// for bit; work counters are deliberately not part of a reference.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "e2e.hpp"

namespace balbench::e2e {

struct OpReference {
  std::size_t values = 0;
  std::string fnv1a;
};

struct Reference {
  std::map<std::string, OpReference> ops;
  std::map<std::string, double> summary;
};

using ReferenceSet = std::map<std::string, Reference>;

/// FNV-1a over "name\0" + the 8 bytes of each value, in order.
std::string digest(const Values& values);
/// Digest of a metric snapshot (every counter, sum, gauge, histogram).
std::string digest(const obs::MetricsSnapshot& snapshot);

Reference reference_of(const Outcome& outcome);

/// Throws std::runtime_error if the file is missing or malformed.
ReferenceSet load_references(const std::string& path);
void write_references(const std::string& path, const ReferenceSet& refs);

/// Marks every operation of `outcome` whose values differ from `ref`
/// (or that has no reference) as failed; a summary mismatch fails
/// them all.  Returns the number of failed operations and appends one
/// line per finding to `notes`.
std::size_t check_outcome(Outcome& outcome, const Reference* ref,
                          std::vector<std::string>& notes);

}  // namespace balbench::e2e
