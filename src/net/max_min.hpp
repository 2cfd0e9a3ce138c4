// Max-min fairness certificate.
//
// An allocation of rates to flows over capacitated links is max-min
// fair iff it is feasible and every flow has a bottleneck: a saturated
// link on its path on which no flow has a higher rate -- the textbook
// characterisation the flow-level models in flow.hpp are built on.
// check_max_min verifies both directly in O(links + sum of path
// lengths), independent of how the allocation was computed.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "net/topology.hpp"

namespace balbench::net {

/// One flow of an allocation: the links it crosses and its rate.
struct FlowRate {
  std::span<const LinkId> path;
  double rate = 0.0;
};

/// Checks, with relative tolerance `eps`:
///  * every rate is positive and finite;
///  * feasibility: on every link, the sum of its flows' rates is at
///    most capacity * (1 + eps);
///  * the bottleneck property: every flow crosses a saturated link
///    (sum >= capacity * (1 - eps)) on which no flow's rate exceeds
///    its own by more than a factor (1 + eps).
/// Returns an empty string if the certificate holds, otherwise a
/// description of the first violation found.
[[nodiscard]] std::string check_max_min(const std::vector<Link>& links,
                                        std::span<const FlowRate> flows,
                                        double eps = 1e-9);

}  // namespace balbench::net
