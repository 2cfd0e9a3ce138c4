#include "net/max_min.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace balbench::net {

std::string check_max_min(const std::vector<Link>& links,
                          std::span<const FlowRate> flows, double eps) {
  std::vector<double> load(links.size(), 0.0);
  std::vector<double> top(links.size(), 0.0);  // highest rate on the link
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowRate& f = flows[i];
    if (!(f.rate > 0.0) || !std::isfinite(f.rate)) {
      std::ostringstream os;
      os << "flow " << i << " has rate " << f.rate;
      return os.str();
    }
    for (LinkId l : f.path) {
      const auto li = static_cast<std::size_t>(l);
      load[li] += f.rate;
      top[li] = std::max(top[li], f.rate);
    }
  }
  for (std::size_t l = 0; l < links.size(); ++l) {
    if (load[l] > links[l].bandwidth * (1.0 + eps)) {
      std::ostringstream os;
      os.precision(17);
      os << "link " << l << " (" << links[l].name << ") carries " << load[l]
         << " over capacity " << links[l].bandwidth;
      return os.str();
    }
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowRate& f = flows[i];
    const bool bottlenecked = std::any_of(f.path.begin(), f.path.end(), [&](LinkId l) {
      const auto li = static_cast<std::size_t>(l);
      return load[li] >= links[li].bandwidth * (1.0 - eps) &&
             top[li] <= f.rate * (1.0 + eps);
    });
    if (!bottlenecked) {
      std::ostringstream os;
      os.precision(17);
      os << "flow " << i << " at rate " << f.rate
         << " has no bottleneck (every link on its path is unsaturated or "
            "carries a faster flow)";
      return os.str();
    }
  }
  return {};
}

}  // namespace balbench::net
