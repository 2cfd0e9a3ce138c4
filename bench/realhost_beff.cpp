// b_eff on THIS host: the same benchmark driver that reproduces the
// paper's tables also runs as a real shared-memory benchmark over the
// thread transport -- actual std::thread ranks, actual buffer copies,
// wall-clock timing.  Useful as a smoke test of the benchmark code
// path on real hardware and as a (noisy) characterization of the host.
//
// Defaults are deliberately tiny: the full schedule would take minutes
// of wall time.  The cells run one after another on one transport,
// because concurrent cells would overlap their wall-clock timings on
// shared cores and perturb the (already noisy) numbers.
#include <iostream>
#include <thread>

#include "core/beff/beff.hpp"
#include "parmsg/thread_transport.hpp"
#include "util/options.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace balbench;

  std::int64_t procs = 2;
  std::int64_t lmax = 64 * 1024;
  std::int64_t looplength = 4;
  util::Options options(
      "realhost_beff: Table 1's b_eff methodology on this host's real "
      "threads (no paper table; a live counterpart to paper_views --view table1)");
  options.add_int("procs", &procs, "thread ranks");
  options.add_int("lmax", &lmax, "maximum message size in bytes");
  options.add_int("looplength", &looplength, "starting looplength");
  try {
    if (!options.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "host: " << hw << " hardware thread(s); running " << procs
            << " ranks over the thread transport\n";

  beff::BeffOptions opt;
  opt.lmax_override = lmax;
  opt.memory_per_proc = lmax * 128;
  opt.fast_forward = false;          // real execution, real clock
  opt.dedupe_repetitions = true;     // keep the wall time small
  opt.start_looplength = static_cast<int>(looplength);
  opt.measure_analysis = false;
  parmsg::ThreadTransport transport(static_cast<int>(procs));
  const auto r = beff::run_beff(transport, static_cast<int>(procs), opt);

  std::cout << "b_eff(host) = " << util::format_mbps(r.b_eff, 1)
            << " MByte/s over " << procs << " ranks ("
            << util::format_mbps(r.per_proc(), 1) << " per rank), L_max "
            << util::format_bytes(r.lmax) << "\n";
  std::cout << "note: wall-clock measurement on a shared host is noisy; the\n"
            << "paper-reproduction numbers come from the simulation transport.\n";
  return 0;
}
