// Host wall-clock time base for the observability layer.
//
// Everything in this repo that *reports* numbers runs on virtual time
// (DESIGN.md Sec. 9/10); wall-clock exists only to observe the cost of
// the benchmark harness itself -- profiler spans, scheduler telemetry,
// balbench-perf samples.  One process-wide steady_clock epoch keeps
// every wall timestamp on a single axis, so spans recorded by
// different threads and subsystems line up in one timeline.
#pragma once

namespace balbench::util {

/// Monotonic host seconds since the process-wide epoch (the first call
/// in the process, std::chrono::steady_clock).  Never feeds a run
/// record or any byte-compared output -- wall-clock is observe-only
/// (DESIGN.md Sec. 10.2/11).
double wall_now();

/// Busy-spins until `seconds` of wall-clock time elapsed.  Used by the
/// balbench-perf calibration cells: a spin is far steadier than a
/// sleep under timer-tick granularity, and never ends early.
void wall_spin(double seconds);

}  // namespace balbench::util
