# Perf-gate smoke test, run by ctest as `perf_gate_smoke` (cmake -P).
#
# Six acts, each a hard requirement on balbench-perf:
#   1. record the micro+calib suites (3 samples per cell) -> smoke.json
#   2. --validate accepts the record it just wrote
#   3. an unmodified re-run gated against smoke.json passes
#   4. a re-run with calib.spin_5ms handicapped 3x FAILS the gate
#   5. a --handicap naming no selected cell is bad usage (exit 2),
#      not a silent no-op
#   6. --threshold nan is bad usage (exit 2), not a gate that is off
#
# The gating acts run at --threshold 0.5 (50 % slack, vs the 10 %
# default): the handicap is 3x, so the flag still fires with a wide
# margin, while transient machine load -- this test shares a ctest run
# with CPU-heavy suites -- cannot produce a false act-3 regression.
# The test is additionally RUN_SERIAL for the same reason.
if(NOT BALBENCH_PERF OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_PERF=<exe> -DWORK_DIR=<dir> -P perf_smoke.cmake")
endif()

set(baseline "${WORK_DIR}/perf_smoke_baseline.json")
set(rerun "${WORK_DIR}/perf_smoke_rerun.json")
set(slowed "${WORK_DIR}/perf_smoke_slowed.json")

# Act 1: record a baseline.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite micro,calib --repeat 3 --out ${baseline}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "baseline record failed (exit ${rc})")
endif()

# Act 2: the record must be schema-valid.
execute_process(
  COMMAND ${BALBENCH_PERF} --validate ${baseline}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--validate rejected the freshly written record (exit ${rc})")
endif()

# Act 3: an unmodified re-run must pass the gate.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite micro,calib --repeat 3 --out ${rerun}
          --baseline ${baseline} --threshold 0.5
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean re-run was flagged as a regression (exit ${rc})")
endif()

# Act 4: a 3x-handicapped calibration cell must FAIL the gate.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite micro,calib --repeat 3 --out ${slowed}
          --baseline ${baseline} --threshold 0.5 --handicap calib.spin_5ms=3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "gate missed a 3x handicap on calib.spin_5ms (exit ${rc}, want 3)")
endif()

# Act 5: a mistyped --handicap id must be rejected before anything runs.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite calib --repeat 1 --out ${slowed}
          --handicap calib.spin5ms=3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--handicap of an unknown cell id exited ${rc}, want 2")
endif()

# Act 6: a non-finite threshold must be rejected, not turn the gate off.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite calib --repeat 1 --out ${slowed}
          --baseline ${baseline} --threshold nan --handicap calib.spin_5ms=3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--threshold nan exited ${rc}, want 2")
endif()

message(STATUS "perf gate smoke: record/validate/pass/flag/reject all behaved")
