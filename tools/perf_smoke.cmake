# Perf-gate smoke test, run by ctest as `perf_gate_smoke` (cmake -P).
#
# `balbench-perf --baseline STORE` gates a fresh run against a
# balbench-perf-history/2 store.  Six acts, each a hard requirement:
#   1. record the calib suite (3 samples per cell) to learn its
#      config_hash from the run's one entry
#   2. a store whose calib samples are half the spins' nominal length
#      flags the fresh run (exit 3)
#   3. a store whose samples are twice the nominal length passes it
#      (exit 0)
#   4. under `--host other` the store has no earlier revision of the
#      group: a "no baseline" note and exit 0
#   5. --threshold nan is bad usage (exit 2), not a gate that is off
#   6. a malformed store is fatal (exit 1) with a message naming its
#      path
#
# The verdicts are decided by margin, not by luck.  A calib cell
# busy-spins until its nominal time has passed, so no sample is ever
# shorter than nominal.  Against the half-length store the limit is
# 0.5 x 1.1 = 0.55 x nominal, which every sample exceeds.  Against the
# double-length store the limit is 2 x 1.1 = 2.2 x nominal: a false
# flag needs the optimistic CI edge of three samples -- in practice
# two of them -- to run more than 2.2 x long.  The test is RUN_SERIAL
# besides, so no concurrently running test loads the machine.
if(NOT BALBENCH_PERF OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_PERF=<exe> -DWORK_DIR=<dir> -P perf_smoke.cmake")
endif()

set(record "${WORK_DIR}/perf_smoke_record.json")
set(candidate "${WORK_DIR}/perf_smoke_candidate.json")
set(malformed "${WORK_DIR}/perf_smoke_malformed.json")

# Act 1: record the calib suite.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite calib --repeat 3 --out ${record}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "calib record failed (exit ${rc}):\n${err}")
endif()
file(READ ${record} text)
string(JSON config GET "${text}" entries 0 config_hash)

# Writes a one-entry store of the calib group (host "smoke") to `path`
# whose samples are each spin's nominal length at `us_per_ms`
# microseconds per nominal millisecond.
function(write_store path us_per_ms)
  set(cells "")
  set(sep "")
  foreach(ms 1 5)
    math(EXPR us "${ms} * ${us_per_ms}")
    set(s "${us}e-6")
    string(APPEND cells "${sep}{\"id\": \"calib.spin_${ms}ms\", \"suite\": \"calib\", "
                        "\"samples_seconds\": [${s}, ${s}, ${s}]}")
    set(sep ", ")
  endforeach()
  file(WRITE ${path}
    "{\"schema\": \"balbench-perf-history/2\", \"entries\": [{"
    "\"git_rev\": \"synthetic\", \"config_hash\": \"${config}\", "
    "\"host\": \"smoke\", \"suite\": \"calib\", \"repeat\": 3, "
    "\"warmup\": 1, \"cells\": [${cells}]}]}\n")
endfunction()

# Gates a fresh calib run against STORE with the options in ARGN and
# checks the exit code against `want`; `err_var` receives stderr.
function(gate want err_var store)
  execute_process(
    COMMAND ${BALBENCH_PERF} --suite calib --repeat 3 --out ${candidate}
            --baseline ${store} ${ARGN}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "--baseline ${store} ${ARGN} exited ${rc}, want "
                        "${want}:\n${err}")
  endif()
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

# Act 2: a store twice as fast as the spins can run flags both cells.
write_store(${WORK_DIR}/perf_smoke_fast.json 500)
gate(3 err ${WORK_DIR}/perf_smoke_fast.json --host smoke)
if(NOT err MATCHES "2 regressions")
  message(FATAL_ERROR "want both calib cells flagged:\n${err}")
endif()

# Act 3: a store twice as slow passes.
write_store(${WORK_DIR}/perf_smoke_slow.json 2000)
gate(0 err ${WORK_DIR}/perf_smoke_slow.json --host smoke)
if(NOT err MATCHES "compared 2 cells")
  message(FATAL_ERROR "want both calib cells compared:\n${err}")
endif()

# Act 4: another host's group has no earlier revision in the store.
gate(0 err ${WORK_DIR}/perf_smoke_fast.json --host other)
if(NOT err MATCHES "no baseline for config ${config} on host other")
  message(FATAL_ERROR "want the no-baseline note:\n${err}")
endif()

# Act 5: a non-finite threshold must be rejected, not turn the gate off.
gate(2 err ${WORK_DIR}/perf_smoke_fast.json --host smoke --threshold nan)

# Act 6: a malformed store is fatal and named.
file(WRITE ${malformed} "{\"schema\": \"balbench-perf-history/2\", \"entries\": [")
gate(1 err ${malformed} --host smoke)
if(NOT err MATCHES "perf_smoke_malformed.json")
  message(FATAL_ERROR "the error does not name the store:\n${err}")
endif()

message(STATUS "perf gate smoke: flag/pass/no-baseline/reject all behaved")
