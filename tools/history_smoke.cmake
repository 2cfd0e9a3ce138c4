# History-pipeline smoke test, run by ctest as `history_smoke` (cmake -P).
#
# Synthesizes two one-entry balbench-perf-history/2 runs, as
# `balbench-perf --out` writes them -- the second with one cell slowed
# 2x -- and drives the whole perf-history pipeline:
#   1. ingest run A into a fresh store           -> exit 0
#   2. ingest run A again                        -> MUST fail (duplicate key)
#   3. ingest run B                              -> exit 0
#   4. render the trend section into a document  -> exit 3 (drift), the
#      document gains the PERF HISTORY section with chart + DRIFT line
#   5. check-doc on the freshly rendered doc     -> exit 0
#   6. balbench-report --diff-trace T T          -> exit 0, zero drift
#   7. ingest run B again with --replace         -> exit 0
#   8. list the store                            -> still 2 entries
#   9. ingest a two-entry file into a fresh store -> both, in file order
# The synthetic samples are exact constants, so the robust CIs are
# degenerate and the 2x regression fires deterministically.
if(NOT BALBENCH_HISTORY OR NOT BALBENCH_REPORT OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_HISTORY=<exe> -DBALBENCH_REPORT=<exe> -DWORK_DIR=<dir> -P history_smoke.cmake")
endif()

set(store "${WORK_DIR}/history_smoke_store.json")
set(doc "${WORK_DIR}/history_smoke_doc.md")
set(trace "${WORK_DIR}/history_smoke_trace.json")
file(REMOVE ${store})

# Two synthetic runs: same config hash and host, rev bbbb222's
# calib.spin_5ms is 2x slower than rev aaaa111's.  `entry(var rev
# spin_5ms)` sets `var` to one run's entry.
function(entry var rev spin)
  set(${var} "{\"git_rev\": \"${rev}\", \"config_hash\": \"cafe0123\",
   \"host\": \"smoke-host\", \"suite\": \"micro,calib\",
   \"repeat\": 5, \"warmup\": 1,
   \"cells\": [
    {\"id\": \"calib.spin_5ms\", \"suite\": \"calib\",
     \"samples_seconds\": [${spin}, ${spin}, ${spin}, ${spin}, ${spin}]},
    {\"id\": \"micro.ring_small\", \"suite\": \"micro\",
     \"samples_seconds\": [0.001, 0.001, 0.001, 0.001, 0.001]}
   ]}" PARENT_SCOPE)
endfunction()
entry(entry_a aaaa111 0.005)
entry(entry_b bbbb222 0.010)
set(record_a "${WORK_DIR}/history_smoke_a.json")
set(record_b "${WORK_DIR}/history_smoke_b.json")
set(record_ab "${WORK_DIR}/history_smoke_ab.json")
set(head "{\"schema\": \"balbench-perf-history/2\", \"entries\": [")
file(WRITE ${record_a} "${head}${entry_a}]}\n")
file(WRITE ${record_b} "${head}${entry_b}]}\n")
file(WRITE ${record_ab} "${head}${entry_b}, ${entry_a}]}\n")

# Act 1: first ingest bootstraps the store.
execute_process(
  COMMAND ${BALBENCH_HISTORY} ingest --history ${store} --record ${record_a}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "first ingest failed (exit ${rc})")
endif()

# Act 2: the same (rev, config, host) key must be rejected.
execute_process(
  COMMAND ${BALBENCH_HISTORY} ingest --history ${store} --record ${record_a}
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "duplicate ingest was accepted")
endif()

# Act 3: the second revision extends the series.
execute_process(
  COMMAND ${BALBENCH_HISTORY} ingest --history ${store} --record ${record_b}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second ingest failed (exit ${rc})")
endif()

# Act 4: render must splice the section and flag the 2x regression.
file(WRITE ${doc} "# smoke document\n\nbody text.\n")
execute_process(
  COMMAND ${BALBENCH_HISTORY} render --history ${store} --doc ${doc}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "render of a 2x regression exited ${rc}, want 3")
endif()
file(READ ${doc} doc_text)
if(NOT doc_text MATCHES "BEGIN PERF HISTORY")
  message(FATAL_ERROR "render did not splice the PERF HISTORY section")
endif()
if(NOT doc_text MATCHES "median wall time per revision")
  message(FATAL_ERROR "trend section is missing the ASCII chart")
endif()
if(NOT doc_text MATCHES "DRIFT: 1 cell regressed")
  message(FATAL_ERROR "trend section did not flag the regressed cell")
endif()

# Act 5: the freshly rendered document must pass check-doc.
execute_process(
  COMMAND ${BALBENCH_HISTORY} check-doc --history ${store} --doc ${doc}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check-doc rejected a freshly rendered document (exit ${rc})")
endif()

# Act 6: a trace diffed against itself has zero drifted cells.
execute_process(
  COMMAND ${BALBENCH_REPORT} --trace ${trace} --machine t3e --procs 4
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace generation failed (exit ${rc})")
endif()
execute_process(
  COMMAND ${BALBENCH_REPORT} --diff-trace ${trace} ${trace}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--diff-trace of identical traces exited ${rc}, want 0")
endif()

# Act 7: a deliberate re-ingest of an existing key succeeds.
execute_process(
  COMMAND ${BALBENCH_HISTORY} ingest --history ${store} --record ${record_b}
          --replace
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ingest --replace of a duplicate key failed (exit ${rc})")
endif()

# Act 8: the replace overwrote in place, so the store did not grow.
execute_process(
  COMMAND ${BALBENCH_HISTORY} list --history ${store}
  RESULT_VARIABLE rc OUTPUT_VARIABLE listing)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "list failed (exit ${rc})")
endif()
if(NOT listing MATCHES "\n2 entries \\| 1 host \\| 20 samples held\n")
  message(FATAL_ERROR "list does not count 2 entries after --replace:\n${listing}")
endif()

# Act 9: every entry of a two-entry file goes in, in the file's order.
set(store2 "${WORK_DIR}/history_smoke_store2.json")
file(REMOVE ${store2})
execute_process(
  COMMAND ${BALBENCH_HISTORY} ingest --history ${store2} --record ${record_ab}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ingest of a two-entry file failed (exit ${rc})")
endif()
execute_process(
  COMMAND ${BALBENCH_HISTORY} list --history ${store2}
  RESULT_VARIABLE rc OUTPUT_VARIABLE listing)
if(NOT listing MATCHES "bbbb222 [^\n]*\naaaa111 [^\n]*\n2 entries \\| 1 host")
  message(FATAL_ERROR "list does not show both entries in file order:\n${listing}")
endif()

message(STATUS "history smoke: ingest/duplicate/drift/check-doc/diff-trace/replace/list/two-entry all behaved")
