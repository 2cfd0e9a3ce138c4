# Kill-and-resume integration test, run by ctest as `robust_kill_resume`
# (cmake -P).  Proves the crash-safe checkpoint contract of DESIGN.md
# Sec. 12.3 end to end:
#
#   1. an uninterrupted quick-scope sweep records a reference run
#      (record JSON + rendered markdown)
#   2. a checkpointed sweep is SIGKILLed after 3 completed tasks
#      (--kill-after, the in-process crash hook) and must die abnormally
#   3. --resume replays the journaled tasks and completes with exit 0
#   4. the resumed record AND markdown are byte-compared against the
#      uninterrupted reference
#
# Everything below runs the simulator's virtual clock, so the compare
# is exact byte identity, not a tolerance check.
if(NOT BALBENCH_REPORT OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_REPORT=<exe> -DWORK_DIR=<dir> -P robust_resume.cmake")
endif()

set(reference_record "${WORK_DIR}/resume_reference.json")
set(reference_md "${WORK_DIR}/resume_reference.md")
set(resumed_record "${WORK_DIR}/resume_resumed.json")
set(resumed_md "${WORK_DIR}/resume_resumed.md")
set(journal "${WORK_DIR}/resume_journal.json")
# Stale artifacts from a previous ctest invocation would fail act 2's
# "the killed run produced no final outputs" assertion, and --markdown
# splices into an existing file, so a stale reference document would
# keep its old prose around the fresh sections.
file(REMOVE ${journal} ${resumed_record} ${resumed_md} ${reference_md})

# Act 1: the uninterrupted reference.
execute_process(
  COMMAND ${BALBENCH_REPORT} --scope quick
          --record ${reference_record} --markdown ${reference_md}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference sweep failed (exit ${rc})")
endif()

# Act 2: crash mid-flight.  --kill-after raises SIGKILL after the 3rd
# newly journaled task, so the process must NOT exit cleanly and must
# NOT have produced the final outputs.
execute_process(
  COMMAND ${BALBENCH_REPORT} --scope quick
          --record ${resumed_record} --markdown ${resumed_md}
          --checkpoint ${journal} --kill-after 3
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "--kill-after 3 run exited cleanly; the crash hook did not fire")
endif()
if(EXISTS ${resumed_record})
  message(FATAL_ERROR "killed run left a final record behind")
endif()
if(NOT EXISTS ${journal})
  message(FATAL_ERROR "killed run left no checkpoint journal")
endif()

# Act 3: resume from the journal; completed tasks replay, the rest run.
execute_process(
  COMMAND ${BALBENCH_REPORT} --scope quick
          --record ${resumed_record} --markdown ${resumed_md}
          --checkpoint ${journal} --resume
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--resume run failed (exit ${rc})")
endif()

# Act 4: interrupted-then-resumed == uninterrupted, byte for byte.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${reference_record} ${resumed_record}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed run record differs from the uninterrupted reference")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${reference_md} ${resumed_md}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed markdown differs from the uninterrupted reference")
endif()

message(STATUS "robust kill+resume: crash, resume and byte-identity all behaved")
