# Perf checkpoint resume test, run by ctest as `perf_resume` (cmake -P).
#
# Three acts over `balbench-perf --suite calib --repeat 2` (two cells):
#   1. a --checkpoint run journals both cells and writes run A
#   2. --resume from that journal re-times nothing: stderr reports
#      "resuming, 2 cells completed" and every cell's samples_seconds
#      in run B equals run A's
#   3. --resume under a different --repeat discards the journal
#      ("different configuration") instead of replaying samples taken
#      under other sampling parameters
if(NOT BALBENCH_PERF OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_PERF=<exe> -DWORK_DIR=<dir> -P perf_resume.cmake")
endif()

set(journal "${WORK_DIR}/perf_resume_journal.json")
set(first "${WORK_DIR}/perf_resume_a.json")
set(second "${WORK_DIR}/perf_resume_b.json")
set(third "${WORK_DIR}/perf_resume_c.json")
file(REMOVE ${journal} ${first} ${second} ${third})

# Act 1: time both cells, journaling each.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite calib --repeat 2 --out ${first}
          --checkpoint ${journal}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointed run failed (exit ${rc})")
endif()
if(NOT EXISTS ${journal})
  message(FATAL_ERROR "checkpointed run left no journal")
endif()

# Act 2: resume replays both cells' samples exactly.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite calib --repeat 2 --out ${second}
          --checkpoint ${journal} --resume
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed run failed (exit ${rc}):\n${err}")
endif()
if(NOT err MATCHES "resuming, 2 cells completed")
  message(FATAL_ERROR "resume did not replay both cells:\n${err}")
endif()
file(READ ${first} a)
file(READ ${second} b)
string(JSON n LENGTH "${a}" entries 0 cells)
if(NOT n EQUAL 2)
  message(FATAL_ERROR "want 2 cells in ${first}, found ${n}")
endif()
foreach(i 0 1)
  string(JSON a_samples GET "${a}" entries 0 cells ${i} samples_seconds)
  string(JSON b_samples GET "${b}" entries 0 cells ${i} samples_seconds)
  if(NOT a_samples STREQUAL b_samples)
    message(FATAL_ERROR "resumed samples differ:\n${a_samples}\nvs\n${b_samples}")
  endif()
endforeach()

# Act 3: other sampling parameters must not replay the journal.
execute_process(
  COMMAND ${BALBENCH_PERF} --suite calib --repeat 3 --out ${third}
          --checkpoint ${journal} --resume
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--repeat 3 resume failed (exit ${rc}):\n${err}")
endif()
if(NOT err MATCHES "different configuration")
  message(FATAL_ERROR "--repeat 3 resume did not discard the journal:\n${err}")
endif()

message(STATUS "perf resume: journal, exact replay and config discard all behaved")
