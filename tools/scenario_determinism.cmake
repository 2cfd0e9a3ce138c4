# Scenario determinism test, run by ctest as `scenario_determinism`
# (cmake -P).  Proves the acceptance contract of the scenario DSL end
# to end, on the shipped examples themselves:
#
#   1. examples/scenarios/dragonfly-study.json -- a config-defined
#      dragonfly machine plus a windowed link-fault plan and a
#      fault-rate sweep -- runs through `balbench-report --scenario`
#      with byte-identical record AND markdown at --jobs 1/2/4, and
#      the document contains the marker-delimited "Fault-scenario
#      sweeps" section.
#   2. examples/scenarios/node-drop.json -- a rank dropped
#      mid-collective on an explicit adjacency topology -- exits 3
#      (completed with failed cells) with byte-identical records at
#      --jobs 1 and 2: even hard faults replay deterministically.
if(NOT BALBENCH_REPORT OR NOT EXAMPLES_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_REPORT=<exe> -DEXAMPLES_DIR=<dir> -DWORK_DIR=<dir> -P scenario_determinism.cmake")
endif()

# --markdown splices into an existing file; start from none so that each
# run writes a fresh render and a stale section cannot satisfy a check.
file(REMOVE ${WORK_DIR}/scen_j1.md ${WORK_DIR}/scen_j2.md
     ${WORK_DIR}/scen_j4.md ${WORK_DIR}/drop_j1.md ${WORK_DIR}/drop_j2.md)

foreach(jobs 1 2 4)
  execute_process(
    COMMAND ${BALBENCH_REPORT} --scope quick --jobs ${jobs}
            --scenario ${EXAMPLES_DIR}/dragonfly-study.json
            --record ${WORK_DIR}/scen_j${jobs}.json
            --markdown ${WORK_DIR}/scen_j${jobs}.md
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--jobs ${jobs} scenario sweep exited ${rc}, expected 0")
  endif()
endforeach()

foreach(jobs 2 4)
  foreach(ext json md)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/scen_j1.${ext} ${WORK_DIR}/scen_j${jobs}.${ext}
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "scenario ${ext} differs between --jobs 1 and --jobs ${jobs}")
    endif()
  endforeach()
endforeach()

file(READ ${WORK_DIR}/scen_j1.json record)
foreach(needle "\"scenario\": \"dragonfly-study\"" "\"fault_sweep\""
        "\"machine\": \"gridnet\"" "\"link_rate\"")
  string(FIND "${record}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "scenario record is missing ${needle}")
  endif()
endforeach()

file(READ ${WORK_DIR}/scen_j1.md doc)
foreach(needle "BEGIN FAULT-SCENARIO SWEEPS" "END FAULT-SCENARIO SWEEPS"
        "Gridnet (dragonfly 4x4)")
  string(FIND "${doc}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "scenario markdown is missing ${needle}")
  endif()
endforeach()

foreach(jobs 1 2)
  execute_process(
    COMMAND ${BALBENCH_REPORT} --scope quick --jobs ${jobs}
            --scenario ${EXAMPLES_DIR}/node-drop.json
            --record ${WORK_DIR}/drop_j${jobs}.json
            --markdown ${WORK_DIR}/drop_j${jobs}.md
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 3)
    message(FATAL_ERROR "node-drop at --jobs ${jobs} exited ${rc}, expected 3 (failed cells)")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/drop_j1.json ${WORK_DIR}/drop_j2.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "node-drop records differ between --jobs 1 and --jobs 2")
endif()

message(STATUS "scenario runs: byte-identical at jobs 1/2/4, node drop deterministic")
