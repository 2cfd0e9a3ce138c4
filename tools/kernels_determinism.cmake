# Kernel-cell determinism test, run by ctest as `kernels_determinism`
# (cmake -P).  Proves the DESIGN.md Sec. 14 contract end to end: the
# kernel cells of the sweep -- and the balance factors derived from
# them -- are byte-identical for every --jobs value, because their
# analytic-plus-deterministic-noise timing runs through simt virtual
# time and never consults the host.
#
#   1. quick-scope run records at --jobs 1, 2 and 4 byte-compare
#   2. the record actually contains kernel cells and balance factors
#      (guards against a vacuous pass on an empty "kernels" array)
if(NOT BALBENCH_REPORT OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_REPORT=<exe> -DWORK_DIR=<dir> -P kernels_determinism.cmake")
endif()

foreach(jobs 1 2 4)
  execute_process(
    COMMAND ${BALBENCH_REPORT} --scope quick --jobs ${jobs}
            --record ${WORK_DIR}/kernels_j${jobs}.json
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--jobs ${jobs} kernel sweep exited ${rc}, expected 0")
  endif()
endforeach()

foreach(jobs 2 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/kernels_j1.json ${WORK_DIR}/kernels_j${jobs}.json
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run records differ between --jobs 1 and --jobs ${jobs}")
  endif()
endforeach()

file(READ ${WORK_DIR}/kernels_j1.json record)
string(FIND "${record}" "\"schema\": \"balbench-run-record/1\"" has_schema)
if(has_schema EQUAL -1)
  message(FATAL_ERROR "record is not a balbench-run-record/1")
endif()
foreach(needle "\"gemm\"" "\"stream_triad\"" "\"random_access\"" "\"fft\""
        "\"balance\"" "\"stream_per_rmax_Bpf\"")
  string(FIND "${record}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "run record is missing ${needle}")
  endif()
endforeach()

message(STATUS "kernel cells: byte-identical run records at jobs 1/2/4")
