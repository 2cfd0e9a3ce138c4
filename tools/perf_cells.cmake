# Perf cell-list pin, run by ctest as `perf_cells` (cmake -P).
#
# The perf gate compares cells by id and flags a baseline whose cell
# list differs only with a note ("comparing shared cells only"), so a
# renamed cell silently drops out of the gate.  This test pins the
# lists through the record's config_hash (FNV-1a over the cell ids):
#   1. `--suite all` must hash like the committed BENCH_PERF.json, the
#      baseline the gate reads;
#   2. `--suite scenario` of each shipped example scenario must hash to
#      the value listed below.
# Every run is one unwarmed sample per cell: about a second in all.
if(NOT BALBENCH_PERF OR NOT ROOT_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_PERF=<exe> -DROOT_DIR=<repo> -DWORK_DIR=<dir> -P perf_cells.cmake")
endif()

# Runs balbench-perf with ARGN and stores the record's config_hash in
# `out_var`.
function(perf_hash out_var record)
  execute_process(
    COMMAND ${BALBENCH_PERF} ${ARGN} --repeat 1 --warmup 0 --out ${record}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "balbench-perf ${ARGN} exited ${rc}:\n${err}")
  endif()
  file(READ ${record} text)
  string(JSON hash GET "${text}" config_hash)
  set(${out_var} ${hash} PARENT_SCOPE)
endfunction()

file(READ ${ROOT_DIR}/BENCH_PERF.json committed)
string(JSON want GET "${committed}" config_hash)
perf_hash(got ${WORK_DIR}/perf_cells_all.json --suite all)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "--suite all cell list hashes to ${got}, the committed "
                      "BENCH_PERF.json baseline to ${want}")
endif()

set(scenarios
  node-drop 828611e7baaa93fe
  pattern-mix ae7d658fa1cdd9f6
  dragonfly-study 3ea2d9934dfde067)
list(LENGTH scenarios n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET scenarios ${i} name)
  list(GET scenarios ${j} want)
  perf_hash(got ${WORK_DIR}/perf_cells_${name}.json --suite scenario
            --scenario ${ROOT_DIR}/examples/scenarios/${name}.json)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${name}.json scenario cell list hashes to ${got}, "
                        "want ${want}")
  endif()
endforeach()

message(STATUS "perf cells: --suite all and every example scenario hash as pinned")
