# ctest helper: run BINARY with ARGS twice -- once with --jobs 1 and
# once with --jobs ${JOBS} -- and fail unless stdout and every file
# named in OUTPUTS are byte-identical between the two runs.  Enforces
# the acceptance criterion of the parallel sweep scheduler: the worker
# count must never change a reported number, printed or exported.
#
#   cmake -DBINARY=<path> -DARGS="<args>" -DJOBS=<n>
#         [-DOUTPUTS="<file> <file>..."] -P compare_jobs_output.cmake
#
# Each OUTPUTS file is removed before each run, so both runs must write
# it; the --jobs 1 copy is kept aside as <file>.jobs1.
separate_arguments(args_list UNIX_COMMAND "${ARGS}")
separate_arguments(outputs UNIX_COMMAND "${OUTPUTS}")

foreach(jobs 1 ${JOBS})
  if(outputs)
    file(REMOVE ${outputs})
  endif()
  execute_process(COMMAND ${BINARY} ${args_list} --jobs ${jobs}
    OUTPUT_VARIABLE out_${jobs} RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${ARGS} --jobs ${jobs} exited with ${rc}")
  endif()
  foreach(f ${outputs})
    if(jobs EQUAL 1)
      file(RENAME ${f} ${f}.jobs1)
      continue()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${f}.jobs1 ${f}
      RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      message(FATAL_ERROR
        "${f} differs between --jobs 1 and --jobs ${JOBS} of ${BINARY} "
        "${ARGS}: the parallel sweep broke byte-identical determinism")
    endif()
  endforeach()
endforeach()

if(NOT out_1 STREQUAL out_${JOBS})
  message(FATAL_ERROR
    "stdout of ${BINARY} ${ARGS} differs between --jobs 1 and --jobs ${JOBS}: "
    "the parallel sweep broke byte-identical determinism")
endif()
string(LENGTH "${out_1}" nbytes)
list(LENGTH outputs nfiles)
message(STATUS "byte-identical stdout (${nbytes} bytes) and ${nfiles} output "
               "file(s) at --jobs 1 and --jobs ${JOBS}")
