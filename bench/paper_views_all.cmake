# ctest helper: paper_views --quick must print exactly the five
# single-view outputs concatenated in paper order, byte for byte, and
# --view bogus must exit 2 with a message naming every valid view.
#
#   cmake -DBINARY=<path to paper_views> -P paper_views_all.cmake
set(views table1 fig1 fig3 fig4 fig5)
set(expected "")
foreach(args ${views} "")  # "" = no --view, i.e. all
  if(args)
    set(args --view ${args})
  endif()
  execute_process(COMMAND ${BINARY} ${args} --quick
    OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${args} --quick exited with ${rc}")
  endif()
  if(args)
    string(APPEND expected "${out}")
  elseif(NOT out STREQUAL expected)
    message(FATAL_ERROR "--quick is not the five views (${views}) concatenated")
  endif()
endforeach()

execute_process(COMMAND ${BINARY} --view bogus --quick
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BINARY} --view bogus exited with ${rc}, expected 2")
endif()
foreach(view ${views} all)
  string(FIND "${err}" "${view}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--view bogus does not name the valid view ${view}: ${err}")
  endif()
endforeach()
