# balbench-serve smoke, run by ctest as `serve_smoke` (cmake -P).
# Three acts over a live server:
#
#   1. request cycle -- ping answers, a bad request gets status=error
#      (exit 1) without hurting the server, the first sweep is a cache
#      miss, the identical second sweep is a hit with byte-identical
#      record bytes, and --stats reports exactly one hit + one miss
#   2. admission control -- a server with --queue-depth 0 rejects a
#      sweep with status=overloaded (exit 4) immediately
#   3. graceful drain -- with --hold-s pinning a sweep in flight,
#      SIGTERM lets the in-flight request finish and answer, persists
#      the still-queued requests to <cache>.queue.json, exits 0; a
#      restarted server re-admits them (serve.recovered in --stats)
if(NOT BALBENCH_SERVE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBALBENCH_SERVE=<exe> -DWORK_DIR=<dir> -P serve_smoke.cmake")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/serve_common.cmake)

set(dir ${WORK_DIR}/serve_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
set(sock ${dir}/serve.sock)
set(client ${BALBENCH_SERVE} --client --socket ${sock})

# --- Act 1: the request cycle ----------------------------------------
set(cache ${dir}/A_CACHE.json)
serve_start(${dir}/a.pid ${dir}/a.log
            --socket ${sock} --cache ${cache} --queue-depth 4 --verbose)
serve_wait_ready(${sock})

# A bad sweep parameter comes back as status=error (exit 1); the server
# answers instead of dying (the next requests prove it is still up).
execute_process(COMMAND ${client} --scope bogus --retries 1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "bad scope: want exit 1 (status=error), got ${rc}")
endif()

execute_process(COMMAND ${client} --record-out ${dir}/r1.json --retries 1
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "first sweep failed (exit ${rc}): ${err}")
endif()
if(NOT err MATCHES "cache miss")
  message(FATAL_ERROR "first sweep was not a cache miss: ${err}")
endif()

execute_process(COMMAND ${client} --record-out ${dir}/r2.json --retries 1
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "cache hit")
  message(FATAL_ERROR "identical second sweep was not a cache hit (exit ${rc}): ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/r1.json ${dir}/r2.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cache hit bytes differ from the computed record")
endif()

execute_process(COMMAND ${client} --stats --retries 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE stats)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--stats failed (exit ${rc})")
endif()
foreach(want "serve.hits 1" "serve.misses 1" "serve.cache_entries 1")
  if(NOT stats MATCHES "${want}")
    message(FATAL_ERROR "stats missing '${want}':\n${stats}")
  endif()
endforeach()

execute_process(COMMAND ${client} --shutdown --retries 1 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--shutdown failed (exit ${rc})")
endif()
serve_wait_dead(${dir}/a.pid)
if(EXISTS ${sock})
  message(FATAL_ERROR "drained server left its socket behind")
endif()

# --- Act 2: admission control ----------------------------------------
serve_start(${dir}/b.pid ${dir}/b.log
            --socket ${sock} --cache ${dir}/B_CACHE.json --queue-depth 0)
serve_wait_ready(${sock})
execute_process(COMMAND ${client} --retries 1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR "--queue-depth 0 sweep: want exit 4 (overloaded), got ${rc}")
endif()
execute_process(COMMAND ${client} --shutdown --retries 1 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "shutdown after rejection failed (exit ${rc})")
endif()
serve_wait_dead(${dir}/b.pid)

# --- Act 3: graceful drain persists the queue ------------------------
set(cache3 ${dir}/C_CACHE.json)
serve_start(${dir}/c.pid ${dir}/c.log
            --socket ${sock} --cache ${cache3} --queue-depth 4 --hold-s 3
            --verbose)
serve_wait_ready(${sock})
# One request goes in flight (held for 3 s by the test hook)...
serve_client_bg(${dir}/c1.rc ${dir}/c1.err
                --socket ${sock} --record-out ${dir}/c1.json --retries 1)
execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.5)
# ...two more queue up behind it (--retries 1: they must NOT re-send
# after the drain, or the restarted server would see duplicates).
serve_client_bg(${dir}/c2.rc ${dir}/c2.err --socket ${sock} --retries 1)
serve_client_bg(${dir}/c3.rc ${dir}/c3.err --socket ${sock} --retries 1)
execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.5)

file(READ ${dir}/c.pid pid)
string(STRIP "${pid}" pid)
execute_process(COMMAND sh -c "kill -TERM ${pid}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot SIGTERM the server")
endif()
serve_wait_dead(${dir}/c.pid)

if(NOT EXISTS ${cache3}.queue.json)
  message(FATAL_ERROR "drain did not persist the queued requests")
endif()
file(READ ${cache3}.queue.json qdoc)
if(NOT qdoc MATCHES "\"schema\":\"balbench-journal/1\",\"kind\":\"serve-queue\"")
  message(FATAL_ERROR "persisted queue has the wrong schema:\n${qdoc}")
endif()
# The in-flight request must have finished and been answered.
serve_wait_rcfile(${dir}/c1.rc c1rc)
if(NOT c1rc EQUAL 0)
  message(FATAL_ERROR "in-flight request was not answered across the drain (exit ${c1rc})")
endif()
if(NOT EXISTS ${dir}/c1.json)
  message(FATAL_ERROR "in-flight request produced no record")
endif()

# Restart: the persisted queue is re-admitted and consumed.
serve_start(${dir}/d.pid ${dir}/d.log --socket ${sock} --cache ${cache3})
serve_wait_ready(${sock})
if(EXISTS ${cache3}.queue.json)
  message(FATAL_ERROR "restarted server did not consume the persisted queue")
endif()
execute_process(COMMAND ${client} --stats --retries 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE stats)
if(NOT rc EQUAL 0 OR NOT stats MATCHES "serve.recovered 2")
  message(FATAL_ERROR "want serve.recovered 2 after the restart (exit ${rc}):\n${stats}")
endif()
execute_process(COMMAND ${client} --shutdown --retries 1 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "final shutdown failed (exit ${rc})")
endif()
serve_wait_dead(${dir}/d.pid)

message(STATUS "serve smoke: request cycle, admission control and drain all behaved")
