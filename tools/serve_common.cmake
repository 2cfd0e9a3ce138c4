# Shared plumbing of the balbench-serve smoke tests (included by the
# serve_smoke / serve_kill_recover / serve_chaos cmake -P scripts).
# cmake -P has no job control, so the server and background clients run
# through `sh -c "... &"` with pid / exit-code files as the rendezvous.

# Starts ${BALBENCH_SERVE} detached with the flags in ARGN; the pid
# lands in `pidfile`, stdout+stderr in `log`.
function(serve_start pidfile log)
  string(JOIN " " args ${ARGN})
  execute_process(
    COMMAND sh -c "${BALBENCH_SERVE} ${args} > ${log} 2>&1 & echo $! > ${pidfile}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot start balbench-serve (${rc})")
  endif()
endfunction()

# Runs one client request detached; the client's exit code lands in
# `rcfile` when it finishes (serve_wait_rcfile polls for it), stderr in
# `errfile`.
function(serve_client_bg rcfile errfile)
  string(JOIN " " args ${ARGN})
  execute_process(
    # The subshell's OWN stdio must be re-pointed too: execute_process
    # waits for its output pipes to close, and an inherited descriptor
    # inside the backgrounded subshell would hold them open -- turning
    # this "background" client into a blocking one.
    COMMAND sh -c "( ${BALBENCH_SERVE} --client ${args} > /dev/null 2> ${errfile}; echo $? > ${rcfile} ) < /dev/null > /dev/null 2>&1 &"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot start background client (${rc})")
  endif()
endfunction()

# Polls --ping until the server on `socket` answers; ~15 s budget.
function(serve_wait_ready socket)
  foreach(i RANGE 150)
    execute_process(
      COMMAND ${BALBENCH_SERVE} --client --socket ${socket} --ping --retries 1
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(rc EQUAL 0)
      return()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  message(FATAL_ERROR "server on ${socket} never became ready")
endfunction()

# Sets `out_var` to TRUE when process `pid` has exited.  The server's
# launching shell exits at once, so a dead server is an orphan that
# stays a zombie until init reaps it -- and `kill -0` succeeds on a
# zombie.  Where /proc exists, state Z (or no entry) counts as exited;
# elsewhere `kill -0` decides.
function(serve_pid_exited pid out_var)
  set(${out_var} FALSE PARENT_SCOPE)
  if(EXISTS /proc/self/stat)
    # cat, not file(READ): the entry can vanish between a check and the
    # read once init reaps the zombie.
    execute_process(COMMAND cat /proc/${pid}/stat
                    OUTPUT_VARIABLE stat RESULT_VARIABLE rc ERROR_QUIET)
    if(NOT rc EQUAL 0)
      set(${out_var} TRUE PARENT_SCOPE)
      return()
    endif()
    # "pid (comm) S ...": comm may hold spaces or parentheses, so the
    # state is the field after the LAST ')'.
    string(FIND "${stat}" ")" close REVERSE)
    math(EXPR at "${close} + 2")
    string(SUBSTRING "${stat}" ${at} 1 state)
    if(state STREQUAL "Z" OR state STREQUAL "")
      set(${out_var} TRUE PARENT_SCOPE)
    endif()
    return()
  endif()
  execute_process(COMMAND sh -c "kill -0 ${pid} 2>/dev/null"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    set(${out_var} TRUE PARENT_SCOPE)
  endif()
endfunction()

# Waits until the pid recorded in `pidfile` has exited; ~60 s budget.
function(serve_wait_dead pidfile)
  file(READ ${pidfile} pid)
  string(STRIP "${pid}" pid)
  foreach(i RANGE 600)
    serve_pid_exited(${pid} exited)
    if(exited)
      return()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  message(FATAL_ERROR "server pid ${pid} did not exit")
endfunction()

# Waits for a background client's exit-code file and returns its value
# in `out_var`; ~120 s budget.
function(serve_wait_rcfile rcfile out_var)
  foreach(i RANGE 1200)
    if(EXISTS ${rcfile})
      file(READ ${rcfile} rc)
      string(STRIP "${rc}" rc)
      set(${out_var} "${rc}" PARENT_SCOPE)
      return()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  message(FATAL_ERROR "background client never finished (${rcfile})")
endfunction()
