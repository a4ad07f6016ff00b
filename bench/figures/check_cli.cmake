# Checks mipp_figures' command line:
#   cmake -DFIGURES=<path> -DCHECK=list|unknown -P check_cli.cmake
# list: --list prints 29 distinct ids. unknown: an unknown id exits 2 and
# names itself on stderr.
cmake_minimum_required(VERSION 3.20)
if(CHECK STREQUAL "list")
  execute_process(COMMAND ${FIGURES} --list RESULT_VARIABLE rc
    OUTPUT_VARIABLE out)
  string(REGEX REPLACE " [^\n]*\n" ";" ids "${out}")
  list(REMOVE_ITEM ids "")
  list(LENGTH ids n)
  list(REMOVE_DUPLICATES ids)
  list(LENGTH ids distinct)
  if(NOT rc EQUAL 0 OR NOT n EQUAL 29 OR NOT distinct EQUAL 29)
    message(FATAL_ERROR "--list exited ${rc} with ${n} ids, ${distinct} "
      "distinct (want 29):\n${out}")
  endif()
else()
  execute_process(COMMAND ${FIGURES} no_such_fig RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "no_such_fig")
    message(FATAL_ERROR "no_such_fig exited ${rc} (want 2): ${err}")
  endif()
endif()
