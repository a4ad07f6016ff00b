# Checks mipp_cli's argument handling:
#   cmake -DCLI=<path> -DOUT=<dir> -DCHECK=profile_args|empty_trace
#         -P check_mipp_cli.cmake
# profile_args: non-numeric or out-of-range counts exit 2 with
# InvalidArgument and write no profile. empty_trace: a 0-uop profile
# (from an empty .mtf) evaluates to finite numbers.
cmake_minimum_required(VERSION 3.20)
file(MAKE_DIRECTORY ${OUT})
if(CHECK STREQUAL "profile_args")
  set(out ${OUT}/bad.profile)
  foreach(bad "abc" "999" "5e7x" "--threads;abc" "--threads;65"
      "--threads;-1" "--segment-uops;-5" "--segment-uops;x")
    file(REMOVE ${out})
    execute_process(COMMAND ${CLI} profile balanced_mix ${out} ${bad}
      RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "InvalidArgument"
        OR EXISTS ${out})
      message(FATAL_ERROR "profile ... ${bad} exited ${rc} (want 2, "
        "InvalidArgument, no profile): ${err}")
    endif()
  endforeach()
else()
  execute_process(COMMAND ${CLI} trace record balanced_mix
    ${OUT}/empty.mtf 0 RESULT_VARIABLE rc)
  execute_process(COMMAND ${CLI} profile --trace ${OUT}/empty.mtf
    ${OUT}/empty.profile RESULT_VARIABLE rc2)
  execute_process(COMMAND ${CLI} evaluate ${OUT}/empty.profile
    RESULT_VARIABLE rc3 OUTPUT_VARIABLE out)
  string(TOLOWER "${out}" lower)
  if(NOT rc EQUAL 0 OR NOT rc2 EQUAL 0 OR NOT rc3 EQUAL 0
      OR lower MATCHES "nan|inf")
    message(FATAL_ERROR "record/profile/evaluate of an empty trace "
      "exited ${rc}/${rc2}/${rc3} (want 0/0/0, finite output):\n${out}")
  endif()
endif()
