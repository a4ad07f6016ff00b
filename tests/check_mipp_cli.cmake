# Checks mipp_cli's argument handling and output:
#   cmake -DCLI=<path> -DOUT=<dir>
#         -DCHECK=profile_args|empty_trace|bad_flags|usage|sweep_sim|golden
#         -P check_mipp_cli.cmake
# profile_args: non-numeric or out-of-range counts exit 2 with
# InvalidArgument and write no profile. empty_trace: a 0-uop profile
# (from an empty .mtf) evaluates to finite numbers, and the uops
# positional is ignored with --trace. bad_flags: unknown flags, missing
# values (a flag is no flag's value) and bad counts of every command
# exit 2 with InvalidArgument.
# usage: a command missing its subcommand or a required flag exits 2
# with that command's help. sweep_sim: every front line of a simulating
# sweep carries its simulation. golden: profile, evaluate and sweep
# text equals mipp_cli.golden.
cmake_minimum_required(VERSION 3.20)
file(MAKE_DIRECTORY ${OUT})

# Run the CLI with the list ARGN; rc, out and err land in the caller.
function(run)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(rc ${rc} PARENT_SCOPE)
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

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
elseif(CHECK STREQUAL "empty_trace")
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
  # The uops positional is ignored with --trace, even below the
  # generated-workload range.
  file(REMOVE ${OUT}/empty5.profile)
  run(profile --trace ${OUT}/empty.mtf ${OUT}/empty5.profile 5)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "profile --trace ... 5 exited ${rc} (want 0): "
      "${err}")
  endif()
  file(SHA256 ${OUT}/empty.profile sha)
  file(SHA256 ${OUT}/empty5.profile sha5)
  if(NOT sha STREQUAL sha5)
    message(FATAL_ERROR "profile --trace ... 5 wrote another profile")
  endif()
elseif(CHECK STREQUAL "bad_flags")
  set(p ${OUT}/p.profile)
  run(profile balanced_mix ${p} 2000)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "profile exited ${rc}: ${err}")
  endif()
  # Where the parser ignored a flag, the command ran anyway: small
  # accuracy/calibrate runs, and a socket that cannot be bound (a
  # directory that does not exist), keep such a failure fast.
  set(acc report accuracy --grid ci --uops 1000 --workload balanced_mix
    --no-phased)
  set(cal report calibrate --uops 1000 --workload balanced_mix
    --no-phased --no-branch-fit --rounds 1)
  set(sock ${OUT}/no_such_dir/s.sock)
  set(mtf ${OUT}/bad.mtf)
  set(cases
    "evaluate|${p}|--widht|2"
    "evaluate|${p}|--width"
    "evaluate|${p}|--rob|0"
    "sweep|${p}|--streaming"
    "sweep|${p}|--threads|2"
    "sweep|${p}|--uops|5000"
    "sweep|${p}|--mode|bogus"
    "sweep|${p}|--validate|-1"
    "sweep|${p}|--mode"
    "trace|record|balanced_mix|${mtf}|abc"
    "trace|record|balanced_mix|${mtf}|-5"
    "serve|--socket|${sock}|--queue|-5"
    "serve|--socket|${sock}|--workers|abc"
    "serve|--socket|${sock}|--deadline-ms|x"
    "serve|--socket|${sock}|--bogus"
    "serve|--socket"
    "report|metrics|--socket")
  foreach(extra "--mode;model" "--streaming" "--validate;3"
      "--threads;abc" "--uops;abc" "--margin;x" "--json")
    string(REPLACE ";" "|" args "${acc};${extra}")
    list(APPEND cases "${args}")
  endforeach()
  foreach(extra "--full" "--mode;model" "--threads;abc" "--uops;abc"
      "--rounds;0" "--trace")
    string(REPLACE ";" "|" args "${cal};${extra}")
    list(APPEND cases "${args}")
  endforeach()
  foreach(case IN LISTS cases)
    string(REPLACE "|" ";" args "${case}")
    file(REMOVE ${mtf})
    run(${args})
    if(NOT rc EQUAL 2 OR NOT err MATCHES "InvalidArgument"
        OR EXISTS ${mtf})
      message(FATAL_ERROR "mipp_cli ${args} exited ${rc} (want 2, "
        "InvalidArgument, no file): ${err}")
    endif()
  endforeach()
  # A flag is no flag's value: `--json --no-phased` must not write the
  # report to a file named --no-phased and drop that flag.
  file(REMOVE ${OUT}/--no-phased)
  execute_process(COMMAND ${CLI} report accuracy --grid ci --uops 1000
    --workload balanced_mix --json --no-phased WORKING_DIRECTORY ${OUT}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "InvalidArgument.*--json requires"
      OR EXISTS ${OUT}/--no-phased)
    message(FATAL_ERROR "mipp_cli report accuracy ... --json --no-phased "
      "exited ${rc} (want 2, --json requires a value, no --no-phased "
      "file): ${err}")
  endif()
  # The socket above really cannot be bound.
  run(serve --socket ${sock})
  if(NOT rc EQUAL 1 OR NOT err MATCHES "Internal")
    message(FATAL_ERROR "serve --socket ${sock} exited ${rc} "
      "(want 1, Internal): ${err}")
  endif()
elseif(CHECK STREQUAL "usage")
  # Each usage error prints the help entry `mipp_cli help <topic>` shows.
  foreach(case "report|report" "serve|serve"
      "report metrics|report;metrics;--out;${OUT}/m.json")
    string(REPLACE "|" ";" parts "${case}")
    list(GET parts 0 topic)
    list(SUBLIST parts 1 -1 args)
    string(REPLACE " " ";" topic_args "${topic}")
    run(help ${topic_args})
    if(NOT rc EQUAL 0 OR out STREQUAL "")
      message(FATAL_ERROR "mipp_cli help ${topic} exited ${rc}: ${err}")
    endif()
    set(help "${out}")
    run(${args})
    string(FIND "${err}" "${help}" at)
    if(NOT rc EQUAL 2 OR at EQUAL -1)
      message(FATAL_ERROR "mipp_cli ${args} exited ${rc} (want 2 and "
        "the text of `mipp_cli help ${topic}`): ${err}")
    endif()
  endforeach()
  # The report group's help lists every flag of its members.
  run(report)
  if(NOT err MATCHES "--check-grid")
    message(FATAL_ERROR "mipp_cli report: usage lacks --check-grid: ${err}")
  endif()
elseif(CHECK STREQUAL "sweep_sim")
  run(profile stencil ${OUT}/s.profile 5000)
  foreach(mode paired pareto)
    run(sweep ${OUT}/s.profile --mode ${mode})
    string(REGEX MATCHALL "\n  w[^\n]*" front "${out}")
    list(LENGTH front n)
    if(NOT rc EQUAL 0 OR n EQUAL 0 OR out MATCHES " 0 simulations")
      message(FATAL_ERROR "sweep --mode ${mode} exited ${rc}:\n${out}${err}")
    endif()
    foreach(line IN LISTS front)
      if(NOT line MATCHES "\\(sim: +[0-9.]+, err [+-][0-9.]+%\\)$")
        message(FATAL_ERROR "sweep --mode ${mode}: front line without "
          "its simulation:${line}\n${out}")
      endif()
    endforeach()
  endforeach()
else()
  # golden: the text of the CLI whose values were computed in process,
  # before it ran through serve's dispatcher, is the reference. The CLI
  # now prints the 10-significant-digit wire values, so a value whose
  # wire text is a rounding tie may print one digit differently; the
  # golden keeps such a line's new text with a '#' note above it.
  set(text "")
  foreach(w stencil branchy ptr_chase dense_compute)
    set(p ${OUT}/${w}.profile)
    run(profile ${w} ${p} 30000)
    file(SHA256 ${p} sha)
    string(APPEND text "== profile ${w} 30000 sha256 ${sha}\n")
    foreach(cfg "" "--width;2;--rob;64"
        "--width;6;--rob;256;--l1d;64;--l2;512;--l3;16"
        "--width;4;--freq;3.5;--prefetcher")
      run(evaluate ${p} ${cfg})
      string(REPLACE ";" " " shown "== evaluate ${w} ${cfg}")
      string(STRIP "${shown}" shown)
      string(APPEND text "${shown}\n${out}")
    endforeach()
    foreach(space "" "--full")
      run(sweep ${p} ${space})
      string(STRIP "== sweep ${w} ${space}" shown)
      string(APPEND text "${shown}\n${out}")
    endforeach()
  endforeach()
  file(READ ${CMAKE_CURRENT_LIST_DIR}/mipp_cli.golden golden)
  string(REGEX REPLACE "\n#[^\n]*" "" golden "\n${golden}")
  string(SUBSTRING "${golden}" 1 -1 golden)
  if(NOT text STREQUAL golden)
    file(WRITE ${OUT}/actual.txt "${text}")
    message(FATAL_ERROR "mipp_cli text differs from "
      "${CMAKE_CURRENT_LIST_DIR}/mipp_cli.golden; see ${OUT}/actual.txt")
  endif()
endif()
