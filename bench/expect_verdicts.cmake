# Runs `RUNNER ARGS [--verdicts FILE]` and checks its exit code, its
# stdout and, with FILE, the verdict file it wrote.
#
#   cmake -DRUNNER=<exe> -DARGS=<args> -DRC=<code> -DSTDOUT=<text>
#         [-DFILE=<path> -DRUNS=<n> [-DFAILS=<seeds>]
#          [-DORACLES=<names>]] -P expect_verdicts.cmake
#
# ARGS and FAILS are space-separated. Stdout must contain STDOUT.
# FILE must read "seed=S PASS" for S = 1..RUNS, except
# "seed=S FAIL ORACLES" for each S in FAILS.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED FILE)
    file(REMOVE "${FILE}")
    list(APPEND args --verdicts "${FILE}")
endif()
execute_process(COMMAND "${RUNNER}" ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${RC}")
    message(FATAL_ERROR
        "${ARGS}: expected exit ${RC}, got '${rc}'\n${out}${err}")
endif()
string(FIND "${out}" "${STDOUT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${ARGS}: stdout lacks '${STDOUT}'\n${out}")
endif()
if(NOT DEFINED FILE)
    return()
endif()
separate_arguments(fails UNIX_COMMAND "${FAILS}")
set(expected "")
foreach(seed RANGE 1 ${RUNS})
    list(FIND fails ${seed} failing)
    if(failing GREATER -1)
        string(APPEND expected "seed=${seed} FAIL ${ORACLES}\n")
    else()
        string(APPEND expected "seed=${seed} PASS\n")
    endif()
endforeach()
file(READ "${FILE}" got)
if(NOT got STREQUAL expected)
    message(FATAL_ERROR
        "${ARGS}: verdict file differs\n"
        "expected:\n${expected}got:\n${got}")
endif()
