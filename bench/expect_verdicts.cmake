# Runs `RUNNER ARGS --verdicts FILE` and checks its exit code, its
# stdout and the verdict file it wrote.
#
#   cmake -DRUNNER=<exe> -DARGS=<args> -DFILE=<path> -DRUNS=<n>
#         -DRC=<code> -DSTDOUT=<text> [-DFAILS=<seeds>]
#         [-DORACLES=<names>] -P expect_verdicts.cmake
#
# ARGS and FAILS are space-separated. FILE must read "seed=S PASS"
# for S = 1..RUNS, except "seed=S FAIL ORACLES" for each S in FAILS.
# Stdout must contain STDOUT.
file(REMOVE "${FILE}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(fails UNIX_COMMAND "${FAILS}")
execute_process(COMMAND "${RUNNER}" ${args} --verdicts "${FILE}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${RC}")
    message(FATAL_ERROR
        "${ARGS}: expected exit ${RC}, got '${rc}'\n${out}${err}")
endif()
string(FIND "${out}" "${STDOUT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${ARGS}: stdout lacks '${STDOUT}'\n${out}")
endif()
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
