# Runs `RUNNER FLAG VALUE [EXTRA...]` and passes only if it exits with
# exactly 2, the fuzz_runner's usage/parse-error code, having printed
# nothing on stdout (no seed ran).
#
#   cmake -DRUNNER=<exe> -DFLAG=<flag> -DVALUE=<value>
#         [-DEXTRA=<args>] [-DDOC=<text>] [-DEXPECT=<text>]
#         -P expect_usage_error.cmake
#
# EXTRA is more arguments, space-separated, passed after VALUE. With
# DOC, VALUE is a file path that is first written with DOC (for
# --replay). With EXPECT, stderr must also contain that text.
if(DEFINED DOC)
    file(WRITE "${VALUE}" "${DOC}")
endif()
separate_arguments(extra UNIX_COMMAND "${EXTRA}")
execute_process(COMMAND "${RUNNER}" "${FLAG}" "${VALUE}" ${extra}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
        "${FLAG} ${VALUE} ${EXTRA}: expected exit 2, got '${rc}'\n"
        "${out}${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR
        "${FLAG} ${VALUE} ${EXTRA}: expected no stdout\n${out}")
endif()
if(DEFINED EXPECT AND NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "${FLAG} ${VALUE} ${EXTRA}: stderr lacks '${EXPECT}'\n${err}")
endif()
