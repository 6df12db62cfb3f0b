# Runs `RUNNER FLAG VALUE` and passes only if it exits with exactly 2,
# the fuzz_runner's usage/parse-error code.
#
#   cmake -DRUNNER=<exe> -DFLAG=<flag> -DVALUE=<value>
#         [-DDOC=<text>] [-DEXPECT=<text>] -P expect_usage_error.cmake
#
# With DOC, VALUE is a file path that is first written with DOC (for
# --replay). With EXPECT, stderr must also contain that text.
if(DEFINED DOC)
    file(WRITE "${VALUE}" "${DOC}")
endif()
execute_process(COMMAND "${RUNNER}" "${FLAG}" "${VALUE}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
        "${FLAG} ${VALUE}: expected exit 2, got '${rc}'\n${out}${err}")
endif()
if(DEFINED EXPECT AND NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "${FLAG} ${VALUE}: stderr lacks '${EXPECT}'\n${err}")
endif()
