# Runs COMMAND (a list: program then arguments) and fails unless it exits
# with status EXPECTED_EXIT and, when EXPECTED_STDERR is set, its stderr
# matches that regex. A crash or abort is never the expected status.
#
#   cmake -DCOMMAND=<prog>;<args...> -DEXPECTED_EXIT=<n>
#         [-DEXPECTED_STDERR=<regex>] -P expect_exit.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECTED_EXIT}")
    message(FATAL_ERROR "expected exit ${EXPECTED_EXIT}, got '${status}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECTED_STDERR AND NOT err MATCHES "${EXPECTED_STDERR}")
    message(FATAL_ERROR "stderr does not match '${EXPECTED_STDERR}':\n${err}")
endif()
