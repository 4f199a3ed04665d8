# Runs PROG with the single argument ARG and passes only if it exits with
# status 1 and prints an `error:` line matching EXPECT on stderr — a clean
# rejection, not a precondition abort and not a run with a silent default.
#
#   cmake -DPROG=path/to/nbody_sim -DARG=--p=64 \
#         -DEXPECT="error: --p=64 out of range" -P expect_cli_error.cmake
execute_process(COMMAND ${PROG} ${ARG}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${PROG} ${ARG}: expected exit status 1, got "
                      "'${status}'\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${PROG} ${ARG}: stderr does not match "
                      "'${EXPECT}':\n${err}")
endif()
