# Runs PROG with ARGS (a ;-list that must write a run report to REPORT) and
# passes only if it exits 0 and the report's JSON value at KEY (a ;-list
# path, e.g. "faults;stalls") equals EXPECT.
#
#   cmake -DPROG=path/to/nbody_sim "-DARGS=--p=4;--report-out=r.json" \
#         -DREPORT=r.json "-DKEY=faults;stalls" -DEXPECT=1 \
#         -P expect_report_value.cmake
file(REMOVE "${REPORT}")
execute_process(COMMAND ${PROG} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${PROG}: expected exit status 0, got '${status}'\n${err}")
endif()
file(READ "${REPORT}" doc)
string(JSON value ERROR_VARIABLE json_err GET "${doc}" ${KEY})
if(json_err)
  message(FATAL_ERROR "${REPORT}: ${json_err}")
endif()
if(NOT value STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${REPORT}: ${KEY} is '${value}', expected '${EXPECT}'")
endif()
