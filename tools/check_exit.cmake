# Run one command line and check how it fails: ${CMD} is the command
# with its arguments separated by '|', ${RC} the exit code it must
# return, and ${MATCH} a regex its stderr must contain (the flag the
# error names).
#
#   cmake -DCMD="imo-run|--len|1O" -DRC=3 -DMATCH="--len" \
#         -P check_exit.cmake
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${RC}")
    message(FATAL_ERROR "expected exit code ${RC}, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "${MATCH}")
    message(FATAL_ERROR "stderr does not match '${MATCH}':\n${err}")
endif()
