# Runs CMD with ARGS (space-separated) and fails unless it exits with status
# EXPECT_EXIT and its stderr contains EXPECT_STDERR. A crash or abort does
# not count as an exit status, so it fails too.
#
#   cmake -DCMD=<exe> "-DARGS=<args>" -DEXPECT_EXIT=<n> \
#         "-DEXPECT_STDERR=<text>" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
          "${CMD} ${ARGS}: exit status '${status}', expected ${EXPECT_EXIT}\n"
          "stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${CMD} ${ARGS}: stderr lacks '${EXPECT_STDERR}'\nstderr: ${err}")
endif()
