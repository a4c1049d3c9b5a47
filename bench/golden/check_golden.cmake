# Reruns one paper harness into a fresh directory and diffs the CSV it
# writes against its checked-in golden (rules in bench/golden_diff.cpp).
#
#   cmake -DHARNESS=<harness> -DDIFF=<golden_diff> -DGOLDEN=<golden.csv>
#         -DCSV=<file name the harness writes> -DWORK=<scratch dir>
#         -P check_golden.cmake
file(REMOVE_RECURSE "${WORK}")
execute_process(COMMAND "${HARNESS}" --out "${WORK}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${status}")
endif()
execute_process(COMMAND "${DIFF}" "${GOLDEN}" "${WORK}/${CSV}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${WORK}/${CSV} differs from ${GOLDEN}")
endif()
