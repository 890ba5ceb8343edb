# dufs_lint --rule must name a rule that exists: a known id is accepted and
# an unknown one (here a deleted rule) exits 2 with "unknown rule", so a
# filter on a rule that is gone cannot pass vacuously.
#   cmake -DLINT=<dufs_lint> -P unknown_rule.cmake
execute_process(COMMAND ${LINT} --rule=coro-ref-param --explain
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--rule=coro-ref-param: exit ${rc}, stderr:\n${err}")
endif()
execute_process(COMMAND ${LINT} --rule=coro-ref-param,include-hygiene --explain
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown rule `include-hygiene`")
  message(FATAL_ERROR "--rule=include-hygiene: exit ${rc}, stderr:\n${err}")
endif()
