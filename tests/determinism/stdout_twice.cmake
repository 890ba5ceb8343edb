# Runs a program twice, as two processes, and compares what it prints.
#   cmake -DBIN=<program> -DEXPECT=same|differ -P stdout_twice.cmake
#
# EXPECT=same: both runs exit 0 and print the same bytes. Two processes hash
# with two salts (common/hash.h), so output that follows hash order fails.
# EXPECT=differ: both runs exit 0 and print different bytes (the salt probe).

if(NOT DEFINED BIN OR NOT EXPECT MATCHES "^(same|differ)$")
  message(FATAL_ERROR
    "usage: cmake -DBIN=... -DEXPECT=same|differ -P stdout_twice.cmake")
endif()

foreach(run 1 2)
  execute_process(COMMAND "${BIN}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${BIN} failed with exit code ${rc}:\n"
      "${out}")
  endif()
  set(out_${run} "${out}")
endforeach()

if(EXPECT STREQUAL "same" AND NOT out_1 STREQUAL out_2)
  message(FATAL_ERROR "two runs of ${BIN} printed different output:\n"
    "--- run 1\n${out_1}--- run 2\n${out_2}")
endif()
if(EXPECT STREQUAL "differ" AND out_1 STREQUAL out_2)
  message(FATAL_ERROR "two runs of ${BIN} printed the same output:\n${out_1}")
endif()
