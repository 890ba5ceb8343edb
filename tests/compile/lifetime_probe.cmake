# Lifetime probe: runs lifetime_probe.cc's ASan build once per shape. Each
# shape is a coroutine lifetime bug and must abort with its named ASan
# report; the control must run clean. detect_stack_use_after_return=1 is what
# turns a frame's read of a dead caller's stack into a report: without it the
# value-capture shape reads stale but intact bytes and runs clean.
#   cmake -DPROBE=<lifetime_probe binary> -P lifetime_probe.cmake
set(shapes
  ref-capture=stack-use-after-return
  value-capture=stack-use-after-return
  this-capture=stack-use-after-return
  ref-escape=stack-use-after-return
  held-iterator=heap-use-after-free)

# Leak checking is the sanitizer job's concern, not this probe's.
set(ENV{ASAN_OPTIONS} "detect_stack_use_after_return=1:detect_leaks=0")

execute_process(COMMAND ${PROBE} control
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "the control must run clean (exit ${rc}):\n${out}${err}")
endif()

foreach(entry IN LISTS shapes)
  string(REPLACE "=" ";" entry "${entry}")
  list(GET entry 0 shape)
  list(GET entry 1 report)
  execute_process(COMMAND ${PROBE} ${shape}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "shape ${shape} ran clean; ASan must report it:\n${out}")
  endif()
  if(NOT err MATCHES "ERROR: AddressSanitizer: ${report}")
    message(FATAL_ERROR
      "shape ${shape} failed without a ${report} report (exit ${rc}):\n${err}")
  endif()
  message(STATUS "${shape}: ${report}")
endforeach()
