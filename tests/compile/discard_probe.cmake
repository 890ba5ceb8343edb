# Discard gate: sim::Task is lazy, so a Task or Future whose value is dropped
# never runs, and a dropped delay never waits. Compiles discard_probe.cc once
# per shape with the project's compile options: every discard shape must fail
# with an unused-result diagnostic, and the control (no shape defined) must
# compile.
#   cmake -DCXX=<compiler> -DSTD=<-std=c++20> "-DFLAGS=<options>"
#         -DSRC=<repo>/src -DPROBE=<discard_probe.cc> -P discard_probe.cmake
set(shapes PLAIN MEMBER POINTER STATIC AUTO_WRAPPER MACRO TEMPLATE_WRAPPER
    LAMBDA FUTURE DELAY SERVE)

function(compile_probe define out_rc out_err)
  execute_process(
    COMMAND ${CXX} ${STD} ${FLAGS} -fsyntax-only -I${SRC} ${define} ${PROBE}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(${out_rc} ${rc} PARENT_SCOPE)
  set(${out_err} "${out}${err}" PARENT_SCOPE)
endfunction()

compile_probe("" rc err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "control shape must compile (exit ${rc}):\n${err}")
endif()

foreach(shape IN LISTS shapes)
  compile_probe(-DPROBE_${shape} rc err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "discard shape ${shape} compiled; it must not")
  endif()
  if(NOT err MATCHES "unused-result")
    message(FATAL_ERROR
      "discard shape ${shape} failed without an unused-result error:\n${err}")
  endif()
  message(STATUS "${shape}: rejected")
endforeach()
