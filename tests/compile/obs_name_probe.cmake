# Name gate: metric keys, span names, span categories, span arg keys and
# profiler frame names are obs::Name values (src/obs/name.h), built only from
# string literals matching [a-z][a-z0-9._-]*. Compiles obs_name_probe.cc once
# per shape with the project's compile options: every bad shape must fail
# with a diagnostic that names obs::Name, and the control (no shape defined)
# must compile.
#   cmake -DCXX=<compiler> -DSTD=<-std=c++20> "-DFLAGS=<options>"
#         -DSRC=<repo>/src -DPROBE=<obs_name_probe.cc> -P obs_name_probe.cmake
set(shapes UPPER_SPAN UPPER_COUNTER EMPTY_GAUGE CONCAT_KEY STRING_TIMER
    RUNTIME_SPAN FORWARDED_SPAN RUNTIME_PROF UPPER_PROF)

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
    message(FATAL_ERROR "name shape ${shape} compiled; it must not")
  endif()
  if(NOT err MATCHES "obs::Name|ObsNameMustMatchLowerCaseDotted")
    message(FATAL_ERROR
      "name shape ${shape} failed without an obs::Name error:\n${err}")
  endif()
  message(STATUS "${shape}: rejected")
endforeach()
