# Symbol gate probe: compiles symbol_probe.cc once per shape with the
# project's compile options, archives it as libdufs_probe.a and runs
# symbol_gate.cmake on it. Every shape must fail the gate naming its symbol;
# the control (no shape defined) must pass.
#   cmake -DCXX=<compiler> -DSTD=<-std=c++20> "-DFLAGS=<options>" -DAR=<ar>
#         -DNM=<nm> -DPROBE=<symbol_probe.cc> -DGATE=<symbol_gate.cmake>
#         -DWORKDIR=<dir> -P symbol_probe.cmake
set(shapes STEADY_CLOCK SYSTEM_CLOCK RAND SRAND RANDOM_DEVICE TIME
    CLOCK_GETTIME GETTIMEOFDAY SETITIMER)

# Runs the gate over a library built from the probe with `define`.
function(gate_probe define dir out_rc out_log)
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND ${CXX} ${STD} ${FLAGS} -c ${define} ${PROBE} -o ${dir}/probe.o
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "probe ${define} did not compile:\n${err}")
  endif()
  execute_process(COMMAND ${AR} qc ${dir}/libdufs_probe.a ${dir}/probe.o
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "archiving probe ${define} failed")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -DNM=${NM} -DLIBDIR=${dir} -P ${GATE}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(${out_rc} ${rc} PARENT_SCOPE)
  set(${out_log} "${out}${err}" PARENT_SCOPE)
endfunction()

gate_probe("" "${WORKDIR}/control" rc log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "the control must pass the symbol gate:\n${log}")
endif()

foreach(shape IN LISTS shapes)
  gate_probe(-DPROBE_${shape} "${WORKDIR}/${shape}" rc log)
  if(rc EQUAL 0)
    message(FATAL_ERROR "shape ${shape} passed the symbol gate; it must not")
  endif()
  if(NOT log MATCHES "libdufs_probe.a")
    message(FATAL_ERROR "shape ${shape} failed without a finding:\n${log}")
  endif()
  message(STATUS "${shape}: rejected")
endforeach()
