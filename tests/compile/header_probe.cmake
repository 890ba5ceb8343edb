# Header gate probe: runs header_gate.cmake over a throwaway tree per shape,
# each holding one header that breaks one rule. Every shape must fail the
# gate naming its violation; the control must pass.
#   cmake -DCXX=<compiler> -DSTD=<-std=c++20> "-DFLAGS=<options>"
#         -DGATE=<header_gate.cmake> -DWORKDIR=<dir> -P header_probe.cmake
set(control [=[
#pragma once

#include <string>

inline std::string Name() { return "probe"; }
]=])
set(NO_PRAGMA_ONCE [=[
#include <string>

inline std::string Name() { return "probe"; }
]=])
set(PARENT_INCLUDE [=[
#pragma once

#include "../other.h"
]=])
set(USING_NAMESPACE [=[
#pragma once

#include <string>

using namespace std;
inline string Name() { return "probe"; }
]=])
set(NOT_SELF_CONTAINED [=[
#pragma once

inline std::string Name() { return "probe"; }
]=])
set(shapes NO_PRAGMA_ONCE PARENT_INCLUDE USING_NAMESPACE NOT_SELF_CONTAINED)
set(NO_PRAGMA_ONCE_report "missing #pragma once")
set(PARENT_INCLUDE_report "includes through \\.\\./")
set(USING_NAMESPACE_report "using namespace in a header")
set(NOT_SELF_CONTAINED_report "does not compile alone")

# Gates a tree whose only header is pkg/probe.h with `content`. The header
# "../other.h" names exists outside the gated dir, so only the rule under
# test can fail.
function(gate_probe name content out_rc out_log)
  set(root "${WORKDIR}/${name}")
  file(REMOVE_RECURSE "${root}")
  file(WRITE "${root}/pkg/probe.h" "${content}")
  file(WRITE "${root}/other.h" "#pragma once\n")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -DCXX=${CXX} -DSTD=${STD} "-DFLAGS=${FLAGS}"
      -DROOT=${root} -DDIRS=pkg -DWORKDIR=${root}/tu -P ${GATE}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(${out_rc} ${rc} PARENT_SCOPE)
  set(${out_log} "${out}${err}" PARENT_SCOPE)
endfunction()

gate_probe(control "${control}" rc log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "the control must pass the header gate:\n${log}")
endif()

foreach(shape IN LISTS shapes)
  gate_probe(${shape} "${${shape}}" rc log)
  if(rc EQUAL 0)
    message(FATAL_ERROR "shape ${shape} passed the header gate; it must not")
  endif()
  if(NOT log MATCHES "probe\\.h: ${${shape}_report}")
    message(FATAL_ERROR "shape ${shape} failed for another reason:\n${log}")
  endif()
  message(STATUS "${shape}: rejected")
endforeach()
