# Symbol gate: a seed must replay bit for bit, so no library built from src/
# may call a clock or an entropy source. The linker sees every such call: this
# lists the undefined symbols of every libdufs_*.a under LIBDIR (nm -u -C)
# and fails on rand, srand, std::random_device, any *_clock::now,
# clock_gettime, gettimeofday, time and setitimer. The one allowed entry is
# setitimer in libdufs_prof.a, the signal-mode CPU profiler's sampler, whose
# profiles no gate byte-compares (DESIGN.md §14.4).
#   cmake -DNM=<nm> -DLIBDIR=<dir> -P symbol_gate.cmake

if(NOT DEFINED NM OR NOT DEFINED LIBDIR)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIBDIR=<dir> -P symbol_gate.cmake")
endif()

file(GLOB_RECURSE libs "${LIBDIR}/libdufs_*.a")
if(NOT libs)
  message(FATAL_ERROR "no libdufs_*.a under ${LIBDIR}")
endif()

set(found "")
foreach(lib IN LISTS libs)
  get_filename_component(name "${lib}" NAME)
  execute_process(COMMAND "${NM}" -u -C "${lib}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} -u -C ${lib} failed (${rc}):\n${err}")
  endif()
  # Demangled names carry brackets ([abi:cxx11]), which CMake lists treat
  # specially; no banned name has any, so neutralize them before splitting.
  string(REPLACE "[" "<" out "${out}")
  string(REPLACE "]" ">" out "${out}")
  string(REPLACE ";" "," out "${out}")
  string(REPLACE "\n" ";" lines "${out}")
  set(member "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^ *U (.+)$")
      set(sym "${CMAKE_MATCH_1}")
      if(sym MATCHES "^(rand|srand|time|clock_gettime|gettimeofday|setitimer)$"
         OR sym MATCHES "^std::random_device::"
         OR sym MATCHES "_clock::now[(][)]$")
        if(NOT (sym STREQUAL "setitimer" AND name STREQUAL "libdufs_prof.a"))
          string(APPEND found "  ${name}(${member}): ${sym}\n")
        endif()
      endif()
    elseif(line MATCHES "^(.+):$")
      set(member "${CMAKE_MATCH_1}")
    endif()
  endforeach()
endforeach()

if(found)
  message(FATAL_ERROR "clock or entropy symbols in src/ libraries (use "
    "Simulation::now() and the simulation's Rng):\n${found}")
endif()
list(LENGTH libs n)
message(STATUS "${n} libraries free of clock and entropy symbols")
