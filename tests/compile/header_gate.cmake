# Header gate: every header under ROOT/<dir> for each dir in DIRS must carry
# `#pragma once`, include nothing through "../", hold no `using namespace`
# (it would leak into every includer), and compile alone as its own
# translation unit. Every violation is listed before the gate fails.
#   cmake -DCXX=<compiler> -DSTD=<-std=c++20> "-DFLAGS=<options>"
#         "-DINCLUDES=<dirs>" -DROOT=<dir> "-DDIRS=<dirs>" -DWORKDIR=<dir>
#         -P header_gate.cmake
set(headers)
foreach(dir IN LISTS DIRS)
  file(GLOB_RECURSE found "${ROOT}/${dir}/*.h")
  list(APPEND headers ${found})
endforeach()
list(SORT headers)
if(NOT headers)
  message(FATAL_ERROR "no headers under ${ROOT} (${DIRS})")
endif()

set(failures)
foreach(h IN LISTS headers)
  file(STRINGS "${h}" once REGEX "^[ \t]*#[ \t]*pragma[ \t]+once")
  if(NOT once)
    list(APPEND failures "${h}: missing #pragma once")
  endif()
  file(STRINGS "${h}" parent REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<][^\">]*\\.\\./")
  if(parent)
    list(APPEND failures "${h}: includes through ../: ${parent}")
  endif()
  file(STRINGS "${h}" using REGEX "^[ \t]*using[ \t]+namespace[ \t]")
  if(using)
    list(APPEND failures "${h}: using namespace in a header: ${using}")
  endif()
endforeach()

# Each header alone in a TU of its own, -fsyntax-only. The commands of one
# execute_process run concurrently (as a pipeline whose pipes carry
# nothing), so the headers are compiled four at a time.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(include_flags)
foreach(dir IN LISTS INCLUDES)
  list(APPEND include_flags "-I${dir}")
endforeach()
list(LENGTH headers count)
set(i 0)
while(i LESS count)
  set(batch)
  set(commands)
  foreach(k RANGE 3)
    math(EXPR j "${i} + ${k}")
    if(j LESS count)
      list(GET headers ${j} h)
      set(tu "${WORKDIR}/tu_${j}.cc")
      file(WRITE "${tu}" "#include \"${h}\"\n")
      list(APPEND batch "${h}")
      list(APPEND commands COMMAND ${CXX} ${STD} ${FLAGS} ${include_flags}
        -fsyntax-only "${tu}")
    endif()
  endforeach()
  execute_process(${commands}
    RESULTS_VARIABLE rcs OUTPUT_QUIET ERROR_VARIABLE err)
  # One broken header breaks every header that includes it: only the first
  # failing batch's compiler output is shown.
  set(k 0)
  foreach(rc IN LISTS rcs)
    if(NOT rc EQUAL 0)
      list(GET batch ${k} h)
      list(APPEND failures "${h}: does not compile alone")
      if(NOT shown)
        message("${err}")
        set(shown TRUE)
      endif()
    endif()
    math(EXPR k "${k} + 1")
  endforeach()
  math(EXPR i "${i} + 4")
endwhile()

if(failures)
  list(JOIN failures "\n  " text)
  message(FATAL_ERROR "header gate:\n  ${text}")
endif()
message(STATUS "header gate: ${count} headers clean")
