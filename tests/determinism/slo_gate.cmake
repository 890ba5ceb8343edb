# Incident-observability gate: inject a journal disk that degrades mid-run
# (bench/anomaly_slowfsync.cc) and require
#   1. the fsync-stall detector fires (the bench itself exits 1 otherwise,
#      via --expect-anomaly),
#   2. the anomaly dumps and the metrics export (which embeds the
#      incident report) are byte-identical across two runs, and
#   3. tracestats --explain-dump attributes at least half of the anomaly
#      window's mean-latency growth to the fsync category.
#
# Invoked by ctest as:
#   cmake -DBENCH=<anomaly_slowfsync> -DTRACESTATS=<tracestats>
#         -DWORKDIR=<dir> -P slo_gate.cmake

if(NOT DEFINED BENCH OR NOT DEFINED TRACESTATS OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "usage: cmake -DBENCH=... -DTRACESTATS=... -DWORKDIR=... -P slo_gate.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")

set(ARGS --seed=7 --files=120 --degrade-at-us=150000 --degrade-factor=15
    --slo=create:8ms:0.01 --expect-anomaly=fsync-stall)

foreach(run 1 2)
  file(MAKE_DIRECTORY "${WORKDIR}/run${run}")
  # Run 2 spells the dump dir with a redundant `/.` segment and a trailing
  # slash on purpose: the bench harness must normalize the path so the
  # dumps land in the same place and the metrics export (which embeds dump
  # basenames) stays byte-identical across invocation styles.
  if(run EQUAL 2)
    set(dumpdir "${WORKDIR}/run2/./")
  else()
    set(dumpdir "${WORKDIR}/run1")
  endif()
  # Signal-mode --profile rides along to prove wall-clock sampling does not
  # perturb the incident pipeline; prof.folded is nondeterministic by
  # design and excluded from the byte-compare below (DESIGN.md §14).
  execute_process(
    COMMAND "${BENCH}" ${ARGS}
      --flight-dump-dir=${dumpdir}
      --metrics-json=${WORKDIR}/run${run}/metrics.json
      --profile=${WORKDIR}/run${run}/prof.folded --profile-hz=997
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${BENCH} failed with exit code ${rc} "
      "(exit 1 = the expected fsync-stall anomaly did not fire)")
  endif()
endforeach()

# The anomaly timeline is sim-time only, so every dump and the embedded
# incident report must be byte-stable run to run.
file(GLOB dumps RELATIVE "${WORKDIR}/run1" "${WORKDIR}/run1/dump_*.json")
list(LENGTH dumps n_dumps)
if(n_dumps EQUAL 0)
  message(FATAL_ERROR "no anomaly dumps were written")
endif()
foreach(f ${dumps} metrics.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      "${WORKDIR}/run1/${f}" "${WORKDIR}/run2/${f}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "${f} differs between two runs with --seed=7: the incident pipeline "
      "is no longer deterministic")
  endif()
endforeach()

# Root-cause check on the last dump (its window has settled into the slow
# regime): fsync must explain >= 50% of the mean-latency growth. --window
# widens the anomaly window so it spans whole ops, not just the one stalled
# journal batch.
list(SORT dumps)
list(GET dumps -1 last_dump)
execute_process(
  COMMAND "${TRACESTATS}" --explain-dump=${WORKDIR}/run1/${last_dump}
    --window=120000000 --expect=fsync:0.5
  OUTPUT_VARIABLE report
  RESULT_VARIABLE rc)
message(STATUS "tracestats --explain-dump on ${last_dump}:\n${report}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "tracestats --explain-dump did not attribute >=50% of the anomaly to "
    "fsync (exit ${rc})")
endif()
