# Determinism regression gate: run a bench twice with the same seed and
# every export armed, and require the exports to be byte-identical.
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench> -DWORKDIR=<dir> "-DEXTRA_ARGS=<flag;flag;...>"
#         -P run_twice.cmake
#
# EXTRA_ARGS (semicolon-separated) sizes the run small and carries the
# bench's own flags plus --timeline and an --slo, so the sim-time-series
# sampler and the incident engine (sliding windows, burn rates) fold into
# the byte-compared metrics export. This script adds the file exports:
# metrics, trace, baseline, flight-recorder dumps and the CPU profile.
#
# Any divergence means process entropy leaked into the simulation (exactly
# what the sim-time-source lint rule and the DUFS_AUDIT layer exist to keep
# out), so the test fails hard with the first differing file.

if(NOT DEFINED BENCH OR NOT DEFINED WORKDIR OR NOT DEFINED EXTRA_ARGS)
  message(FATAL_ERROR "usage: cmake -DBENCH=... -DWORKDIR=... "
    "-DEXTRA_ARGS=... -P run_twice.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# --profile rides along in wall-clock signal mode to prove profiling does
# not perturb the simulation (the byte-compared exports must stay
# identical). The folded profiles themselves are wall-clock sampled, hence
# nondeterministic BY DESIGN, and are deliberately NOT byte-compared — see
# the export-determinism table in DESIGN.md §14.
foreach(run 1 2)
  execute_process(
    COMMAND "${BENCH}" ${EXTRA_ARGS}
      --metrics-json=${WORKDIR}/metrics_${run}.json
      --trace=${WORKDIR}/trace_${run}.json
      --baseline=${WORKDIR}/baseline_${run}.json
      --flight-dump-dir=${WORKDIR}/dumps_${run}
      --profile=${WORKDIR}/prof_${run}.folded --profile-hz=997
      --profile-digest=${WORKDIR}/prof_${run}.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${BENCH} failed with exit code ${rc}")
  endif()
endforeach()

# A bench without baseline metrics writes no baseline; one that has them
# must write the same bytes both times. Dumps exist only if an anomaly fired.
set(compared metrics_1.json trace_1.json)
if(EXISTS "${WORKDIR}/baseline_1.json")
  list(APPEND compared baseline_1.json)
endif()
file(GLOB dumps RELATIVE "${WORKDIR}" "${WORKDIR}/dumps_1/*")
list(APPEND compared ${dumps})

foreach(f ${compared})
  string(REGEX REPLACE "_1([./])" "_2\\1" other "${f}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      "${WORKDIR}/${f}" "${WORKDIR}/${other}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "${f} differs between two runs with the same seed: the simulation is "
      "no longer deterministic")
  endif()
endforeach()
