# Observer-identity gate: the observability exports are pure observers.
# Every run records spans into the tracer's bounded store and allocates
# trace ids, so turning on --trace, the count-mode profiler or the incident
# pipeline must not move a single simulated byte:
#   1. ablation_fastpath bare vs with --trace and --profile-every:
#      --baseline and --metrics-json byte-identical;
#   2. ablation_fastpath bare vs with --slo and --flight-dump-dir:
#      --baseline byte-identical (the metrics embed the incident report);
#   3. anomaly_slowfsync with slo_gate's args, without vs with --trace:
#      every anomaly dump and --metrics-json byte-identical.
#
# Invoked by ctest as:
#   cmake -DABLATION=<ablation_fastpath> -DSLOWFSYNC=<anomaly_slowfsync>
#         -DWORKDIR=<dir> -P observer_identity.cmake

if(NOT DEFINED ABLATION OR NOT DEFINED SLOWFSYNC OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DABLATION=... -DSLOWFSYNC=... "
    "-DWORKDIR=... -P observer_identity.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")

# Runs `bench` with `args` into ${WORKDIR}/${dir}; fails on a non-zero exit.
function(run_in dir bench)
  file(MAKE_DIRECTORY "${WORKDIR}/${dir}")
  execute_process(
    COMMAND "${bench}" ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}/${dir}"
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} ${ARGN} failed with exit code ${rc}")
  endif()
endfunction()

function(expect_same file a b why)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      "${WORKDIR}/${a}/${file}" "${WORKDIR}/${b}/${file}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${file} differs between ${a} and ${b}: ${why}")
  endif()
endfunction()

set(EXPORTS --baseline=baseline.json --metrics-json=metrics.json)

run_in(bare "${ABLATION}" ${EXPORTS})
run_in(traced "${ABLATION}" ${EXPORTS}
  --trace=trace.json --profile=prof.folded --profile-every=1000)
foreach(f baseline.json metrics.json)
  expect_same(${f} bare traced "--trace or the profiler perturbs the run")
endforeach()

run_in(incidents "${ABLATION}" ${EXPORTS}
  --slo=create:5000:0.01 --flight-dump-dir=.)
expect_same(baseline.json bare incidents
  "the incident pipeline perturbs the run")
file(GLOB dumps "${WORKDIR}/incidents/dump_*.json")
if(NOT dumps)
  message(FATAL_ERROR "--slo=create:5000:0.01 wrote no anomaly dump")
endif()

set(SLO_ARGS --seed=7 --files=120 --degrade-at-us=150000 --degrade-factor=15
    --slo=create:8ms:0.01 --expect-anomaly=fsync-stall
    --flight-dump-dir=. --metrics-json=metrics.json)
run_in(slow_bare "${SLOWFSYNC}" ${SLO_ARGS})
run_in(slow_traced "${SLOWFSYNC}" ${SLO_ARGS} --trace=trace.json)
file(GLOB dumps RELATIVE "${WORKDIR}/slow_bare"
  "${WORKDIR}/slow_bare/dump_*.json")
list(LENGTH dumps n_dumps)
if(n_dumps EQUAL 0)
  message(FATAL_ERROR "anomaly_slowfsync wrote no anomaly dump")
endif()
foreach(f ${dumps} metrics.json)
  expect_same(${f} slow_bare slow_traced "--trace changes what a dump holds")
endforeach()
message(STATUS "observer identity holds (${n_dumps} anomaly dumps compared)")
