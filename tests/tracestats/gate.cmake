# End-to-end gate for the trace-analytics pipeline (the acceptance
# criterion of the tracestats tentpole):
#
#   1. run ablation_fastpath once with every export enabled,
#   2. tracestats must reproduce the headline numbers from the exports
#      alone — --check requires each op class's decomposition total to be
#      within 1% of the op.<class>_ns histogram sum,
#   3. running the analyzer twice must produce byte-identical reports,
#   4. --compare of the run's baseline against itself must pass with zero
#      regressions, and
#   5. --compare against a >5%-perturbed baseline must exit 1 and name the
#      perturbed metric, and
#   6. the paths may come before --compare, while a numeric flag that is
#      not wholly a number in range, or a baseline compared with a folded
#      profile, is an error (exit 2), never a verdict, and
#   7. --top=N prints at most N rows in both the --trace and the --folded
#      report (N=0 prints none), and a negative N is an error (exit 2).
#
# Invoked by ctest as:
#   cmake -DBENCH=<ablation_fastpath> -DTRACESTATS=<tracestats>
#         -DWORKDIR=<dir> -P gate.cmake

if(NOT DEFINED BENCH OR NOT DEFINED TRACESTATS OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "usage: cmake -DBENCH=... -DTRACESTATS=... -DWORKDIR=... -P gate.cmake")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")

# 1. One small observed run; the seed is arbitrary but fixed.
execute_process(
  COMMAND "${BENCH}" --seed=11 --width=8 --files=4 --rounds=2 --procs=8
    --items=4
    --metrics-json=${WORKDIR}/metrics.json
    --trace=${WORKDIR}/trace.json
    --timeline
    --baseline=${WORKDIR}/baseline.json
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ablation_fastpath failed with exit code ${rc}")
endif()

# 2+3. Analyze with the 1% cross-check, twice; byte-compare the reports.
foreach(run 1 2)
  execute_process(
    COMMAND "${TRACESTATS}"
      --trace=${WORKDIR}/trace.json
      --metrics=${WORKDIR}/metrics.json
      --check --json --out=${WORKDIR}/report_${run}.json
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "tracestats --check failed (exit ${rc}): the per-op decomposition "
      "does not reproduce the op latency histograms within 1%")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORKDIR}/report_1.json" "${WORKDIR}/report_2.json"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "tracestats reports differ across identical runs")
endif()

# 4. Self-comparison of the emitted baseline: zero regressions.
execute_process(
  COMMAND "${TRACESTATS}" --compare
    ${WORKDIR}/baseline.json ${WORKDIR}/baseline.json --tolerance=0.05
  OUTPUT_VARIABLE self_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "--compare of a baseline against itself reported regressions:\n"
    "${self_out}")
endif()
if(self_out MATCHES "REGRESSION")
  message(FATAL_ERROR "self-comparison printed a REGRESSION line")
endif()

# 5. Perturb one higher-is-better metric well past the 5% tolerance; the
# gate must fail and the report must name it.
file(READ "${WORKDIR}/baseline.json" base_json)
string(REGEX REPLACE
  "(\"create\\.gc_on\\.ops_per_s\":\\{\"value\":)[^,]*"
  "\\11" perturbed_json "${base_json}")
if(perturbed_json STREQUAL base_json)
  message(FATAL_ERROR
    "perturbation did not apply: create.gc_on.ops_per_s missing from "
    "baseline?\n${base_json}")
endif()
file(WRITE "${WORKDIR}/perturbed.json" "${perturbed_json}")
execute_process(
  COMMAND "${TRACESTATS}" --compare
    ${WORKDIR}/baseline.json ${WORKDIR}/perturbed.json --tolerance=0.05
  OUTPUT_VARIABLE pert_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "--compare against a perturbed baseline exited ${rc}, expected 1:\n"
    "${pert_out}")
endif()
if(NOT pert_out MATCHES "REGRESSION.*create\\.gc_on\\.ops_per_s")
  message(FATAL_ERROR
    "regression report does not name the perturbed metric:\n${pert_out}")
endif()

# 6. Flag order and input errors. "--tolerance=5%" once read as 500%, and
# the perturbed baseline above then compared OK.
execute_process(
  COMMAND "${TRACESTATS}"
    ${WORKDIR}/baseline.json ${WORKDIR}/baseline.json --compare
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tracestats OLD NEW --compare exited ${rc}, expected 0")
endif()
foreach(bad --tolerance=5% --tolerance=1 --tolerance=-0.1 --tolerance=
    --top=3x --window=10ms)
  execute_process(
    COMMAND "${TRACESTATS}" --compare
      ${WORKDIR}/baseline.json ${WORKDIR}/perturbed.json ${bad}
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--compare with ${bad} exited ${rc}, expected 2")
  endif()
endforeach()
file(WRITE "${WORKDIR}/profile.folded" "client0;create 3\n")
execute_process(
  COMMAND "${TRACESTATS}" --compare
    ${WORKDIR}/baseline.json ${WORKDIR}/profile.folded
  OUTPUT_QUIET ERROR_VARIABLE mixed_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--compare of a baseline with a folded profile exited ${rc}, expected "
    "2:\n${mixed_err}")
endif()

# 7. --top has one meaning in both modes.
file(WRITE "${WORKDIR}/top.folded" "client0;create 3\nclient0;stat 2\n")
foreach(mode trace folded)
  if(mode STREQUAL "trace")
    set(input --trace=${WORKDIR}/trace.json)
    set(row_key "{\"op\":")
  else()
    set(input --folded=${WORKDIR}/top.folded)
    set(row_key "{\"name\":")
  endif()
  foreach(top 0 1)
    execute_process(
      COMMAND "${TRACESTATS}" ${input} --top=${top} --json
      OUTPUT_VARIABLE top_out
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "--${mode} --top=${top} exited ${rc}")
    endif()
    # Each row is one object that opens with its key.
    string(REGEX MATCHALL "${row_key}" rows "${top_out}")
    list(LENGTH rows count)
    if(NOT count EQUAL top)
      message(FATAL_ERROR
        "--${mode} --top=${top} printed ${count} rows, expected ${top}:\n"
        "${top_out}")
    endif()
  endforeach()
  execute_process(
    COMMAND "${TRACESTATS}" ${input} --top=-1
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--${mode} --top=-1 exited ${rc}, expected 2")
  endif()
endforeach()
