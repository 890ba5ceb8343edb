# CPU-profile gate: run the engine self-bench under the deterministic
# count-mode profiler (fold every Nth dispatch — no signals, no wall clock)
# and hold its CPU distribution against the checked-in baseline
# (bench/baselines/PROF_micro_core.folded) with tracestats --compare, then
# show that the gate fails on a copy of the run with one frame's share
# raised past the tolerance.
#
# Count-mode sample counts follow the simulation's event order, so the
# folded export is byte-stable across runs AND machines: a drift here means
# the engine genuinely spends its dispatches differently than the baseline
# commit (or the baseline needs a deliberate regen — see EXPERIMENTS.md).
#
# Invoked by ctest (and the CI cpu-profile job) as:
#   cmake -DBENCH=<micro_core> -DTRACESTATS=<tracestats> -DBASELINE=<folded>
#         -DWORKDIR=<dir> -P cpu_profile_gate.cmake

if(NOT DEFINED BENCH OR NOT DEFINED TRACESTATS OR NOT DEFINED BASELINE
   OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "usage: cmake -DBENCH=... -DTRACESTATS=... -DBASELINE=... -DWORKDIR=... "
    "-P cpu_profile_gate.cmake")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")

# Pinned workload: MUST match the flags the baseline was generated with
# (EXPERIMENTS.md "regenerating the CPU baseline"). One rep — count-mode
# folds accumulate across reps, so the rep count changes the counts.
set(ARGS --selfbench --seed=1 --reps=1 --churn-events=200000
    --churn-timers=256 --coro-procs=64 --coro-rounds=200 --spawns=50000
    --profile-every=64)

foreach(run 1 2)
  execute_process(
    COMMAND "${BENCH}" ${ARGS} --profile=${WORKDIR}/prof_${run}.folded
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${BENCH} failed with exit code ${rc}")
  endif()
endforeach()

# Two runs must agree to the byte before the baseline comparison means
# anything.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORKDIR}/prof_1.folded" "${WORKDIR}/prof_2.folded"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
    "count-mode profile differs between two identical runs: the profiler "
    "or the event order is nondeterministic")
endif()

# 5 share-points of drift on any frame holding >= 1% fails the gate.
execute_process(
  COMMAND "${TRACESTATS}" --compare "${BASELINE}" "${WORKDIR}/prof_1.folded"
    --tolerance=0.05
  OUTPUT_VARIABLE report
  RESULT_VARIABLE rc)
message(STATUS "tracestats --compare vs baseline:\n${report}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "CPU distribution drifted from bench/baselines/PROF_micro_core.folded "
    "(exit ${rc}); if intentional, regenerate the baseline as described in "
    "EXPERIMENTS.md")
endif()

# The gate can fail: multiply one workload frame's sample count by ten
# (4.9% -> 34% self-share, far past 5 points) in a copy of the run; the
# compare must exit 1 and name that frame on a REGRESSION line.
file(READ "${WORKDIR}/prof_1.folded" fold)
string(REGEX REPLACE "(selfbench\\.coro [0-9]+)" "\\10" raised "${fold}")
if(raised STREQUAL fold)
  message(FATAL_ERROR
    "perturbation did not apply: no selfbench.coro stack in the fold?\n"
    "${fold}")
endif()
file(WRITE "${WORKDIR}/raised.folded" "${raised}")
execute_process(
  COMMAND "${TRACESTATS}" --compare "${WORKDIR}/prof_1.folded"
    "${WORKDIR}/raised.folded" --tolerance=0.05
  OUTPUT_VARIABLE raised_report
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "--compare against a fold with a raised frame exited ${rc}, expected "
    "1:\n${raised_report}")
endif()
if(NOT raised_report MATCHES "REGRESSION +selfbench\\.coro ")
  message(FATAL_ERROR
    "profile regression report does not name the raised frame:\n"
    "${raised_report}")
endif()
