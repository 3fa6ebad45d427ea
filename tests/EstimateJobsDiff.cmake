# Runs ptran-estimate end to end at --jobs=1 and --jobs=4 on the same
# workload and diffs stdout and stderr byte for byte (results must not
# depend on the worker count), then checks --version and the unknown-flag
# diagnostics. Invoked by CTest as:
#
#   cmake -DESTIMATOR=<path> -DWORK_DIR=<dir> -P EstimateJobsDiff.cmake

if(NOT ESTIMATOR OR NOT WORK_DIR)
  message(FATAL_ERROR "ESTIMATOR and WORK_DIR must be defined")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(FLAGS --workload=loops --runs=2 --loop-variance=profiled --sampling=2000
          --check --statements=k24 --chunk=16,8)

foreach(JOBS 1 4)
  execute_process(
    COMMAND ${ESTIMATOR} ${FLAGS} --jobs=${JOBS}
    OUTPUT_FILE ${WORK_DIR}/jobs${JOBS}.txt
    ERROR_FILE ${WORK_DIR}/jobs${JOBS}.err
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "--jobs=${JOBS} run failed with exit code ${RC}")
  endif()
endforeach()

foreach(STREAM txt err)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/jobs1.${STREAM} ${WORK_DIR}/jobs4.${STREAM}
    RESULT_VARIABLE DIFF_RC)
  if(NOT DIFF_RC EQUAL 0)
    message(FATAL_ERROR
      "--jobs=1 and --jobs=4 differ (${STREAM}); inspect ${WORK_DIR}")
  endif()
endforeach()
file(READ ${WORK_DIR}/jobs1.txt JOBS_OUT)
foreach(SECTION "sampling profile" "consistency check: 0 issue" "flat profile"
        "per-statement estimates for k24" "Kruskal-Weiss chunk advice")
  if(NOT JOBS_OUT MATCHES "${SECTION}")
    message(FATAL_ERROR "report is missing '${SECTION}'; inspect ${WORK_DIR}")
  endif()
endforeach()

execute_process(
  COMMAND ${ESTIMATOR} --version
  OUTPUT_VARIABLE VERSION_OUT
  RESULT_VARIABLE VERSION_RC)
if(NOT VERSION_RC EQUAL 0 OR NOT VERSION_OUT MATCHES "ptran-estimate ")
  message(FATAL_ERROR "--version failed: rc=${VERSION_RC} out=${VERSION_OUT}")
endif()

# A removed flag must be rejected like any other unknown option.
foreach(BADFLAG --no-such-flag --session)
  execute_process(
    COMMAND ${ESTIMATOR} ${BADFLAG}
    ERROR_VARIABLE BADFLAG_ERR
    RESULT_VARIABLE BADFLAG_RC)
  if(BADFLAG_RC EQUAL 0)
    message(FATAL_ERROR "unknown flag '${BADFLAG}' was silently accepted")
  endif()
  if(NOT BADFLAG_ERR MATCHES "unknown option '${BADFLAG}'")
    message(FATAL_ERROR
      "unknown-flag diagnostic is not actionable: ${BADFLAG_ERR}")
  endif()
endforeach()

message(STATUS "--jobs=1 and --jobs=4 reports are byte-identical")
