# End-to-end observability smoke test: runs ptran-estimate with --stats
# and --trace on a multi-function workload (default and two worker
# threads), checks that the trace file is valid JSON carrying the expected
# span names and that the stats tables reach stdout, and that the strict
# numeric-flag parsing rejects garbage with an actionable message. It also
# checks that the listings read the same accumulated totals as TIME/VAR
# when those come from a saved profile or a program database, and that a
# saved profile or database carries every total the session absorbed.
# Invoked by CTest as:
#
#   cmake -DESTIMATOR=<path> -DWORK_DIR=<dir> -P StatsSmoke.cmake

if(NOT ESTIMATOR OR NOT WORK_DIR)
  message(FATAL_ERROR "ESTIMATOR and WORK_DIR must be defined")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})

function(check_trace_and_stats LABEL TRACE_FILE STDOUT_FILE)
  # string(JSON) parses strictly, so this rejects malformed output the way
  # chrome://tracing would.
  file(READ ${TRACE_FILE} TRACE_JSON)
  string(JSON EVENT_COUNT ERROR_VARIABLE JSON_ERR
         LENGTH "${TRACE_JSON}" traceEvents)
  if(JSON_ERR)
    message(FATAL_ERROR "${LABEL}: trace is not valid JSON: ${JSON_ERR}")
  endif()
  if(EVENT_COUNT LESS 10)
    message(FATAL_ERROR
      "${LABEL}: suspiciously few trace events (${EVENT_COUNT})")
  endif()
  foreach(SPAN analysis.program analysis.cfg plan.counters profiled-run
          timeanalysis.run timeanalysis.wave timeanalysis.scc)
    if(NOT TRACE_JSON MATCHES "\"name\":\"${SPAN}\"")
      message(FATAL_ERROR "${LABEL}: trace is missing span '${SPAN}'")
    endif()
  endforeach()
  file(READ ${STDOUT_FILE} OUT)
  if(NOT OUT MATCHES "observability: timing spans")
    message(FATAL_ERROR "${LABEL}: --stats printed no span table")
  endif()
  if(NOT OUT MATCHES "observability: counters")
    message(FATAL_ERROR "${LABEL}: --stats printed no counter table")
  endif()
  if(NOT OUT MATCHES "recovery.calls")
    message(FATAL_ERROR "${LABEL}: recovery counters missing from --stats")
  endif()
endfunction()

# Default worker count.
execute_process(
  COMMAND ${ESTIMATOR} --workload=loops --runs=2 --stats
          --trace=${WORK_DIR}/default_trace.json
  OUTPUT_FILE ${WORK_DIR}/default.txt
  RESULT_VARIABLE DEFAULT_RC)
if(NOT DEFAULT_RC EQUAL 0)
  message(FATAL_ERROR "--stats run failed (rc=${DEFAULT_RC})")
endif()
check_trace_and_stats(default ${WORK_DIR}/default_trace.json
                      ${WORK_DIR}/default.txt)

# Two workers: must additionally report session.* and threadpool.*
# counters.
execute_process(
  COMMAND ${ESTIMATOR} --workload=loops --runs=2 --jobs=2 --stats
          --trace=${WORK_DIR}/jobs2_trace.json
  OUTPUT_FILE ${WORK_DIR}/jobs2.txt
  RESULT_VARIABLE JOBS2_RC)
if(NOT JOBS2_RC EQUAL 0)
  message(FATAL_ERROR "--jobs=2 --stats run failed (rc=${JOBS2_RC})")
endif()
check_trace_and_stats(jobs2 ${WORK_DIR}/jobs2_trace.json
                      ${WORK_DIR}/jobs2.txt)
file(READ ${WORK_DIR}/jobs2.txt JOBS2_OUT)
foreach(COUNTER session.runs session.queries threadpool.tasks_executed)
  if(NOT JOBS2_OUT MATCHES "${COUNTER}")
    message(FATAL_ERROR "--jobs=2 --stats is missing counter '${COUNTER}'")
  endif()
endforeach()

# An unwritable trace path must fail loudly, not drop the trace.
execute_process(
  COMMAND ${ESTIMATOR} --workload=simple --runs=1
          --trace=${WORK_DIR}/no-such-dir/trace.json
  OUTPUT_QUIET
  ERROR_VARIABLE TRACEFAIL_ERR
  RESULT_VARIABLE TRACEFAIL_RC)
if(TRACEFAIL_RC EQUAL 0)
  message(FATAL_ERROR "unwritable --trace path was silently ignored")
endif()
if(NOT TRACEFAIL_ERR MATCHES "trace")
  message(FATAL_ERROR
    "unwritable --trace diagnostic is not actionable: ${TRACEFAIL_ERR}")
endif()

# Regression: numeric flags reject what atoi silently mangled to 0.
foreach(BADFLAG --runs=ten --runs= --chunk=x,y --chunk=4
        --sampling=fast --jobs=two)
  execute_process(
    COMMAND ${ESTIMATOR} --workload=simple ${BADFLAG}
    OUTPUT_QUIET
    ERROR_VARIABLE BAD_ERR
    RESULT_VARIABLE BAD_RC)
  if(BAD_RC EQUAL 0)
    message(FATAL_ERROR "'${BADFLAG}' was silently accepted")
  endif()
  if(NOT BAD_ERR MATCHES "invalid value")
    message(FATAL_ERROR "'${BADFLAG}' diagnostic not actionable: ${BAD_ERR}")
  endif()
endforeach()

# --runs=0 is only meaningful when a saved profile supplies the data; on
# its own it must fail and point at --profile-in.
execute_process(
  COMMAND ${ESTIMATOR} --workload=simple --runs=0
  OUTPUT_QUIET
  ERROR_VARIABLE RUNS0_ERR
  RESULT_VARIABLE RUNS0_RC)
if(RUNS0_RC EQUAL 0)
  message(FATAL_ERROR "bare '--runs=0' was silently accepted")
endif()
if(NOT RUNS0_ERR MATCHES "profile-in")
  message(FATAL_ERROR
    "bare '--runs=0' diagnostic not actionable: ${RUNS0_ERR}")
endif()

# The report from the flat profile to the end: everything printed from
# the accumulated totals. Invocations that accumulate the same totals must
# print it byte for byte alike.
function(estimate_block OUT_VAR LABEL TEXT)
  string(FIND "${TEXT}" "flat profile" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "${LABEL}: no flat profile in the report: ${TEXT}")
  endif()
  string(SUBSTRING "${TEXT}" ${POS} -1 BLOCK)
  set(${OUT_VAR} "${BLOCK}" PARENT_SCOPE)
endfunction()

function(run_estimate OUT_VAR LABEL)
  execute_process(
    COMMAND ${ESTIMATOR} ${ARGN}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${LABEL} failed (rc=${RC}): ${ERR}")
  endif()
  set(${OUT_VAR} "${OUT}" PARENT_SCOPE)
endfunction()

# Durable-profile round trip: save from the profiled runs, then estimate
# with no new runs purely from the validated + ingested file. The flat
# profile, statement table and annotated listing must read the ingested
# totals, so the whole estimate block equals the saving run's.
set(LISTINGS --statements=simple --annotate=simple)
run_estimate(SAVE_OUT "--profile-out" --workload=simple --runs=2
             --profile-out=${WORK_DIR}/smoke.ptpf ${LISTINGS})
run_estimate(INGEST_OUT "--profile-in round trip" --workload=simple --runs=0
             --profile-in=${WORK_DIR}/smoke.ptpf --on-bad-profile=fail
             --profile-out=${WORK_DIR}/resaved.ptpf ${LISTINGS})
if(NOT INGEST_OUT MATCHES "ingested")
  message(FATAL_ERROR "--profile-in printed no ingest report: ${INGEST_OUT}")
endif()
estimate_block(SAVE_BLOCK "--profile-out" "${SAVE_OUT}")
estimate_block(INGEST_BLOCK "--profile-in" "${INGEST_OUT}")
if(NOT SAVE_BLOCK STREQUAL INGEST_BLOCK)
  message(FATAL_ERROR "--profile-in estimates differ from the saving run's:\n"
          "saved:\n${SAVE_BLOCK}\ningested:\n${INGEST_BLOCK}")
endif()
# An ingested profile is part of what the session saves: re-saving it with
# no runs of its own and ingesting that file again estimates the same.
run_estimate(REINGEST_OUT "--profile-in of a re-saved profile" --workload=simple
             --runs=0 --profile-in=${WORK_DIR}/resaved.ptpf
             --on-bad-profile=fail ${LISTINGS})
estimate_block(REINGEST_BLOCK "re-saved --profile-in" "${REINGEST_OUT}")
if(NOT REINGEST_BLOCK STREQUAL INGEST_BLOCK)
  message(FATAL_ERROR "a re-saved profile lost the ingested totals:\n"
          "first ingest:\n${INGEST_BLOCK}\nre-saved:\n${REINGEST_BLOCK}")
endif()

# Program-database round trip: two one-run invocations accumulate the
# same totals as one two-run invocation, and the second one's listings
# must read the database totals, not just its own run.
file(REMOVE ${WORK_DIR}/smoke.pdb)
foreach(I 1 2)
  run_estimate(PDB_OUT "--pdb run ${I}" --workload=simple --runs=1
               --annotate=simple --pdb=${WORK_DIR}/smoke.pdb)
endforeach()
if(NOT PDB_OUT MATCHES "covers 2 accumulation")
  message(FATAL_ERROR "--pdb did not accumulate two runs: ${PDB_OUT}")
endif()
run_estimate(RUNS2_OUT "--runs=2" --workload=simple --runs=2
             --annotate=simple)
estimate_block(PDB_BLOCK "--pdb" "${PDB_OUT}")
estimate_block(RUNS2_BLOCK "--runs=2" "${RUNS2_OUT}")
if(NOT PDB_BLOCK STREQUAL RUNS2_BLOCK)
  message(FATAL_ERROR "--pdb estimates differ from a two-run invocation's:\n"
          "--pdb:\n${PDB_BLOCK}\n--runs=2:\n${RUNS2_BLOCK}")
endif()

# A program database recorded against another version of the program
# starts afresh: --pdb on a.f and then on b.f (a.f with one more IF) must
# estimate exactly like a fresh run of b.f.
file(WRITE ${WORK_DIR}/a.f [=[      program main
      integer i, s
      s = 0
      do 10 i = 1, 6
        if (i .gt. 2) then
          s = s + i
        endif
 10   continue
      print s
      end
]=])
file(WRITE ${WORK_DIR}/b.f [=[      program main
      integer i, s
      s = 0
      do 10 i = 1, 6
        if (i .gt. 2) then
          s = s + i
        endif
        if (i .gt. 4) then
          s = s - 1
        endif
 10   continue
      print s
      end
]=])
file(REMOVE ${WORK_DIR}/shape.pdb)
run_estimate(SHAPE_A_OUT "--pdb on a.f" ${WORK_DIR}/a.f --runs=1
             --annotate=main --pdb=${WORK_DIR}/shape.pdb)
run_estimate(SHAPE_B_OUT "--pdb on b.f" ${WORK_DIR}/b.f --runs=1
             --annotate=main --pdb=${WORK_DIR}/shape.pdb)
if(NOT SHAPE_B_OUT MATCHES "covers 1 accumulation")
  message(FATAL_ERROR "--pdb kept a.f's runs for b.f: ${SHAPE_B_OUT}")
endif()
run_estimate(FRESH_B_OUT "fresh b.f" ${WORK_DIR}/b.f --runs=1 --annotate=main)
estimate_block(SHAPE_B_BLOCK "--pdb on b.f" "${SHAPE_B_OUT}")
estimate_block(FRESH_B_BLOCK "fresh b.f" "${FRESH_B_OUT}")
if(NOT SHAPE_B_BLOCK STREQUAL FRESH_B_BLOCK)
  message(FATAL_ERROR "--pdb after a change to the program differs from a "
          "fresh run:\n--pdb:\n${SHAPE_B_BLOCK}\nfresh:\n${FRESH_B_BLOCK}")
endif()

message(STATUS "observability smoke test passed")
