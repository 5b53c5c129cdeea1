# Usage errors of micro_benchmark exit 2, never 0/1/3 or a crash.
#
#   cmake -DBIN=path/to/micro_benchmark -DSCRATCH=DIR \
#         -P micro_benchmark_usage.cmake
#
# Each case is one argument list, ','-separated. The unwritable --json
# path lives under a directory that does not exist, so the exp gate runs
# and then fails to write its artifact.
set(cases
    ""
    "nosuchgate"
    "exp,--reps,2"
    "sim,--reps,0"
    "exp,--threads,1,--json,${SCRATCH}/micro_benchmark_no_such_dir/BENCH.json")
foreach(args IN LISTS cases)
  string(REPLACE "," ";" argv "${args}")
  execute_process(COMMAND ${BIN} ${argv} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "micro_benchmark ${argv}: want exit 2, got ${rc}\n${err}")
  endif()
  message(STATUS "micro_benchmark ${argv}: exit 2")
endforeach()
