# Runs a bench twice with --trace-out, each run with its own fresh journal
# directory, and fails unless the two trace files are byte-identical: a
# bench trace is a function of the build and the flags, never of host time
# or scratch paths.
#
#   cmake -DBENCH=<bench binary> -DWORK=<scratch dir> -P trace_stability.cmake

foreach(run a b)
  set(dir "${WORK}/${run}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${BENCH}" --benchmark_list_tests=true --threads=2
            "--journal-dir=${dir}/journal" "--trace-out=${dir}/trace.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} run ${run} exited with ${rc}")
  endif()
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK}/a/trace.json" "${WORK}/b/trace.json"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "traces of two identical runs differ: ${WORK}/a/trace.json vs ${WORK}/b/trace.json")
endif()
file(REMOVE_RECURSE "${WORK}/a/journal" "${WORK}/b/journal")
