# Baseline-row identity gate: run one bench in --smoke mode and require
# every deterministic row of its BENCH_<name>.json to match the committed
# baseline byte for byte. Rows carrying a "gate" field hold measured
# booleans (wall-clock throughput), so they are left to the optrep_report
# gate and skipped here.
#
# Invoked from ctest:  cmake -DBENCH=<bench binary> -DNAME=<bench name>
#                            -DBASELINE=<baseline json> -DOUT=<scratch dir>
#                            -P bench_rows.cmake
if(NOT DEFINED BENCH OR NOT DEFINED NAME OR NOT DEFINED BASELINE OR NOT DEFINED OUT)
  message(FATAL_ERROR "pass -DBENCH, -DNAME, -DBASELINE and -DOUT")
endif()

file(MAKE_DIRECTORY ${OUT})
execute_process(COMMAND ${BENCH} --smoke --benchmark_filter=^$
                WORKING_DIRECTORY ${OUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --smoke failed (${rc}):\n${out}\n${err}")
endif()

function(deterministic_rows path var)
  # Row lines only: the header line ends in '[', which CMake would read as
  # an open list bracket.
  file(STRINGS ${path} lines REGEX "^\\{\".*\\},?$")
  list(FILTER lines EXCLUDE REGEX "\"gate\":")
  set(${var} "${lines}" PARENT_SCOPE)
endfunction()

deterministic_rows(${OUT}/BENCH_${NAME}.json got)
deterministic_rows(${BASELINE} want)
if(want STREQUAL "")
  message(FATAL_ERROR "${BASELINE} holds no deterministic rows")
endif()
if(NOT got STREQUAL want)
  string(REPLACE ";" "\n" got_text "${got}")
  string(REPLACE ";" "\n" want_text "${want}")
  message(FATAL_ERROR "BENCH_${NAME}.json rows differ from ${BASELINE}\n"
                      "got:\n${got_text}\nwant:\n${want_text}")
endif()
list(LENGTH got n)
message(STATUS "${n} BENCH_${NAME}.json rows match ${BASELINE}")
