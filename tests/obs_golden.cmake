# Exported-document schema pin: one fixed faulted `optrep_cli state` run must
# write --trace-out (optrep.trace/v1), --dump-on-violation (optrep.flight/v1)
# and --causal-out (optrep.causal/v1) documents whose SHA-256 digests match
# tests/data/obs_golden.sha256. The run corrupts messages, so the flight
# recorder freezes after its ring has wrapped; any change to an event field,
# its order, the ring bookkeeping or the JSON rendering shows up here.
#
# Invoked from ctest:  cmake -DCLI=<optrep_cli binary> -DOUT=<scratch dir>
#                            -DDIGESTS=<digest file> -P obs_golden.cmake
# Regenerate the digests (only for an intended schema change) by rerunning the
# command below and `sha256sum trace.json flight.json causal.json`.
if(NOT DEFINED CLI OR NOT DEFINED OUT OR NOT DEFINED DIGESTS)
  message(FATAL_ERROR "pass -DCLI=<binary> -DOUT=<scratch dir> -DDIGESTS=<file>")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(COMMAND ${CLI} state --sites=6 --objects=4 --steps=100 --seed=7
                        --corrupt=0.004 --fault-seed=1
                        --trace-out=${OUT}/trace.json
                        --dump-on-violation=${OUT}/flight.json
                        --causal-out=${OUT}/causal.json
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CLI} state failed: ${rc}")
endif()

file(STRINGS ${DIGESTS} lines)
set(checked 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed digest line: ${line}")
  endif()
  set(want ${CMAKE_MATCH_1})
  set(name ${CMAKE_MATCH_2})
  if(NOT EXISTS ${OUT}/${name})
    message(FATAL_ERROR "run wrote no ${name}")
  endif()
  file(SHA256 ${OUT}/${name} got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${name} drifted: sha256 ${got}, expected ${want}")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()
if(NOT checked EQUAL 3)
  message(FATAL_ERROR "expected 3 digests in ${DIGESTS}, found ${checked}")
endif()
message(STATUS "trace, flight and causal documents match their golden digests")
