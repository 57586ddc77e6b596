# CLI argument validation gate. For optrep_cli: --threads must reject
# non-numeric, zero, negative, and trailing-garbage values with the typed
# usage error (exit 2), mirroring the --sample-every contract, and the
# `state --threads` combination checks must fire before any work runs. A
# final positive case proves a valid invocation still succeeds. The same
# strict-parse discipline (shared via tools/cli_util.h) is then pinned for
# optrep_serve and optrep_load when those binaries are passed in.
#
# Invoked from ctest:
#   cmake -DCLI=<optrep_cli> [-DSERVE=<optrep_serve>] [-DLOAD=<optrep_load>]
#         -P cli_args.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<binary>")
endif()

function(expect_rejected_by bin msg_fragment)
  execute_process(COMMAND ${bin} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, want usage exit 2")
  endif()
  string(FIND "${err}" "${msg_fragment}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGN}' stderr lacks \"${msg_fragment}\": ${err}")
  endif()
endfunction()

function(expect_rejected msg_fragment)
  expect_rejected_by(${CLI} "${msg_fragment}" ${ARGN})
endfunction()

set(threads_err "--threads must be a positive integer worker count")
foreach(bad 0 -1 -8 abc 4x 2.5 "")
  expect_rejected("${threads_err}" state --sites=4 --steps=20 "--threads=${bad}")
endforeach()

# Combination checks: the batch engine requires automatic resolution and
# forbids the sequential per-session instruments.
expect_rejected("requires automatic resolution"
                state --kind=crv --manual --sites=4 --steps=20 --threads=2)
expect_rejected("sequential per-session instruments"
                state --sites=4 --steps=20 --threads=2 --trace-out=unused.json)
expect_rejected("sequential per-session instruments"
                state --sites=4 --steps=20 --threads=2 --timeline-out=unused.json)

# Valid invocations still pass: boundary value 1 and a plain multi-thread run.
foreach(good 1 4)
  execute_process(COMMAND ${CLI} state --sites=4 --steps=50 "--threads=${good}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid 'state --threads=${good}' run exited ${rc}")
  endif()
endforeach()

# 'scenario' combination checks: the large-world engine has its own workload
# model, so per-step-system flags must be rejected up front, scenario-only
# flags must be rejected on other commands, and the single-writer algorithms
# must refuse multi-writer (and flash-crowd) configurations.
foreach(banned --kind=srv --manual --topology=ring --steps=10 --update-prob=0.5
        --threads=2 --seeds=4 --loss=0.1 --fault-seed=9 --trace-out=x.json
        --full-graph --overlap=0.2)
  expect_rejected("'scenario' does not accept" scenario --sites=16 ${banned})
endforeach()
foreach(banned --causal-out=x.json --dump-on-violation=x.json)
  expect_rejected("apply to 'state' and 'sweep' runs" scenario --sites=16 ${banned})
endforeach()
foreach(scen_only --algo=srv --mesh=ring --degree=2 --writers=4 --script=converge)
  expect_rejected("applies to 'scenario' runs" state --sites=4 --steps=20 ${scen_only})
endforeach()
expect_rejected("require --writers=1" scenario --sites=16 --algo=brv --writers=2)
expect_rejected("require --writers=1" scenario --sites=16 --algo=syncg --writers=3)
expect_rejected("single-writer" scenario --sites=64 --algo=syncg --script=flash-crowd)
expect_rejected("unknown algo" scenario --sites=16 --algo=xrv)
expect_rejected("unknown mesh" scenario --sites=16 --mesh=torus)
expect_rejected("unknown phase" scenario --sites=16 --script=warp:4)
expect_rejected("--degree must be a positive integer" scenario --sites=16 --degree=0)
expect_rejected("--writers must be a positive integer" scenario --sites=16 --writers=x)
# A mesh that falls apart (k=1 small-world at the default --degree) cannot
# converge and is refused before any round runs.
expect_rejected("mesh disconnected:" scenario --sites=4096 --algo=srv --writers=16
                --mesh=small-world --script=converge)

# A valid scenario run converges and exits 0 on every algorithm.
foreach(algo brv crv srv syncg)
  execute_process(COMMAND ${CLI} scenario --sites=64 "--algo=${algo}" --degree=2
                          --script=converge
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid 'scenario --algo=${algo}' run exited ${rc}")
  endif()
endforeach()
message(STATUS "scenario validation and combination checks hold")

# The serving tools share the strict parsers: same signed-first integer
# contract, plus the [0, 1] fraction check, the kind enum, and the
# exactly-one-target rule for the load generator. None of these cases bind
# a socket, so they are safe in a sandboxed ctest.
if(DEFINED SERVE)
  foreach(bad 0 -2 x 3q "")
    expect_rejected_by(${SERVE} "--workers must be a positive integer worker count"
                       "--workers=${bad}")
  endforeach()
  expect_rejected_by(${SERVE} "--port must be an integer in [0, 65535]" --port=65536)
  expect_rejected_by(${SERVE} "--port must be an integer in [0, 65535]" --port=-1)
  expect_rejected_by(${SERVE} "--kind must be brv, crv or srv" --kind=xrv)
  expect_rejected_by(${SERVE} "--capacity must be >= --replicas"
                     --replicas=8 --capacity=4)
  expect_rejected_by(${SERVE} "unknown option" --bogus)
  message(STATUS "optrep_serve strict-validation checks hold")
endif()

if(DEFINED LOAD)
  expect_rejected_by(${LOAD} "need exactly one of --port, --port-file or --loopback")
  expect_rejected_by(${LOAD} "need exactly one of --port, --port-file or --loopback"
                     --port=4000 --loopback)
  expect_rejected_by(${LOAD} "--port must be an integer in [1, 65535]" --port=0)
  foreach(bad -0.1 1.5 nan x "")
    expect_rejected_by(${LOAD} "--kill-prob must be in [0, 1]"
                       --loopback "--kill-prob=${bad}")
  endforeach()
  expect_rejected_by(${LOAD} "--clients must be a positive integer"
                     --loopback --clients=0)
  expect_rejected_by(${LOAD} "--sessions must be a positive integer"
                     --loopback --sessions=-3)
  expect_rejected_by(${LOAD} "--seed must be a non-negative integer"
                     --loopback --seed=-1)
  expect_rejected_by(${LOAD} "--capacity must be >= --replicas"
                     --loopback --replicas=8 --capacity=4)
  message(STATUS "optrep_load strict-validation checks hold")
endif()

message(STATUS "--threads validation and combination checks hold")
