# ctest script: a short clean run must pass, and the same run with one MAP
# reply tampered (--tamper) must exit nonzero and report correct=false.
set(args --workload warm_small --seed 3 --seconds 2 --trace 0 --out-dir ${CMAKE_CURRENT_BINARY_DIR})

execute_process(COMMAND ${BENCH} ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"correct\": true")
  message(FATAL_ERROR "clean run failed (exit ${rc}):\n${out}")
endif()

execute_process(COMMAND ${BENCH} ${args} --tamper 3 RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "a tampered reply did not fail the run:\n${out}")
endif()
if(NOT out MATCHES "\"correct\": false, \"attempted\": [0-9]+, \"failed\": 1,")
  message(FATAL_ERROR "a tampered reply was not counted as one failure:\n${out}")
endif()
