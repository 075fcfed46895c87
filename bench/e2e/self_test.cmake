# Checks that bench_e2e's verdict checks work: a run told to expect one wrong
# verdict must exit nonzero and report the failure in its result line.
execute_process(
  COMMAND ${BENCH} --workload orders_fresh --scale smoke --seconds 1 --self-test
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "self-test run exited 0:\n${out}")
endif()
if(NOT out MATCHES "\"correct\": false, \"attempted\": [0-9]+, \"failed\": [1-9]")
  message(FATAL_ERROR "self-test run did not report a failed check:\n${out}")
endif()
