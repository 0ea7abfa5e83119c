# Runs msc_run once and checks its exit code and output; driven by the
# msc_cli_test() entries in tests/CMakeLists.txt.
#   -DEXE=<msc_run>  -DARGS=<arguments joined by '|'>
#   -DRC=<expected exit code>  -DMATCH=<regex over stdout + stderr>
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "msc_run ${args}: exit ${rc}, expected ${RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "msc_run ${args}: output does not match '${MATCH}'\n${out}${err}")
endif()
