# Test-name stability check: lists every gtest case and fails if a name, or
# the parameter gtest prints beside it, is a byte dump ("N-byte object <..>").
# gtest falls back to such dumps for parameter types it cannot print, and
# they include struct padding, so the ctest names built from them change from
# build to build. Give the parameter type a PrintTo (and, if wanted, a name
# generator) instead. Run as:
#   cmake -DBIN=<gimbal_tests> -P tests/check_test_names.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED BIN)
  message(FATAL_ERROR "pass -DBIN=<path to gimbal_tests>")
endif()

execute_process(COMMAND ${BIN} --gtest_list_tests
  OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --gtest_list_tests exited with ${rc}")
endif()

string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" dumps "${listing}")
list(LENGTH dumps bad)
if(bad GREATER 0)
  list(JOIN dumps "\n" shown)
  message(FATAL_ERROR
    "byte-dump parameters in ${bad} test name(s):\n${shown}")
endif()
message(STATUS "test names: no byte-dump parameters")
