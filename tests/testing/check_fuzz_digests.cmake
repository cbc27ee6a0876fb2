# Pins the simtest_fuzz digests of seeds 1-16 across commits: runs the
# fuzzer in three modes (each scenario's own shard count, --shards 0 and
# --shards 2) and fails unless the concatenated --verbose output equals
# fuzz_digests.txt byte for byte. A change that moves any recovered bit of
# any of those runs fails here.
#
#   cmake -DFUZZ=<simtest_fuzz> -DPINS=<fuzz_digests.txt> \
#         -P check_fuzz_digests.cmake
#
# Re-pin only a change that is meant to move the model (rerun the three
# modes into the pin file) and say why in CHANGES.md.
set(actual "")
foreach(mode "" "--shards 0" "--shards 2")
  separate_arguments(mode_args UNIX_COMMAND "${mode}")
  execute_process(
    COMMAND "${FUZZ}" --seeds 16 --base-seed 1 --verbose ${mode_args}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "simtest_fuzz ${mode} exited with ${rc}:\n${out}")
  endif()
  string(APPEND actual "${out}")
endforeach()

file(READ "${PINS}" expected)
if(NOT actual STREQUAL expected)
  set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/fuzz_digests.actual")
  file(WRITE "${actual_file}" "${actual}")
  execute_process(COMMAND diff -u "${PINS}" "${actual_file}")
  message(FATAL_ERROR "fuzz digests moved: ${PINS} vs ${actual_file}")
endif()
