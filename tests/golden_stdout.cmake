# Golden-output check for the deterministic bench and tool binaries:
#
#   cmake -DBIN=<program> [-DARGS=<a;b>] -DGOLDEN=<file> -P golden_stdout.cmake
#
# Runs BIN with ARGS and fails unless it exits 0 and its stdout equals
# GOLDEN byte for byte. On a mismatch the actual output is written to
# <golden name>.actual in the working directory, so it can be diffed
# against GOLDEN. A change that means to move a paper number edits
# the golden file and lists old -> new in CHANGES.md.

execute_process(COMMAND ${BIN} ${ARGS}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()

file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${out}")
    message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}; "
        "see ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
