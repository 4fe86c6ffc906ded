# Regenerates one set of the golden behaviour corpus and requires it
# byte-identical to the committed tests/golden/<set>.jsonl. A change
# that moves a simulated number fails here; tools/regen_golden.sh
# rewrites the corpus, and the diff must be explained in CHANGES.md.
# Invoked by ctest as:
#   cmake -DGOLDEN=<elag_golden> -DSET=<name> -DEXPECTED=<file>
#         -DWORK_DIR=<dir> -P golden.cmake
if(NOT GOLDEN OR NOT SET OR NOT EXPECTED OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DGOLDEN=<bin> -DSET=<name> "
                        "-DEXPECTED=<file> -DWORK_DIR=<dir> "
                        "-P golden.cmake")
endif()

set(actual "${WORK_DIR}/golden-${SET}.jsonl")
execute_process(
    COMMAND ${GOLDEN} --set=${SET}
    OUTPUT_FILE ${actual}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${GOLDEN} --set=${SET} exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${actual}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "golden set '${SET}' differs: diff ${EXPECTED} "
                        "${actual}")
endif()
message(STATUS "golden set '${SET}' is byte-identical")
