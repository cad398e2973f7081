# golden_regen: run golden_gen into a scratch directory and require
# every file it writes to be byte-identical to the committed corpus,
# so no surviving writer can drift from tests/golden/.
#
#   cmake -DGOLDEN_GEN=<golden_gen> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch> -P golden_regen.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${GOLDEN_GEN}" "${WORK_DIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_gen failed: ${rc}")
endif()

file(GLOB written RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
list(LENGTH written count)
if(count EQUAL 0)
    message(FATAL_ERROR "golden_gen wrote no files")
endif()
foreach(name IN LISTS written)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORK_DIR}/${name}" "${GOLDEN_DIR}/${name}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${name} differs from tests/golden/${name}")
    endif()
endforeach()
message(STATUS "${count} regenerated files match tests/golden/")
