# query_full_window: for every archive in the golden corpus, a query
# whose time window covers everything must write the same bytes as
# `fcctool decompress`, at one and at four threads. Indexed archives
# take the planned, streaming path; the others the full-decode path;
# both paths must be covered. Archives without per-packet data (the
# flow tier) must be refused by both tools.
#
#   cmake -DFCCTOOL=<fcctool> -DFCCQUERY=<fccquery>
#         -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<scratch>
#         -P query_full_window.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(GLOB archives RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.fcc")

set(indexed 0)
set(unindexed 0)
foreach(name IN LISTS archives)
    foreach(threads IN ITEMS 1 4)
        set(tag "${name} at ${threads} threads")
        set(want "${WORK_DIR}/decompress.tsh")
        set(got "${WORK_DIR}/query.tsh")
        file(REMOVE "${want}" "${got}")
        execute_process(
            COMMAND "${FCCTOOL}" --threads ${threads} decompress
                    "${GOLDEN_DIR}/${name}" "${want}"
            RESULT_VARIABLE decodeRc
            OUTPUT_QUIET ERROR_QUIET)
        execute_process(
            COMMAND "${FCCQUERY}" --threads ${threads}
                    --time 0:99999999999 "${GOLDEN_DIR}/${name}"
                    "${got}"
            RESULT_VARIABLE queryRc
            OUTPUT_VARIABLE queryOut
            ERROR_VARIABLE queryErr)
        if(NOT decodeRc EQUAL 0)
            if(queryRc EQUAL 0)
                message(FATAL_ERROR
                    "${tag}: fccquery answered what decompress refused")
            endif()
            continue()
        endif()
        if(NOT queryRc EQUAL 0)
            message(FATAL_ERROR "${tag}: fccquery failed: ${queryErr}")
        endif()
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E compare_files "${want}" "${got}"
            RESULT_VARIABLE differs)
        if(NOT differs EQUAL 0)
            message(FATAL_ERROR "${tag}: query output differs from "
                                "fcctool decompress")
        endif()
        if(queryOut MATCHES "index: +used")
            math(EXPR indexed "${indexed} + 1")
        else()
            math(EXPR unindexed "${unindexed} + 1")
        endif()
    endforeach()
endforeach()
if(indexed EQUAL 0 OR unindexed EQUAL 0)
    message(FATAL_ERROR "paths not both covered: ${indexed} indexed, "
                        "${unindexed} full-decode runs")
endif()
message(STATUS "${indexed} indexed and ${unindexed} full-decode runs "
               "match fcctool decompress")
