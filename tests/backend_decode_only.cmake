# backend_decode_only: `fcctool --backend <name> compress` must exit
# non-zero and name the backend as decode-only, for each of the range
# tags (they have no writer; their archives still decode).
#
#   cmake -DFCCTOOL=<fcctool> -DWORK_DIR=<scratch>
#         -P backend_decode_only.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(name IN ITEMS range range-lanes)
    execute_process(
        COMMAND "${FCCTOOL}" --backend ${name} compress
                "${WORK_DIR}/in.tsh" "${WORK_DIR}/out.fcc"
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(rc EQUAL 0)
        message(FATAL_ERROR "--backend ${name} was accepted")
    endif()
    if(NOT err MATCHES "entropy backend ${name} is decode-only")
        message(FATAL_ERROR
            "--backend ${name}: no decode-only message: ${err}")
    endif()
    if(EXISTS "${WORK_DIR}/out.fcc")
        message(FATAL_ERROR "--backend ${name} wrote an archive")
    endif()
endforeach()
