# config_refusal: `fcctool compress` must exit non-zero, name the
# offending knob and write no archive for each out-of-range config
# value, while the same command with default knobs succeeds.
#
#   cmake -DFCCTOOL=<fcctool> -DSOURCE=<trace.tsh> -DWORK_DIR=<scratch>
#         -P config_refusal.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND "${FCCTOOL}" compress "${SOURCE}" "${WORK_DIR}/ok.fcc"
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "default compress failed: ${err}")
endif()

# Each case: flag, value, a regex the error must match.
set(cases
    "--threshold|-5|similarity threshold must be a percentage"
    "--threshold|nan|--threshold: 'nan' is not a finite number"
    "--threshold|abc|--threshold: 'abc' is not a finite number"
    "--cutoff|0|short/long split must be >= 1 packet")
foreach(case IN LISTS cases)
    string(REPLACE "|" ";" parts "${case}")
    list(GET parts 0 flag)
    list(GET parts 1 value)
    list(GET parts 2 expected)
    execute_process(
        COMMAND "${FCCTOOL}" ${flag} ${value} compress "${SOURCE}"
                "${WORK_DIR}/out.fcc"
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(rc EQUAL 0)
        message(FATAL_ERROR "${flag} ${value} was accepted")
    endif()
    if(NOT err MATCHES "${expected}")
        message(FATAL_ERROR "${flag} ${value}: unexpected error: ${err}")
    endif()
    if(EXISTS "${WORK_DIR}/out.fcc")
        message(FATAL_ERROR "${flag} ${value} wrote an archive")
    endif()
endforeach()
