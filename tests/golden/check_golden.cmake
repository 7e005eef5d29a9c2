# Runs one bench or example binary and compares its standard output,
# byte for byte, with a committed golden. Fails when the binary exits
# non-zero or when any byte differs.
#
#   cmake -DBINARY=path "-DARGS=--smoke" -DGOLDEN=file -DOUTPUT=file
#         -P check_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                OUTPUT_FILE "${OUTPUT}"
                ERROR_VARIABLE stderr
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${ARGS} exited with ${status}\n"
                        "${stderr}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${GOLDEN}" "${OUTPUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND ${DIFF} -u "${GOLDEN}" "${OUTPUT}"
                        OUTPUT_VARIABLE delta)
    endif()
    message(FATAL_ERROR "${BINARY} ${ARGS}: output differs from "
                        "${GOLDEN}\n${delta}")
endif()
