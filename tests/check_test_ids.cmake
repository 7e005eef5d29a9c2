# Fails when a test binary lists different test IDs in two runs. An ID
# that embeds process state (a pointer, uninitialised struct padding in
# gtest's byte dump of a test parameter) differs between any two
# discoveries, so two builds' test lists cannot be compared.
#
#   cmake -DBINARIES="a|b|c" -P check_test_ids.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
foreach(binary IN LISTS binaries)
    foreach(run 1 2)
        execute_process(COMMAND "${binary}" --gtest_list_tests
                        OUTPUT_VARIABLE listing_${run}
                        RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            message(FATAL_ERROR "${binary} --gtest_list_tests failed")
        endif()
    endforeach()
    if(NOT listing_1 STREQUAL listing_2)
        message(FATAL_ERROR
                "${binary}: test IDs differ between two listings:\n"
                "${listing_1}\n---\n${listing_2}")
    endif()
endforeach()
list(LENGTH binaries count)
message(STATUS "test IDs stable across two listings of ${count} binaries")
