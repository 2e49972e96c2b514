# Fails when a test source names a literal shared temp path ("/tmp/...).
# Concurrent test processes would share such a file; tests name their
# scratch files through tests/temp_dir.hh instead.
#
#   cmake -DTESTS_DIR=<repo>/tests -P check_temp_paths.cmake
cmake_minimum_required(VERSION 3.16)
file(GLOB_RECURSE sources "${TESTS_DIR}/*.cpp")
set(offenders "")
foreach(source IN LISTS sources)
    file(STRINGS "${source}" hits REGEX "\"/tmp/")
    if(hits)
        list(APPEND offenders "${source}")
    endif()
endforeach()
if(offenders)
    list(JOIN offenders "\n  " report)
    message(FATAL_ERROR
        "literal /tmp/ paths in (use tests/temp_dir.hh):\n  ${report}")
endif()
