# Fails when a test source names a shared temp path: a literal "/tmp/...
# path, or a name built on ::testing::TempDir() or
# temp_directory_path(). Concurrent test processes would share such a
# file; tests name their scratch files through tests/temp_dir.hh, the
# one place allowed to ask for the system temp directory.
#
#   cmake -DTESTS_DIR=<repo>/tests -P check_temp_paths.cmake
cmake_minimum_required(VERSION 3.16)
file(GLOB_RECURSE sources "${TESTS_DIR}/*.cpp" "${TESTS_DIR}/*.hh")
list(REMOVE_ITEM sources "${TESTS_DIR}/temp_dir.hh")
set(offenders "")
foreach(source IN LISTS sources)
    file(STRINGS "${source}" hits
         REGEX "\"/tmp/|testing::TempDir|temp_directory_path")
    if(hits)
        list(APPEND offenders "${source}")
    endif()
endforeach()
if(offenders)
    list(JOIN offenders "\n  " report)
    message(FATAL_ERROR
        "shared temp paths in (use tests/temp_dir.hh):\n  ${report}")
endif()
