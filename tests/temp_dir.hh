/**
 * @file
 * Hermetic scratch files for the test suites.
 *
 * ctest runs every discovered gtest case as its own process, many at
 * once under `ctest -j`, so a fixed file name shared by two cases is a
 * race: one case rewrites or deletes the file while the other still
 * reads it. TempDir gives each owner a fresh directory of its own, and
 * tempPath() names files in one such directory per test process.
 * tests/check_temp_paths.cmake keeps literal shared temp paths out of
 * the test sources.
 */

#ifndef TESTS_TEMP_DIR_HH
#define TESTS_TEMP_DIR_HH

#include <cstdlib>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace supmon
{
namespace test
{

/**
 * A directory unique to this object, created under the system temp
 * directory (TMPDIR is honoured) and removed with everything in it
 * when the object dies.
 */
class TempDir
{
  public:
    TempDir()
    {
        std::string pattern =
            (std::filesystem::temp_directory_path() /
             "supmon-test-XXXXXX")
                .string();
        if (!::mkdtemp(pattern.data()))
            throw std::runtime_error("mkdtemp failed: " + pattern);
        dir = pattern;
    }

    ~TempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &
    path() const
    {
        return dir;
    }

    /** @p name inside the directory; the pointer stays valid as long
     *  as this object. */
    const char *
    file(const std::string &name)
    {
        return files.emplace_back(dir + "/" + name).c_str();
    }

  private:
    std::string dir;
    /** Stable storage for the names handed out by file(). */
    std::deque<std::string> files;
};

/**
 * @p name inside this test process's own TempDir, created on first
 * use and removed when the process exits. The file itself need not
 * exist, so the path also serves as a guaranteed-missing file.
 */
inline const char *
tempPath(const std::string &name)
{
    static TempDir dir;
    return dir.file(name);
}

} // namespace test
} // namespace supmon

#endif // TESTS_TEMP_DIR_HH
