/**
 * @file
 * Tests of the image buffer, completeness tracking, PPM output and
 * the camera.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "raytracer/camera.hh"
#include "raytracer/image.hh"
#include "temp_dir.hh"

using namespace supmon;
using rt::Camera;
using rt::Image;
using rt::Ray;
using rt::Vec3;

TEST(Image, Dimensions)
{
    Image img(10, 20);
    EXPECT_EQ(img.width(), 10u);
    EXPECT_EQ(img.height(), 20u);
    EXPECT_EQ(img.pixelCount(), 200u);
}

TEST(Image, SetAndGet)
{
    Image img(4, 4);
    img.set(1, 2, {0.1, 0.2, 0.3});
    EXPECT_DOUBLE_EQ(img.at(1, 2).y, 0.2);
    img.setLinear(2 * 4 + 1, {0.9, 0.8, 0.7});
    EXPECT_DOUBLE_EQ(img.at(1, 2).x, 0.9);
    EXPECT_DOUBLE_EQ(img.atLinear(9).x, 0.9);
}

TEST(Image, CompletenessTracking)
{
    Image img(3, 3);
    EXPECT_EQ(img.missingPixels(), 9u);
    for (unsigned i = 0; i < 9; ++i)
        img.setLinear(i, {0, 0, 0});
    EXPECT_EQ(img.missingPixels(), 0u);
    EXPECT_EQ(img.duplicatedPixels(), 0u);
    img.setLinear(4, {1, 1, 1});
    EXPECT_EQ(img.duplicatedPixels(), 1u);
}

TEST(Image, OutOfRangeLinearAccessThrows)
{
    Image img(2, 2);
    // GCC statically sees the intentional out-of-bounds index and
    // warns; the whole point is that .at() throws instead.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
    EXPECT_THROW(img.setLinear(4, {0, 0, 0}), std::out_of_range);
    EXPECT_THROW(img.atLinear(100), std::out_of_range);
#pragma GCC diagnostic pop
}

TEST(Image, WritesValidPpm)
{
    Image img(4, 2);
    for (unsigned i = 0; i < 8; ++i)
        img.setLinear(i, {0.5, 0.25, 1.0});
    const std::string path = test::tempPath("supmon_test_image.ppm");
    ASSERT_TRUE(img.writePpm(path));
    std::ifstream in(path, std::ios::binary);
    std::string magic;
    unsigned w = 0;
    unsigned h = 0;
    unsigned maxval = 0;
    in >> magic >> w >> h >> maxval;
    EXPECT_EQ(magic, "P6");
    EXPECT_EQ(w, 4u);
    EXPECT_EQ(h, 2u);
    EXPECT_EQ(maxval, 255u);
    in.get(); // single whitespace after header
    std::vector<char> data(3 * 8);
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(data.size()));
    std::remove(path.c_str());
}

TEST(Image, WriteToBadPathFails)
{
    Image img(1, 1);
    EXPECT_FALSE(img.writePpm("/nonexistent-dir/foo.ppm"));
}

TEST(Image, MeanLuminance)
{
    Image img(2, 1);
    img.setLinear(0, {1, 1, 1});
    img.setLinear(1, {0, 0, 0});
    EXPECT_DOUBLE_EQ(img.meanLuminance(), 0.5);
}

// ----------------------------------------------------------------------
// Camera.
// ----------------------------------------------------------------------

TEST(CameraTest, RaysAreUnitLength)
{
    Camera::Setup setup;
    const Camera cam(setup, 64, 48);
    for (unsigned y = 0; y < 48; y += 7) {
        for (unsigned x = 0; x < 64; x += 7) {
            const Ray r = cam.rayThrough(x, y);
            EXPECT_NEAR(r.dir.length(), 1.0, 1e-12);
            EXPECT_DOUBLE_EQ(r.origin.x, setup.eye.x);
        }
    }
}

TEST(CameraTest, CenterRayPointsAtLookAt)
{
    Camera::Setup setup;
    setup.eye = {0, 0, 5};
    setup.lookAt = {0, 0, 0};
    const Camera cam(setup, 64, 64);
    const Ray r = cam.rayThrough(31, 32, 1.0, 1.0);
    // Looking straight down -z.
    EXPECT_NEAR(r.dir.z, -1.0, 1e-6);
}

TEST(CameraTest, JitterMovesSampleInsidePixel)
{
    Camera::Setup setup;
    const Camera cam(setup, 32, 32);
    const Ray a = cam.rayThrough(10, 10, 0.0, 0.0);
    const Ray b = cam.rayThrough(10, 10, 0.99, 0.99);
    const Ray next = cam.rayThrough(11, 10, 0.0, 0.0);
    // Jitter changes the direction, but less than moving one pixel.
    const double jitter_delta = (a.dir - b.dir).length();
    const double pixel_delta = (a.dir - next.dir).length();
    EXPECT_GT(jitter_delta, 0.0);
    EXPECT_LT(jitter_delta, 2.0 * pixel_delta);
}

TEST(CameraTest, TopRowLooksHigherThanBottomRow)
{
    Camera::Setup setup;
    setup.eye = {0, 0, 5};
    setup.lookAt = {0, 0, 0};
    const Camera cam(setup, 32, 32);
    const Ray top = cam.rayThrough(16, 0);
    const Ray bottom = cam.rayThrough(16, 31);
    EXPECT_GT(top.dir.y, bottom.dir.y);
}

TEST(CameraTest, WiderFovSpansWiderAngles)
{
    Camera::Setup narrow;
    narrow.fovDegrees = 30.0;
    Camera::Setup wide;
    wide.fovDegrees = 90.0;
    const Camera cam_n(narrow, 32, 32);
    const Camera cam_w(wide, 32, 32);
    const double span_n =
        (cam_n.rayThrough(0, 16).dir - cam_n.rayThrough(31, 16).dir)
            .length();
    const double span_w =
        (cam_w.rayThrough(0, 16).dir - cam_w.rayThrough(31, 16).dir)
            .length();
    EXPECT_GT(span_w, span_n);
}
