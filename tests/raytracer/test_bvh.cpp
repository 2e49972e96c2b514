/**
 * @file
 * Tests of the bounding-volume hierarchy (the paper's future-work
 * extension): equivalence with brute force, and the speedup in
 * intersection tests.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "raytracer/bvh.hh"
#include "raytracer/scenes.hh"
#include "sim/random.hh"

using namespace supmon;
using rt::Bvh;
using rt::HitRecord;
using rt::Ray;
using rt::Scene;
using rt::TraceCounters;
using rt::Vec3;

namespace
{
constexpr double inf = std::numeric_limits<double>::infinity();

Ray
randomRay(sim::Random &rng)
{
    for (;;) {
        const Vec3 dir{rng.uniformReal(-1, 1), rng.uniformReal(-1, 1),
                       rng.uniformReal(-1, 1)};
        if (dir.length() < 0.1)
            continue;
        const Vec3 origin{rng.uniformReal(-6, 6),
                          rng.uniformReal(0.05, 6),
                          rng.uniformReal(-6, 8)};
        return Ray{origin, dir.normalized()};
    }
}
} // namespace

// The scene name is a std::string, not a const char *: gtest prints a
// pointer parameter with its address, which ASLR moves on every run,
// and the test names derived from it would never repeat.
class BvhEquivalence
    : public ::testing::TestWithParam<std::pair<std::string, int>>
{
  protected:
    Scene
    makeScene() const
    {
        const std::string &name = GetParam().first;
        if (name == "moderate")
            return rt::moderateScene();
        if (name == "pyramid")
            return rt::fractalPyramid(
                static_cast<unsigned>(GetParam().second));
        return rt::sphereGrid(static_cast<unsigned>(GetParam().second));
    }
};

TEST_P(BvhEquivalence, ClosestHitMatchesBruteForce)
{
    const Scene scene = makeScene();
    const Bvh bvh(scene);
    sim::Random rng(7);
    for (int i = 0; i < 3000; ++i) {
        const Ray ray = randomRay(rng);
        TraceCounters c1;
        TraceCounters c2;
        HitRecord brute;
        HitRecord accel;
        const bool hit1 =
            scene.intersect(ray, 1e-9, inf, brute, c1);
        const bool hit2 = bvh.intersect(ray, 1e-9, inf, accel, c2);
        ASSERT_EQ(hit1, hit2);
        if (hit1) {
            EXPECT_NEAR(brute.t, accel.t, 1e-9);
            EXPECT_EQ(brute.primitiveId, accel.primitiveId);
        }
    }
}

TEST_P(BvhEquivalence, OcclusionMatchesBruteForce)
{
    const Scene scene = makeScene();
    const Bvh bvh(scene);
    sim::Random rng(13);
    for (int i = 0; i < 3000; ++i) {
        const Ray ray = randomRay(rng);
        TraceCounters c1;
        TraceCounters c2;
        EXPECT_EQ(scene.occluded(ray, 1e-4, 10.0, c1),
                  bvh.occluded(ray, 1e-4, 10.0, c2));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Scenes, BvhEquivalence,
    ::testing::Values(std::make_pair(std::string("moderate"), 0),
                      std::make_pair(std::string("pyramid"), 2),
                      std::make_pair(std::string("pyramid"), 3),
                      std::make_pair(std::string("grid"), 8)));

TEST(Bvh, ReducesPrimitiveTestsOnComplexScene)
{
    const Scene scene = rt::fractalPyramid(3); // 257 primitives
    const Bvh bvh(scene);
    sim::Random rng(5);
    TraceCounters brute;
    TraceCounters accel;
    for (int i = 0; i < 500; ++i) {
        const Ray ray = randomRay(rng);
        HitRecord rec;
        scene.intersect(ray, 1e-9, inf, rec, brute);
        bvh.intersect(ray, 1e-9, inf, rec, accel);
    }
    // The whole point of the hierarchy: far fewer primitive tests.
    EXPECT_LT(accel.primitiveTests, brute.primitiveTests / 4);
    EXPECT_GT(accel.bvhNodeTests, 0u);
}

TEST(Bvh, HandlesEmptyScene)
{
    Scene scene;
    const Bvh bvh(scene);
    EXPECT_EQ(bvh.nodeCount(), 0u);
    TraceCounters c;
    HitRecord rec;
    EXPECT_FALSE(bvh.intersect(Ray{{0, 0, 0}, {0, 0, -1}}, 1e-9, inf,
                               rec, c));
    EXPECT_FALSE(
        bvh.occluded(Ray{{0, 0, 0}, {0, 0, -1}}, 1e-9, inf, c));
}

TEST(Bvh, HandlesPlaneOnlyScene)
{
    Scene scene;
    scene.add(std::make_unique<rt::Plane>(Vec3{0, 0, 0}, Vec3{0, 1, 0},
                                          rt::matte({1, 1, 1})));
    const Bvh bvh(scene);
    TraceCounters c;
    HitRecord rec;
    EXPECT_TRUE(bvh.intersect(Ray{{0, 1, 0}, {0, -1, 0}}, 1e-9, inf,
                              rec, c));
}

TEST(Bvh, DepthIsLogarithmic)
{
    const Scene scene = rt::sphereGrid(16); // 257 primitives
    const Bvh bvh(scene, 2);
    // Median splits: depth ~ log2(256/2) + 1 = 8; allow slack.
    EXPECT_LE(bvh.depth(), 12u);
    EXPECT_GE(bvh.depth(), 6u);
}

TEST(Bvh, LeafSizeOneWorks)
{
    const Scene scene = rt::moderateScene();
    const Bvh bvh(scene, 1);
    sim::Random rng(3);
    for (int i = 0; i < 500; ++i) {
        const Ray ray = randomRay(rng);
        TraceCounters c1;
        TraceCounters c2;
        HitRecord a;
        HitRecord b;
        ASSERT_EQ(scene.intersect(ray, 1e-9, inf, a, c1),
                  bvh.intersect(ray, 1e-9, inf, b, c2));
    }
}
