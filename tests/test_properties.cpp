/**
 * @file test_properties.cpp
 * Parameterized property sweeps across dimensionalities, block sizes
 * and seeds: ghost-exchange exactness, conservation, structural
 * invariants, and counting/numeric equivalence — the broad-coverage
 * counterpart to the targeted unit tests.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "comm/boundary_buffers.hpp"
#include "comm/ghost_exchange.hpp"
#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "pkg/burgers_package.hpp"
#include "driver/tagger.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "util/random.hpp"

namespace vibe {
namespace {

struct World
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(2);
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    std::unique_ptr<BoundaryBufferCache> cache;
    std::unique_ptr<GhostExchange> exchange;

    World(int ndim, int mesh_nx, int block_nx, int levels,
          ExecMode mode = ExecMode::Execute)
    {
        ctx = std::make_unique<ExecContext>(mode, &profiler, &tracker);
        MeshConfig config;
        config.ndim = ndim;
        config.nx1 = config.nx2 = config.nx3 = mesh_nx;
        config.blockNx1 = config.blockNx2 = config.blockNx3 = block_nx;
        config.amrLevels = levels;
        mesh = std::make_unique<Mesh>(config, registry, *ctx);
        world = std::make_unique<RankWorld>(1);
        cache = std::make_unique<BoundaryBufferCache>(*mesh);
        exchange =
            std::make_unique<GhostExchange>(*mesh, *world, *cache);
    }

    void refineAt(const LogicalLocation& loc)
    {
        RefinementFlagMap flags;
        flags[loc] = RefinementFlag::Refine;
        mesh->applyTreeUpdate(mesh->updateTree(flags), 0);
        cache->rebuild();
    }
};

// --- Ghost exchange across dimensionalities ---

class DimSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DimSweep, UniformGhostExchangeExact)
{
    const int ndim = GetParam();
    World w(ndim, 16, 8, 1);
    const BlockShape s = w.mesh->config().blockShape();
    constexpr double two_pi = 6.283185307179586;

    auto field = [&](const BlockGeometry& g, int k, int j, int i) {
        double v = std::sin(two_pi * g.x1c(i - s.is()));
        if (ndim >= 2)
            v += std::cos(two_pi * g.x2c(j - s.js()));
        if (ndim >= 3)
            v += 0.5 * std::sin(two_pi * g.x3c(k - s.ks()));
        return v;
    };
    for (const auto& block : w.mesh->blocks())
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i)
                    block->cons()(0, k, j, i) =
                        field(block->geom(), k, j, i);

    w.exchange->exchangeBounds();

    for (const auto& block : w.mesh->blocks()) {
        const BlockGeometry& g = block->geom();
        for (int k = 0; k < s.nk(); ++k)
            for (int j = 0; j < s.nj(); ++j)
                for (int i = 0; i < s.ni(); ++i) {
                    const bool interior =
                        i >= s.is() && i <= s.ie() && j >= s.js() &&
                        j <= s.je() && k >= s.ks() && k <= s.ke();
                    if (interior)
                        continue;
                    ASSERT_NEAR(block->cons()(0, k, j, i),
                                field(g, k, j, i), 1e-12)
                        << ndim << "D " << block->loc().str();
                }
    }
}

TEST_P(DimSweep, NeighborCountsMatchDimension)
{
    const int ndim = GetParam();
    World w(ndim, 16, 8, 1, ExecMode::Count);
    const std::size_t expected = ndim == 1 ? 2u : ndim == 2 ? 8u : 26u;
    for (const auto& block : w.mesh->blocks())
        EXPECT_EQ(w.mesh->neighbors(block->gid()).size(), expected);
}

TEST_P(DimSweep, RefinedConstantFieldStaysConstant)
{
    const int ndim = GetParam();
    World w(ndim, 16, 8, 2);
    w.refineAt({0, 0, 0, 0});
    for (const auto& block : w.mesh->blocks())
        block->cons().fill(3.5);
    w.exchange->exchangeBounds();
    const BlockShape s = w.mesh->config().blockShape();
    for (const auto& block : w.mesh->blocks())
        for (int k = 0; k < s.nk(); ++k)
            for (int j = 0; j < s.nj(); ++j)
                for (int i = 0; i < s.ni(); ++i)
                    ASSERT_NEAR(block->cons()(0, k, j, i), 3.5, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Dims, DimSweep, ::testing::Values(1, 2, 3));

// --- Conservation across block-size / level combinations ---

class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ConservationSweep, MassConservedWithAmr)
{
    const auto [block_nx, levels] = GetParam();
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(2);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig mesh_config;
    const int mesh_nx = std::max(16, 2 * block_nx);
    mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = mesh_nx;
    mesh_config.blockNx1 = mesh_config.blockNx2 =
        mesh_config.blockNx3 = block_nx;
    mesh_config.amrLevels = levels;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(2);
    BurgersConfig bc;
    bc.numScalars = 2;
    bc.refineTol = 0.05;
    bc.derefineTol = 0.01;
    bc.ic = InitialCondition::GaussianBlob;
    BurgersPackage package(bc);
    GradientTagger tagger(package);
    DriverConfig config;
    config.ncycles = 6;
    config.derefineGap = 2;
    EvolutionDriver driver(mesh, package, world, tagger, config);
    driver.initialize();
    driver.run();
    const auto& history = driver.history();
    EXPECT_NEAR(history.back().mass, history.front().mass,
                1e-11 * std::fabs(history.front().mass) + 1e-14)
        << "block " << block_nx << " levels " << levels;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConservationSweep,
    ::testing::Values(std::tuple{8, 1}, std::tuple{8, 2},
                      std::tuple{16, 1}));

// --- Structural fuzzing: random refinement storms on the mesh ---

class MeshFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(MeshFuzz, RandomRestructuresKeepMeshConsistent)
{
    Rng rng(GetParam());
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(2);
    ExecContext ctx(ExecMode::Count, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 3;
    Mesh mesh(config, registry, ctx);
    BoundaryBufferCache cache(mesh);

    const std::size_t bytes_per_block =
        tracker.currentBytes() / mesh.numBlocks();

    for (int round = 0; round < 8; ++round) {
        RefinementFlagMap flags;
        for (const auto& block : mesh.blocks()) {
            const double p = rng.uniform();
            if (p < 0.10)
                flags[block->loc()] = RefinementFlag::Refine;
            else if (p < 0.40)
                flags[block->loc()] = RefinementFlag::Derefine;
        }
        mesh.applyTreeUpdate(mesh.updateTree(flags), round);
        cache.rebuild();

        ASSERT_TRUE(mesh.tree().checkBalance());
        ASSERT_EQ(mesh.numBlocks(), mesh.tree().leafCount());
        // Memory accounting stays exactly proportional to blocks.
        ASSERT_EQ(tracker.currentBytes(),
                  bytes_per_block * mesh.numBlocks());
        // Every channel endpoints at live blocks with sane level diff.
        for (const auto& ch : cache.bounds()) {
            ASSERT_NE(mesh.find(ch.sender->loc()), nullptr);
            ASSERT_NE(mesh.find(ch.receiver->loc()), nullptr);
            ASSERT_LE(std::abs(ch.levelDiff), 1);
            ASSERT_GT(ch.wireCells(), 0);
        }
        // Gid index is a permutation.
        for (std::size_t g = 0; g < mesh.numBlocks(); ++g)
            ASSERT_EQ(mesh.block(static_cast<int>(g)).gid(),
                      static_cast<int>(g));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

// --- Counting mode equivalences across configs ---

class ModeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ModeEquivalence, WireCellsIdenticalAcrossModes)
{
    const auto [block_nx, levels] = GetParam();
    World numeric(3, 16, block_nx, levels, ExecMode::Execute);
    World counting(3, 16, block_nx, levels, ExecMode::Count);
    if (levels > 1) {
        numeric.refineAt({0, 0, 0, 0});
        counting.refineAt({0, 0, 0, 0});
    }
    for (const auto& block : numeric.mesh->blocks())
        block->cons().fill(1.0);
    numeric.exchange->exchangeBounds();
    counting.exchange->exchangeBounds();
    EXPECT_EQ(numeric.exchange->lastWireCells(),
              counting.exchange->lastWireCells());
    EXPECT_EQ(numeric.profiler.kernelByName("SendBoundBufs").items,
              counting.profiler.kernelByName("SendBoundBufs").items);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModeEquivalence,
    ::testing::Values(std::tuple{8, 1}, std::tuple{8, 2}));

} // namespace
} // namespace vibe
