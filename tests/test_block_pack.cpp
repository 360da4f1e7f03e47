/**
 * @file test_block_pack.cpp
 * MeshBlockPack fused launches: flattening coverage of the packed row
 * domain, rebuild-only-on-remesh semantics, and the headline
 * guarantee — pack-based interior compute is bitwise identical to
 * per-block launches on SerialSpace and ThreadPoolSpace (1/2/4
 * threads), including immediately after a remesh rebuilds the pack.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "pkg/burgers_package.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "exec/par_for.hpp"
#include "mesh/block_pack.hpp"

namespace vibe {
namespace {

// --- parForPack / parReducePack primitives ---------------------------

TEST(ParForPack, CoversPackedDomainExactlyOnce)
{
    for (int threads : {1, 4}) {
        ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                        makeExecutionSpace(threads));
        const int nb = 5, nn = 3, nk = 4, nj = 6, ni = 7;
        std::vector<std::atomic<int>> hits(nb * nn * nk * nj * ni);
        parForPackExec(ctx, nb, 0, nn - 1, 0, nk - 1, 0, nj - 1,
                       [&](int chunk, int b, int n, int k, int j) {
                           EXPECT_GE(chunk, 0);
                           EXPECT_LT(chunk, ctx.space().concurrency());
                           for (int i = 0; i < ni; ++i)
                               hits[(((b * nn + n) * nk + k) * nj + j) *
                                        ni +
                                    i]
                                   .fetch_add(1);
                       });
        for (const auto& h : hits)
            ASSERT_EQ(h.load(), 1) << threads << " threads";
    }
}

TEST(ParForPack, SerialVisitsPerBlockOrder)
{
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr);
    std::vector<int> order;
    parForPackExec(ctx, 3, 0, 0, 0, 1, 0, 1,
                   [&](int, int b, int, int k, int j) {
                       order.push_back((b * 2 + k) * 2 + j);
                   });
    // Blocks in pack order, rows in (k, j) order within each block —
    // exactly the per-block launch sequence.
    for (std::size_t idx = 0; idx < order.size(); ++idx)
        EXPECT_EQ(order[idx], static_cast<int>(idx));
}

TEST(ParForPack, RecordsOneLaunchWithPerRankItems)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    // Blocks 0-1 on rank 0, 2-4 on rank 1: runs of equal rank.
    const std::vector<int> ranks = {0, 0, 1, 1, 1};
    parForPack(ctx, "Phase", "kern", {2.0, 4.0}, ranks.data(), 5, 0, 0,
               0, 1, 0, 1, 0, 1,
               [](int, int, int, int, int) { FAIL(); });
    const auto stats = profiler.kernelByName("kern");
    EXPECT_EQ(stats.launches, 1u); // one fused launch
    EXPECT_DOUBLE_EQ(stats.items, 5.0 * 8.0);
    EXPECT_DOUBLE_EQ(stats.flops, 5.0 * 8.0 * 2.0);
    EXPECT_DOUBLE_EQ(stats.itemsByRank.at(0), 2.0 * 8.0);
    EXPECT_DOUBLE_EQ(stats.itemsByRank.at(1), 3.0 * 8.0);
}

TEST(ParReducePack, MinMatchesPerBlockSequence)
{
    const int nb = 6, nk = 3, nj = 4, ni = 5;
    auto value = [&](int b, int k, int j, int i) {
        return 1000.0 - static_cast<double>(((b * nk + k) * nj + j) * ni + i);
    };
    const std::vector<int> ranks(nb, 0);
    for (int threads : {1, 2, 4}) {
        ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                        makeExecutionSpace(threads));
        double fused = 1e30;
        parReducePack(ctx, "P", "min", {}, ReduceOp::Min, fused,
                      ranks.data(), nb, 0, nk - 1, 0, nj - 1, 0, ni - 1,
                      [&](int b, int k, int j, double& acc) {
                          for (int i = 0; i < ni; ++i)
                              acc = std::min(acc, value(b, k, j, i));
                      });
        // Per-block reduction sequence.
        double per_block = 1e30;
        for (int b = 0; b < nb; ++b) {
            double block_min = per_block;
            for (int k = 0; k < nk; ++k)
                for (int j = 0; j < nj; ++j)
                    for (int i = 0; i < ni; ++i)
                        block_min = std::min(block_min, value(b, k, j, i));
            per_block = std::min(per_block, block_min);
        }
        EXPECT_EQ(fused, per_block) << threads << " threads";
    }
}

// --- Pack rebuild semantics ------------------------------------------

struct PackMeshBits
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(4);
};

TEST(MeshBlockPack, ViewsTrackRestructure)
{
    PackMeshBits bits;
    ExecContext ctx(ExecMode::Execute, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    Mesh mesh(config, bits.registry, ctx);

    MeshBlockPack pack;
    pack.ensureBuilt(mesh);
    EXPECT_TRUE(pack.valid());
    EXPECT_EQ(pack.numBlocks(), static_cast<int>(mesh.numBlocks()));
    EXPECT_EQ(pack.rebuildCount(), 1u);
    // ensureBuilt is a no-op while valid.
    pack.ensureBuilt(mesh);
    EXPECT_EQ(pack.rebuildCount(), 1u);

    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
    pack.invalidate();
    pack.ensureBuilt(mesh);
    EXPECT_EQ(pack.rebuildCount(), 2u);
    ASSERT_EQ(pack.numBlocks(), static_cast<int>(mesh.numBlocks()));
    for (int b = 0; b < pack.numBlocks(); ++b) {
        EXPECT_EQ(pack.view(b).cons, &mesh.block(b).cons());
        EXPECT_EQ(pack.view(b).gid, b);
        EXPECT_EQ(pack.view(b).level, mesh.block(b).loc().level);
    }
}

// --- Headline equivalence: packed vs per-block stage path ------------

struct PackRun
{
    std::vector<std::string> locs;
    std::vector<std::vector<double>> cons;
    std::vector<std::vector<double>> derived;
    std::vector<double> dts;
    std::uint64_t packRebuilds = 0;
    std::int64_t remeshEvents = 0;
};

PackRun
runRipple(int num_threads, bool pack_interior, bool optimize_aux = false)
{
    PackRun out;
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(num_threads));
    auto registry = makeBurgersRegistry(4);

    MeshConfig mesh_config;
    mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = 16;
    mesh_config.blockNx1 = mesh_config.blockNx2 = mesh_config.blockNx3 =
        8;
    mesh_config.amrLevels = 2;
    mesh_config.numThreads = num_threads;
    mesh_config.packInterior = pack_interior;
    mesh_config.optimizeAuxMemory = optimize_aux;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(2);

    BurgersConfig burgers_config;
    burgers_config.numScalars = 4;
    BurgersPackage package(burgers_config);
    // Analytic moving shell, off-center so the sweep refines AND
    // derefines within a few cycles — the run must restructure
    // mid-flight to cover the pack invalidate/rebuild path. (A
    // center at 0.5^3 sits on the corner shared by every block and
    // freezes the structure.)
    SphericalWaveTagger::Params wave;
    wave.cx = wave.cy = wave.cz = 0.28;
    wave.rMin = 0.08;
    wave.rMax = 0.35;
    wave.speed = 40.0;
    SphericalWaveTagger tagger(wave);

    DriverConfig driver_config;
    driver_config.ncycles = 8;
    driver_config.derefineGap = 2;
    EvolutionDriver driver(mesh, package, world, tagger, driver_config);
    driver.initialize();
    driver.run();

    for (const auto& stats : driver.history()) {
        out.dts.push_back(stats.dt);
        out.remeshEvents += stats.refined + stats.derefined;
    }
    out.packRebuilds = driver.interiorPack().rebuildCount();
    for (const auto& block : mesh.blocks()) {
        out.locs.push_back(block->loc().str());
        const RealArray4& cons = block->cons();
        out.cons.emplace_back(cons.data(), cons.data() + cons.size());
        const RealArray4& derived = block->derived();
        out.derived.emplace_back(derived.data(),
                                 derived.data() + derived.size());
    }
    return out;
}

void
expectBitwiseEqual(const PackRun& a, const PackRun& b,
                   const std::string& what)
{
    ASSERT_EQ(a.locs, b.locs) << what;
    ASSERT_EQ(a.dts.size(), b.dts.size()) << what;
    for (std::size_t c = 0; c < a.dts.size(); ++c)
        EXPECT_EQ(a.dts[c], b.dts[c]) << what << ", cycle " << c;
    ASSERT_EQ(a.cons.size(), b.cons.size()) << what;
    for (std::size_t blk = 0; blk < a.cons.size(); ++blk) {
        ASSERT_EQ(a.cons[blk].size(), b.cons[blk].size());
        EXPECT_EQ(std::memcmp(a.cons[blk].data(), b.cons[blk].data(),
                              a.cons[blk].size() * sizeof(double)),
                  0)
            << what << ", block " << a.locs[blk];
        EXPECT_EQ(std::memcmp(a.derived[blk].data(),
                              b.derived[blk].data(),
                              a.derived[blk].size() * sizeof(double)),
                  0)
            << what << " (derived), block " << a.locs[blk];
    }
}

TEST(MeshBlockPack, PackedRunMatchesPerBlockBitwise)
{
    const PackRun per_block = runRipple(1, false);
    // The ripple workload remeshes during these cycles, so the packed
    // runs cover the invalidate-and-rebuild path mid-run.
    for (int threads : {1, 2, 4}) {
        const PackRun packed = runRipple(threads, true);
        EXPECT_GT(packed.remeshEvents, 0);
        expectBitwiseEqual(per_block, packed,
                           "packed @" + std::to_string(threads) +
                               " threads vs per-block serial");
    }
}

TEST(MeshBlockPack, RebuiltOnlyOnRemesh)
{
    const PackRun packed = runRipple(1, true);
    ASSERT_GT(packed.remeshEvents, 0);
    // One build at first use, one per cache rebuild (initialization
    // restructure iterations included) — but never one per launch:
    // far fewer rebuilds than the ~10 fused launches per cycle.
    EXPECT_LE(packed.packRebuilds,
              static_cast<std::uint64_t>(packed.remeshEvents) + 4u);
}

TEST(MeshBlockPack, SharedScratchFallbackMatchesBitwise)
{
    // optimizeAuxMemory lends one recon scratch to all blocks; the
    // fused pack flux launch (which reconstructs in per-chunk pencil
    // scratch, never in the lent arrays) must still match the
    // per-block graph path bitwise.
    const PackRun per_block = runRipple(1, false, true);
    for (int threads : {1, 4}) {
        const PackRun packed = runRipple(threads, true, true);
        expectBitwiseEqual(per_block, packed,
                           "shared-scratch packed @" +
                               std::to_string(threads) + " threads");
    }
}

} // namespace
} // namespace vibe
