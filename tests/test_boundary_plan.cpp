/**
 * @file test_boundary_plan.cpp
 * BoundaryPlan lifecycle and fused-path equivalence.
 *
 * - Lifecycle: the cache rebuild hook invalidates the plan exactly
 *   once per rebuild (refine/derefine/migration all route through the
 *   cache), rebuilds are lazy, and a driver run keeps the chained
 *   counters in lockstep.
 * - Staleness: a plan whose cache moved on without the chained hook is
 *   structurally unusable — every accessor throws.
 * - Elision: rank pairs that share no boundary get no PlanMessage at
 *   all; the offset directory of a real message tiles its payload
 *   exactly.
 * - Equivalence: rank-sharded runs are bitwise identical to the
 *   classic run at the same thread count for both physics packages
 *   across 1/2/4 threads and 2/4 ranks, through mid-run remeshes and
 *   real storage migrations, and on a 3-level mesh whose ghosts
 *   prolongate across two level jumps. The per-channel oracle in
 *   test_fused_exchange.cpp pins the classic exchange itself.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/boundary_plan.hpp"
#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "shard_harness.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

using namespace shard_test;

/** Mesh + cache + plan built directly (no driver). */
struct PlanFixture
{
    std::unique_ptr<PackageDescriptor> package;
    VariableRegistry registry;
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx;
    Mesh mesh;
    RankWorld world;
    BoundaryBufferCache cache;
    BoundaryPlan plan;

    explicit PlanFixture(const MeshConfig& config, int nranks)
        : package(makePackage("advection")),
          registry(package->buildRegistry()),
          ctx(ExecMode::Execute, &profiler, &tracker,
              makeExecutionSpace(1)),
          mesh(config, registry, ctx), world(nranks),
          cache(mesh, /*randomize_keys=*/false),
          plan(mesh, cache, world)
    {
    }
};

// --- Lifecycle --------------------------------------------------------

TEST(BoundaryPlanLifecycle, HookInvalidatesOncePerRebuild)
{
    PlanFixture fx(shardMeshConfig(1, 1, false), 1);
    fx.cache.setRebuildHook([&] { fx.plan.invalidate(); });

    fx.plan.ensureBuilt();
    EXPECT_TRUE(fx.plan.current());
    EXPECT_EQ(fx.plan.buildCount(), 1u);
    EXPECT_EQ(fx.plan.invalidateCount(), 0u);

    for (int i = 1; i <= 3; ++i) {
        fx.cache.rebuild();
        EXPECT_FALSE(fx.plan.current());
        EXPECT_EQ(fx.plan.invalidateCount(),
                  static_cast<std::uint64_t>(i));
    }
    // Rebuilds are lazy: three invalidations, still one build.
    EXPECT_EQ(fx.plan.buildCount(), 1u);
    fx.plan.ensureBuilt();
    EXPECT_TRUE(fx.plan.current());
    EXPECT_EQ(fx.plan.buildCount(), 2u);
    // ensureBuilt on a current plan is a no-op.
    fx.plan.ensureBuilt();
    EXPECT_EQ(fx.plan.buildCount(), 2u);
}

TEST(BoundaryPlanLifecycle, DriverKeepsPlanInLockstepThroughRemesh)
{
    // The shard workload refines, derefines, and migrates mid-run; the
    // driver chains plan invalidation into the cache hook, so after
    // the run the plan has been invalidated once per cache rebuild —
    // minus the cache's construction-time rebuild, which precedes the
    // hook installation.
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(1));
    Mesh mesh(shardMeshConfig(1, 1, false), registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    EvolutionDriver driver(mesh, *package, world, tagger,
                           shardDriverConfig());
    driver.initialize();
    driver.run();

    const BoundaryPlan& plan = driver.exchange().plan();
    const std::uint64_t rebuilds = driver.bufferCache().rebuildCount();
    EXPECT_GT(rebuilds, 1u) << "workload must remesh mid-run";
    EXPECT_EQ(plan.invalidateCount(), rebuilds - 1);
    EXPECT_TRUE(plan.current());
    EXPECT_GE(plan.buildCount(), 1u);
    EXPECT_LE(plan.buildCount(), plan.invalidateCount() + 1);
}

TEST(BoundaryPlanLifecycle, StalePlanIsStructurallyUnusable)
{
    PlanFixture fx(shardMeshConfig(1, 1, false), 1);
    // No hook chained: the cache moves on, the plan cannot notice
    // until an accessor checks the generation stamp.
    fx.plan.ensureBuilt();
    fx.cache.rebuild();
    EXPECT_THROW(fx.plan.messages(PlanPhase::Bounds), PanicError);
    EXPECT_THROW(fx.plan.sendIds(PlanPhase::Bounds, 0), PanicError);
    EXPECT_THROW(fx.plan.messageFor(PlanPhase::Flux, 0, 0), PanicError);
    // ...and unbuilt is just as unusable as stale.
    BoundaryPlan fresh(fx.mesh, fx.cache, fx.world);
    EXPECT_THROW(fresh.messages(PlanPhase::Bounds), PanicError);
    // ensureBuilt repairs the stale plan.
    fx.plan.ensureBuilt();
    EXPECT_NO_THROW(fx.plan.messages(PlanPhase::Bounds));
}

// --- Message elision and the offset directory -------------------------

TEST(BoundaryPlanDirectory, NonAdjacentRankPairsAreElided)
{
    // A 4-block chain along x (one block thick in y/z, non-periodic),
    // one block per rank: rank r touches only r-1 and r+1, so every
    // other pair must produce no PlanMessage at all.
    MeshConfig config;
    config.nx1 = 32;
    config.nx2 = config.nx3 = 8;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    config.periodic = false;
    config.numRanks = 4;
    PlanFixture fx(config, 4);
    ASSERT_EQ(fx.mesh.numBlocks(), 4u);
    for (const auto& block : fx.mesh.blocks())
        block->setRank(static_cast<int>(block->loc().lx1));
    fx.cache.rebuild();
    fx.plan.ensureBuilt();

    // Chain adjacency: 6 directed pairs, each with a message.
    EXPECT_EQ(fx.plan.messages(PlanPhase::Bounds).size(), 6u);
    EXPECT_NE(fx.plan.messageFor(PlanPhase::Bounds, 0, 1), nullptr);
    EXPECT_NE(fx.plan.messageFor(PlanPhase::Bounds, 1, 0), nullptr);
    EXPECT_NE(fx.plan.messageFor(PlanPhase::Bounds, 2, 3), nullptr);
    // Elided: no shared boundary (0-2, 0-3, wrap), no self pairs
    // (one block per rank), never an empty message on the wire.
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 0, 2), nullptr);
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 0, 3), nullptr);
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 3, 0), nullptr);
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 0, 0), nullptr);
    for (const PlanMessage& msg :
         fx.plan.messages(PlanPhase::Bounds)) {
        EXPECT_GT(msg.doubles, 0u);
        EXPECT_FALSE(msg.entries.empty());
        // The directory tiles the payload: cumulative offsets, total
        // doubles, and modeled bytes all agree.
        std::size_t expect_offset = 0;
        for (const PlanEntry& entry : msg.entries) {
            EXPECT_EQ(entry.offset, expect_offset);
            EXPECT_GT(entry.count, 0u);
            expect_offset += entry.count;
        }
        EXPECT_EQ(msg.doubles, expect_offset);
        EXPECT_EQ(msg.bytes,
                  static_cast<double>(msg.doubles) * sizeof(double));
    }
    // Uniform mesh: no fine-coarse faces, no flux messages anywhere.
    EXPECT_TRUE(fx.plan.messages(PlanPhase::Flux).empty());

    // send/recv indices partition the message list by endpoint.
    EXPECT_EQ(fx.plan.sendIds(PlanPhase::Bounds, 0).size(), 1u);
    EXPECT_EQ(fx.plan.recvIds(PlanPhase::Bounds, 0).size(), 1u);
    EXPECT_EQ(fx.plan.sendIds(PlanPhase::Bounds, 1).size(), 2u);
    EXPECT_EQ(fx.plan.recvIds(PlanPhase::Bounds, 2).size(), 2u);
}

// --- Rank-sharded vs classic bitwise equivalence ---------------------

class FusedBoundaryEquivalence
    : public ::testing::TestWithParam<const char*>
{
};

TEST_P(FusedBoundaryEquivalence, TeamMatchesClassicBitwise)
{
    const std::string package = GetParam();
    // The classic baseline is per thread count (mass partials are
    // chunk-ordered sums, deterministic for a fixed thread count); the
    // rank-sharded plan, with its cross-rank coalesced messages, must
    // add no difference on top of it.
    for (int threads : {1, 2, 4}) {
        const ShardRun classic = runClassic(package, threads);
        EXPECT_GT(classic.remeshEvents, 0)
            << "workload must remesh mid-run";
        for (int ranks : {2, 4}) {
            const ShardRun team = runTeam(package, ranks, threads);
            // The runs must exercise the real machinery: remesh-driven
            // plan rebuilds and true storage migration.
            EXPECT_GT(team.remeshEvents, 0);
            EXPECT_GT(team.movedBlocks, 0);
            expectBitwiseEqual(classic, team,
                               package + " @" + std::to_string(ranks) +
                                   " ranks x " +
                                   std::to_string(threads) +
                                   " threads vs classic");
        }
    }
}

TEST_P(FusedBoundaryEquivalence, ThreeLevelTeamMatchesClassicBitwise)
{
    // Three AMR levels: fine ghosts are prolongated across two level
    // jumps (0 -> 1 and 1 -> 2), all inside the partitioned set tasks,
    // and the 2-rank run must still match the classic one bit for bit.
    const std::string package = GetParam();
    for (int threads : {1, 2, 4}) {
        const ShardRun classic =
            runClassic(package, threads, 1, false, 3);
        EXPECT_EQ(classic.maxLevel, 2) << "workload must reach level 2";
        EXPECT_GT(classic.remeshEvents, 0);
        expectBitwiseEqual(classic,
                           runTeam(package, 2, threads, 1, false, 3),
                           package + " 3-level @2 ranks x " +
                               std::to_string(threads) + " threads");
    }
}

INSTANTIATE_TEST_SUITE_P(Packages, FusedBoundaryEquivalence,
                         ::testing::Values("burgers", "advection"));

} // namespace
} // namespace vibe
