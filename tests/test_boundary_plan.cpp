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
 * - Direct rows: same-rank entries never become messages; each rank's
 *   direct table holds exactly its same-rank channels, in canonical
 *   channel order, split into kPlanPartitions contiguous ranges.
 * - Oracle: through random remeshes and rank relabels, every message
 *   directory and direct table equals a test-local build that sorts a
 *   copy of the cache by the canonical key (the plan itself does not
 *   sort: the cache is canonical).
 * - Equivalence: rank-sharded runs are bitwise identical to the
 *   classic run at the same thread count for both physics packages
 *   across 1/2/4 threads and 2/4 ranks, through mid-run remeshes and
 *   real storage migrations, and on a 3-level mesh whose ghosts
 *   prolongate across two level jumps. The per-channel oracle in
 *   test_fused_exchange.cpp pins the classic exchange itself.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
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

    PlanFixture(const MeshConfig& config, int nranks,
                ExecMode mode = ExecMode::Execute)
        : package(makePackage("advection")),
          registry(package->buildRegistry()),
          ctx(mode, &profiler, &tracker, makeExecutionSpace(1)),
          mesh(config, registry, ctx), world(nranks), cache(mesh),
          plan(mesh, cache, world)
    {
    }
};

// --- Lifecycle --------------------------------------------------------

TEST(BoundaryPlanLifecycle, HookInvalidatesOncePerRebuild)
{
    PlanFixture fx(shardMeshConfig(1, 1), 1);
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
    Mesh mesh(shardMeshConfig(1, 1), registry, ctx);
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
    PlanFixture fx(shardMeshConfig(1, 1), 1);
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
    // One block per rank: no same-rank neighbour, no direct rows.
    for (int rank = 0; rank < 4; ++rank)
        EXPECT_TRUE(fx.plan.direct(PlanPhase::Bounds, rank).entries.empty());
}

/** The cache's canonical channel key (receiver, sender, offset). */
auto
canonicalKey(const ChannelId& id)
{
    return std::make_tuple(id.receiver.level, id.receiver.lx3,
                           id.receiver.lx2, id.receiver.lx1,
                           id.sender.level, id.sender.lx3, id.sender.lx2,
                           id.sender.lx1, id.o1, id.o2, id.o3);
}

/**
 * The old plan build, test-local: sort a copy of the cache's channel
 * indices by the canonical key, bucket them by (src, dst) rank pair
 * and lay out offsets. Every message directory and direct table of the
 * (built) plan must equal it entry for entry.
 */
void
expectPlanMatchesSortedCacheOracle(const PlanFixture& fx)
{
    const int ncomp = fx.registry.ncompConserved();
    for (PlanPhase phase : {PlanPhase::Bounds, PlanPhase::Flux}) {
        const bool bounds = phase == PlanPhase::Bounds;
        const std::size_t nchannels =
            bounds ? fx.cache.bounds().size() : fx.cache.flux().size();
        auto id_of = [&](int c) -> const ChannelId& {
            return bounds ? fx.cache.bounds()[c].id : fx.cache.flux()[c].id;
        };
        auto ends = [&](int c) {
            return bounds ? std::make_pair(
                                fx.cache.bounds()[c].sender->rank(),
                                fx.cache.bounds()[c].receiver->rank())
                          : std::make_pair(
                                fx.cache.flux()[c].sender->rank(),
                                fx.cache.flux()[c].receiver->rank());
        };
        auto units = [&](int c) {
            return bounds ? fx.cache.bounds()[c].wireCells()
                          : fx.cache.flux()[c].wireFaces();
        };
        std::vector<int> sorted(nchannels);
        std::iota(sorted.begin(), sorted.end(), 0);
        std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
            return canonicalKey(id_of(a)) < canonicalKey(id_of(b));
        });
        std::map<std::pair<int, int>, std::vector<PlanEntry>> oracle;
        for (const int c : sorted) {
            auto& entries = oracle[ends(c)];
            PlanEntry entry;
            entry.channel = c;
            entry.offset = entries.empty() ? 0
                                           : entries.back().offset +
                                                 entries.back().count;
            entry.count = static_cast<std::size_t>(units(c)) * ncomp;
            entries.push_back(entry);
        }

        std::size_t nmessages = 0;
        for (const auto& [pair, entries] : oracle) {
            const auto [src, dst] = pair;
            const std::vector<PlanEntry>* got = nullptr;
            std::size_t doubles = 0;
            if (src == dst) {
                const PlanDirect& d = fx.plan.direct(phase, src);
                got = &d.entries;
                doubles = d.doubles;
            } else {
                const PlanMessage* msg = fx.plan.messageFor(phase, src, dst);
                ASSERT_NE(msg, nullptr)
                    << planPhaseName(phase) << " " << src << "->" << dst;
                got = &msg->entries;
                doubles = msg->doubles;
                ++nmessages;
            }
            ASSERT_EQ(got->size(), entries.size())
                << planPhaseName(phase) << " " << src << "->" << dst;
            for (std::size_t e = 0; e < entries.size(); ++e) {
                EXPECT_EQ((*got)[e].channel, entries[e].channel);
                EXPECT_EQ((*got)[e].offset, entries[e].offset);
                EXPECT_EQ((*got)[e].count, entries[e].count);
            }
            EXPECT_EQ(doubles,
                      entries.back().offset + entries.back().count);
        }
        EXPECT_EQ(fx.plan.messages(phase).size(), nmessages);
        for (int rank = 0; rank < fx.world.nranks(); ++rank)
            if (!oracle.count({rank, rank}))
                EXPECT_TRUE(fx.plan.direct(phase, rank).entries.empty());
    }
}

TEST(BoundaryPlanDirectory, SameRankEntriesAreDirectRowsInCanonicalOrder)
{
    // A 4 x 2 x 1 slab of blocks, non-periodic, split into two 2 x 2
    // halves by lx1, with one block per half refined so both ranks
    // hold bounds and flux direct rows and cross-rank messages.
    MeshConfig config;
    config.nx1 = 32;
    config.nx2 = 16;
    config.nx3 = 8;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    config.periodic = false;
    config.numRanks = 2;
    PlanFixture fx(config, 2);
    RefinementFlagMap flags;
    flags[{0, 1, 0, 0}] = RefinementFlag::Refine;
    flags[{0, 2, 0, 0}] = RefinementFlag::Refine;
    fx.mesh.applyTreeUpdate(fx.mesh.updateTree(flags), 0);
    for (const auto& block : fx.mesh.blocks())
        block->setRank(
            block->loc().lx1 < (block->loc().level == 0 ? 2 : 4) ? 0 : 1);
    fx.cache.rebuild();
    fx.plan.ensureBuilt();

    for (PlanPhase phase : {PlanPhase::Bounds, PlanPhase::Flux}) {
        const bool bounds = phase == PlanPhase::Bounds;
        const std::size_t nchannels =
            bounds ? fx.cache.bounds().size() : fx.cache.flux().size();
        auto ends = [&](int c) {
            return bounds ? std::make_pair(
                                fx.cache.bounds()[c].sender->rank(),
                                fx.cache.bounds()[c].receiver->rank())
                          : std::make_pair(
                                fx.cache.flux()[c].sender->rank(),
                                fx.cache.flux()[c].receiver->rank());
        };
        auto id_of = [&](int c) -> const ChannelId& {
            return bounds ? fx.cache.bounds()[c].id : fx.cache.flux()[c].id;
        };
        std::size_t direct_total = 0, message_total = 0;
        for (const PlanMessage& m : fx.plan.messages(phase)) {
            EXPECT_NE(m.src, m.dst) << planPhaseName(phase);
            message_total += m.entries.size();
        }
        for (int rank = 0; rank < 2; ++rank) {
            EXPECT_EQ(fx.plan.messageFor(phase, rank, rank), nullptr);
            const PlanDirect& d = fx.plan.direct(phase, rank);
            std::size_t expect = 0;
            for (std::size_t c = 0; c < nchannels; ++c)
                expect +=
                    ends(static_cast<int>(c)) == std::make_pair(rank, rank);
            EXPECT_EQ(d.entries.size(), expect)
                << planPhaseName(phase) << " rank " << rank;
            EXPECT_GT(d.entries.size(), 0u)
                << planPhaseName(phase) << " rank " << rank;
            direct_total += d.entries.size();
            std::size_t doubles = 0;
            for (std::size_t e = 0; e < d.entries.size(); ++e) {
                const int c = d.entries[e].channel;
                EXPECT_EQ(ends(c), std::make_pair(rank, rank));
                EXPECT_EQ(d.entries[e].offset, doubles);
                doubles += d.entries[e].count;
                if (e > 0)
                    EXPECT_LT(canonicalKey(id_of(d.entries[e - 1].channel)),
                              canonicalKey(id_of(c)));
            }
            EXPECT_EQ(d.doubles, doubles);
            EXPECT_EQ(d.bytes, static_cast<double>(doubles) * sizeof(double));
            // The plan-time split tiles the table in order.
            ASSERT_EQ(d.partStart.size(),
                      static_cast<std::size_t>(kPlanPartitions + 1));
            EXPECT_EQ(d.partStart.front(), 0);
            EXPECT_EQ(d.partStart.back(), static_cast<int>(d.entries.size()));
            for (int p = 0; p < kPlanPartitions; ++p)
                EXPECT_LE(d.partStart[p], d.partStart[p + 1]);
        }
        // Every channel is a direct row or a message entry, once.
        EXPECT_EQ(direct_total + message_total, nchannels);
    }
    expectPlanMatchesSortedCacheOracle(fx);
}

TEST(BoundaryPlanDirectory, TablesMatchSortedCacheOracle)
{
    // Seeded random refine/derefine sequences and rank relabels on a
    // 3-level mesh over 3 ranks: after every rebuild the plan, which
    // buckets the canonical cache without sorting, equals the oracle
    // that sorts a copy of it.
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 3;
    config.numRanks = 3;
    for (unsigned seed : {4u, 5u}) {
        PlanFixture fx(config, 3, ExecMode::Count);
        fx.cache.setRebuildHook([&] { fx.plan.invalidate(); });
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> u(0.0, 1.0);
        int deepest = 0;
        for (int round = 0; round < 5; ++round) {
            RefinementFlagMap flags;
            for (const auto& block : fx.mesh.blocks()) {
                const double p = u(rng);
                if (p < 0.15)
                    flags[block->loc()] = RefinementFlag::Refine;
                else if (p < 0.5)
                    flags[block->loc()] = RefinementFlag::Derefine;
            }
            fx.mesh.applyTreeUpdate(fx.mesh.updateTree(flags), round);
            deepest = std::max(deepest, fx.mesh.maxPresentLevel());
            for (const auto& block : fx.mesh.blocks())
                block->setRank(static_cast<int>(rng() % 3));
            fx.cache.rebuild();
            fx.plan.ensureBuilt();
            expectPlanMatchesSortedCacheOracle(fx);
        }
        EXPECT_EQ(deepest, 2) << "seed " << seed;
    }
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
            runClassic(package, threads, 1, 3);
        EXPECT_EQ(classic.maxLevel, 2) << "workload must reach level 2";
        EXPECT_GT(classic.remeshEvents, 0);
        expectBitwiseEqual(classic,
                           runTeam(package, 2, threads, 1, 3),
                           package + " 3-level @2 ranks x " +
                               std::to_string(threads) + " threads");
    }
}

INSTANTIATE_TEST_SUITE_P(Packages, FusedBoundaryEquivalence,
                         ::testing::Values("burgers", "advection"));

} // namespace
} // namespace vibe
