/**
 * @file test_comm.cpp
 * Tests for the simulated MPI world, the boundary-buffer region
 * calculus, ghost-cell exchange correctness (same-level and across
 * refinement levels), flux-correction conservation, and a bitwise
 * oracle for coarse-to-fine ghost prolongation.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "comm/boundary_buffers.hpp"
#include "comm/ghost_exchange.hpp"
#include "comm/rank_world.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "pkg/burgers_package.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "mesh/prolong_restrict.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

// --- RankWorld ---

TEST(RankWorld, SendProbeReceive)
{
    RankWorld world(2);
    ChannelId ch{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                 ChannelKind::Bounds};
    EXPECT_FALSE(world.iprobe(ch));
    world.isend(ch, 0, 1, {1.0, 2.0}, 16.0);
    EXPECT_TRUE(world.iprobe(ch));
    auto msg = world.receive(ch);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload.size(), 2u);
    EXPECT_EQ(world.pendingCount(), 0u);
    EXPECT_FALSE(world.receive(ch).has_value());
}

TEST(RankWorld, LocalVsRemoteAccounting)
{
    RankWorld world(4);
    ChannelId a{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                ChannelKind::Bounds};
    ChannelId b{{0, 1, 0, 0}, {0, 0, 0, 0}, -1, 0, 0,
                ChannelKind::Bounds};
    world.isend(a, 1, 1, {}, 100.0);
    world.isend(b, 1, 3, {}, 50.0);
    const Traffic& t = world.traffic();
    EXPECT_EQ(t.localMessages, 1u);
    EXPECT_EQ(t.remoteMessages, 1u);
    EXPECT_DOUBLE_EQ(t.localBytes, 100.0);
    EXPECT_DOUBLE_EQ(t.remoteBytes, 50.0);
    EXPECT_EQ(t.totalMessages(), 2u);
}

TEST(RankWorld, ChannelsAreIndependentQueues)
{
    RankWorld world(1);
    ChannelId a{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                ChannelKind::Bounds};
    ChannelId flux = a;
    flux.kind = ChannelKind::Flux;
    world.isend(a, 0, 0, {1.0}, 8.0);
    world.isend(flux, 0, 0, {2.0}, 8.0);
    EXPECT_DOUBLE_EQ(world.receive(flux)->payload[0], 2.0);
    EXPECT_DOUBLE_EQ(world.receive(a)->payload[0], 1.0);
}

TEST(RankWorld, CollectivesCount)
{
    RankWorld world(8);
    world.allGather(64.0);
    world.allReduce(8.0);
    EXPECT_EQ(world.traffic().allGathers, 1u);
    EXPECT_EQ(world.traffic().allReduces, 1u);
    EXPECT_DOUBLE_EQ(world.traffic().collectiveBytes, 64.0 * 8 + 8.0);
}

TEST(RankWorld, RankRangeChecked)
{
    RankWorld world(2);
    ChannelId ch{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                 ChannelKind::Bounds};
    EXPECT_THROW(world.isend(ch, 0, 5, {}, 0.0), PanicError);
}

// --- Fixture building a mesh + exchange machinery ---

struct CommFixture
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(8);
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    std::unique_ptr<BoundaryBufferCache> cache;
    std::unique_ptr<GhostExchange> exchange;

    CommFixture(int mesh_nx, int block_nx, int levels, ExecMode mode,
                int nranks = 1, bool randomize = false,
                int num_threads = envNumThreads())
    {
        ctx = std::make_unique<ExecContext>(
            mode, &profiler, &tracker,
            makeExecutionSpace(num_threads));
        MeshConfig config;
        config.nx1 = config.nx2 = config.nx3 = mesh_nx;
        config.blockNx1 = config.blockNx2 = config.blockNx3 = block_nx;
        config.amrLevels = levels;
        mesh = std::make_unique<Mesh>(config, registry, *ctx);
        world = std::make_unique<RankWorld>(nranks);
        cache = std::make_unique<BoundaryBufferCache>(*mesh, randomize);
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

// --- Region calculus ---

TEST(BoundaryBuffers, UniformChannelCountsAndSizes)
{
    CommFixture f(32, 8, 1, ExecMode::Count);
    // 64 blocks x 26 directions.
    EXPECT_EQ(f.cache->bounds().size(), 64u * 26u);
    EXPECT_TRUE(f.cache->flux().empty());

    std::int64_t faces = 0, edges = 0, corners = 0;
    for (const auto& ch : f.cache->bounds()) {
        const int dims =
            std::abs(ch.o1) + std::abs(ch.o2) + std::abs(ch.o3);
        const std::int64_t cells = ch.wireCells();
        if (dims == 1) {
            EXPECT_EQ(cells, 4 * 8 * 8); // ng x nx x nx
            ++faces;
        } else if (dims == 2) {
            EXPECT_EQ(cells, 4 * 4 * 8);
            ++edges;
        } else {
            EXPECT_EQ(cells, 4 * 4 * 4);
            ++corners;
        }
    }
    EXPECT_EQ(faces, 64 * 6);
    EXPECT_EQ(edges, 64 * 12);
    EXPECT_EQ(corners, 64 * 8);
}

TEST(BoundaryBuffers, SameLevelRegionsCongruent)
{
    CommFixture f(32, 8, 1, ExecMode::Count);
    for (const auto& ch : f.cache->bounds()) {
        ASSERT_EQ(ch.levelDiff, 0);
        EXPECT_EQ(ch.send.cells(), ch.recv.cells());
        EXPECT_EQ(ch.send.i.count(), ch.recv.i.count());
        EXPECT_EQ(ch.send.j.count(), ch.recv.j.count());
        EXPECT_EQ(ch.send.k.count(), ch.recv.k.count());
    }
}

TEST(BoundaryBuffers, FineCoarseChannelsAppearAfterRefinement)
{
    CommFixture f(32, 8, 2, ExecMode::Count);
    f.refineAt({0, 1, 1, 1});
    int fine_to_coarse = 0, coarse_to_fine = 0;
    for (const auto& ch : f.cache->bounds()) {
        if (ch.levelDiff == 1)
            ++fine_to_coarse;
        else if (ch.levelDiff == -1)
            ++coarse_to_fine;
    }
    // Coarse receivers see touching children once per direction:
    // 6 faces x 4 + 12 edges x 2 + 8 corners x 1 = 56. Each of the 8
    // fine children sees coarse leaves through its 26 - 7 sibling
    // directions = 19, i.e. 152 — the counts are inherently
    // asymmetric, as in Parthenon's per-direction buffer geometry.
    EXPECT_EQ(fine_to_coarse, 56);
    EXPECT_EQ(coarse_to_fine, 152);
    // Flux channels: only faces, one per coarse-side face neighbor
    // entry = 4 children per face x 6 faces.
    EXPECT_EQ(f.cache->flux().size(), 24u);
}

TEST(BoundaryBuffers, RestrictedFaceWireSize)
{
    CommFixture f(32, 8, 2, ExecMode::Count);
    f.refineAt({0, 1, 1, 1});
    for (const auto& ch : f.cache->bounds()) {
        if (ch.levelDiff != 1)
            continue;
        const int dims =
            std::abs(ch.o1) + std::abs(ch.o2) + std::abs(ch.o3);
        if (dims == 1) {
            // Coarse ghost strip: ng deep x (nx/2)^2 transverse.
            EXPECT_EQ(ch.wireCells(), 4 * 4 * 4);
        }
    }
}

TEST(BoundaryBuffers, CoarseSlabIncludesPad)
{
    CommFixture f(32, 8, 2, ExecMode::Count);
    f.refineAt({0, 1, 1, 1});
    for (const auto& ch : f.cache->bounds()) {
        if (ch.levelDiff != -1)
            continue;
        const int dims =
            std::abs(ch.o1) + std::abs(ch.o2) + std::abs(ch.o3);
        if (dims == 1) {
            // Face: direction dim ng/2 coarse + 1 pad = 3; transverse
            // nx/2 + 1 pad = 5 (the fine child's half always abuts one
            // edge of the coarse sender, clamping the other pad).
            EXPECT_EQ(ch.send.cells(), 3 * 5 * 5) << ch.id.o1;
        }
    }
}

TEST(BoundaryBuffers, RandomizationPreservesChannelSet)
{
    CommFixture sorted(16, 8, 1, ExecMode::Count, 1, false);
    CommFixture shuffled(16, 8, 1, ExecMode::Count, 1, true);
    EXPECT_EQ(sorted.cache->bounds().size(),
              shuffled.cache->bounds().size());
    EXPECT_EQ(sorted.cache->totalWireCells(),
              shuffled.cache->totalWireCells());
}

TEST(BoundaryBuffers, RemoteAccountingFollowsRanks)
{
    CommFixture f(32, 8, 1, ExecMode::Count, 2);
    // All blocks on rank 0: nothing remote.
    EXPECT_EQ(f.cache->remoteChannelCount(), 0u);
    EXPECT_DOUBLE_EQ(f.cache->remoteWireBytes(), 0.0);
    // Move half the blocks to rank 1.
    for (const auto& block : f.mesh->blocks())
        if (block->gid() >= 32)
            block->setRank(1);
    EXPECT_GT(f.cache->remoteChannelCount(), 0u);
    EXPECT_GT(f.cache->remoteWireBytes(), 0.0);
}

// --- Ghost exchange numerical correctness ---

/** Smooth periodic test field. */
double
testField(int n, double x, double y, double z)
{
    constexpr double two_pi = 6.283185307179586;
    return std::sin(two_pi * x) * std::cos(two_pi * y) +
           0.5 * std::sin(two_pi * z) + 0.1 * n;
}

void
fillInterior(Mesh& mesh)
{
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    for (const auto& block : mesh.blocks()) {
        const BlockGeometry& g = block->geom();
        for (int n = 0; n < ncomp; ++n)
            for (int k = s.ks(); k <= s.ke(); ++k)
                for (int j = s.js(); j <= s.je(); ++j)
                    for (int i = s.is(); i <= s.ie(); ++i)
                        block->cons()(n, k, j, i) = testField(
                            n, g.x1c(i - s.is()), g.x2c(j - s.js()),
                            g.x3c(k - s.ks()));
    }
}

TEST(GhostExchange, SameLevelGhostsExact)
{
    CommFixture f(16, 8, 1, ExecMode::Execute);
    fillInterior(*f.mesh);
    f.exchange->exchangeBounds();

    const BlockShape s = f.mesh->config().blockShape();
    for (const auto& block : f.mesh->blocks()) {
        const BlockGeometry& g = block->geom();
        // Every ghost cell must hold the periodic field value at its
        // physical position.
        for (int n = 0; n < 3; ++n)
            for (int k = 0; k < s.nk(); ++k)
                for (int j = 0; j < s.nj(); ++j)
                    for (int i = 0; i < s.ni(); ++i) {
                        const bool interior =
                            i >= s.is() && i <= s.ie() && j >= s.js() &&
                            j <= s.je() && k >= s.ks() && k <= s.ke();
                        if (interior)
                            continue;
                        const double expect = testField(
                            n, g.x1c(i - s.is()), g.x2c(j - s.js()),
                            g.x3c(k - s.ks()));
                        ASSERT_NEAR(block->cons()(n, k, j, i), expect,
                                    1e-12)
                            << block->loc().str() << " ghost " << i
                            << "," << j << "," << k;
                    }
    }
}

TEST(GhostExchange, ConstantFieldExactAcrossLevels)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    for (const auto& block : f.mesh->blocks())
        block->cons().fill(7.25);
    f.exchange->exchangeBounds();
    const BlockShape s = f.mesh->config().blockShape();
    for (const auto& block : f.mesh->blocks())
        for (int k = 0; k < s.nk(); ++k)
            for (int j = 0; j < s.nj(); ++j)
                for (int i = 0; i < s.ni(); ++i)
                    ASSERT_NEAR(block->cons()(0, k, j, i), 7.25, 1e-13)
                        << block->loc().str();
}

TEST(GhostExchange, FineToCoarseGhostsAreRestrictedAverages)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    fillInterior(*f.mesh);
    f.exchange->exchangeBounds();

    // Coarse block (0;1,0,0) receives restricted data from fine
    // children of (0;0,0,0) across its -x face. The coarse ghost value
    // must equal the mean of the 8 covering fine cells.
    MeshBlock* coarse = f.mesh->find({0, 1, 0, 0});
    ASSERT_NE(coarse, nullptr);
    const BlockShape s = f.mesh->config().blockShape();
    // Fine neighbor touching the low-x face of `coarse` at y,z in the
    // first half: child (1;1,0,0) of (0;0,0,0).
    MeshBlock* fine = f.mesh->find({1, 1, 0, 0});
    ASSERT_NE(fine, nullptr);

    // Coarse ghost cell (is-1, js, ks) covers fine cells
    // (ie-1..ie, js..js+1, ks..ks+1).
    double sum = 0;
    for (int dk = 0; dk < 2; ++dk)
        for (int dj = 0; dj < 2; ++dj)
            for (int di = 0; di < 2; ++di)
                sum += fine->cons()(0, s.ks() + dk, s.js() + dj,
                                    s.ie() - 1 + di);
    EXPECT_NEAR(coarse->cons()(0, s.ks(), s.js(), s.is() - 1), sum / 8.0,
                1e-12);
}

TEST(GhostExchange, CoarseToFineGhostsLinearInBulk)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    // Linear field: limited prolongation reproduces it exactly where
    // the slab provides full slopes (inner ghost layers).
    const BlockShape s = f.mesh->config().blockShape();
    for (const auto& block : f.mesh->blocks()) {
        const BlockGeometry& g = block->geom();
        for (int k = 0; k < s.nk(); ++k)
            for (int j = 0; j < s.nj(); ++j)
                for (int i = 0; i < s.ni(); ++i)
                    block->cons()(0, k, j, i) = 2.0 * g.x1c(i - s.is()) +
                                                3.0 * g.x2c(j - s.js()) -
                                                g.x3c(k - s.ks());
    }
    f.exchange->exchangeBounds();

    // Fine block (1;0,0,0) receives coarse data across its +x face
    // from coarse neighbor... its +x neighbor at fine level is sibling
    // (1;1,0,0); instead check the fine block at the refined corner
    // whose -x ghosts come from the coarse wrap or +x from coarse
    // (0;1,0,0): fine child (1;1,1,1) has +x coarse neighbor (0;1,0,0).
    MeshBlock* fine = f.mesh->find({1, 1, 1, 1});
    ASSERT_NE(fine, nullptr);
    const BlockGeometry& g = fine->geom();
    // Inner-most ghost layer on +x face (full slopes available).
    const int i = s.ie() + 1;
    for (int k = s.ks() + 2; k <= s.ke() - 2; ++k)
        for (int j = s.js() + 2; j <= s.je() - 2; ++j) {
            const double expect = 2.0 * g.x1c(i - s.is()) +
                                  3.0 * g.x2c(j - s.js()) -
                                  g.x3c(k - s.ks());
            ASSERT_NEAR(fine->cons()(0, k, j, i), expect, 1e-11)
                << "ghost " << i << "," << j << "," << k;
        }
}

TEST(GhostExchange, CountingModeMatchesNumericWireCells)
{
    CommFixture numeric(16, 8, 2, ExecMode::Execute);
    CommFixture counting(16, 8, 2, ExecMode::Count);
    numeric.refineAt({0, 0, 0, 0});
    counting.refineAt({0, 0, 0, 0});
    fillInterior(*numeric.mesh);
    numeric.exchange->exchangeBounds();
    counting.exchange->exchangeBounds();
    EXPECT_EQ(numeric.exchange->lastWireCells(),
              counting.exchange->lastWireCells());
    EXPECT_EQ(numeric.cache->totalWireCells(),
              counting.cache->totalWireCells());
}

TEST(GhostExchange, NumericSmallBlockAmrIsRejected)
{
    // MeshBlockSize 4 with ng = 4 cannot fill coarse ghosts from one
    // fine neighbor; numeric mode must refuse (counting mode allows).
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(2);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 4;
    config.amrLevels = 2;
    Mesh mesh(config, registry, ctx);
    RankWorld world(1);
    BoundaryBufferCache cache(mesh, false);
    EXPECT_THROW(GhostExchange(mesh, world, cache), FatalError);
}

TEST(FluxCorrection, CoarseFaceFluxBecomesFineAverage)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    const BlockShape s = f.mesh->config().blockShape();
    const int ncomp = f.registry.ncompConserved();

    // Give every block a distinctive flux field.
    for (const auto& block : f.mesh->blocks())
        for (int d = 0; d < 3; ++d)
            block->flux(d).fill(block->loc().level == 1 ? 2.0 : 0.5);

    f.exchange->exchangeFluxCorrections();

    // Coarse (0;1,0,0) shares its -x face with fine children: its
    // x-flux at i=is on that face must now be the fine average (2.0).
    MeshBlock* coarse = f.mesh->find({0, 1, 0, 0});
    ASSERT_NE(coarse, nullptr);
    for (int n = 0; n < ncomp; ++n) {
        EXPECT_NEAR(coarse->flux(0)(n, s.ks(), s.js(), s.is()), 2.0,
                    1e-13);
        // Interior faces unchanged.
        EXPECT_NEAR(coarse->flux(0)(n, s.ks(), s.js(), s.is() + 1), 0.5,
                    1e-13);
    }
}

/** Run the three steps of a fused send of `phase`, serially. */
void
sendFused(GhostExchange& exchange, PlanPhase phase)
{
    exchange.beginFusedSend(phase);
    for (int p = 0; p < GhostExchange::kFusedPartitions; ++p)
        exchange.packFusedPartition(phase, p);
    exchange.endFusedSend(phase);
}

TEST(GhostExchange, AbandonedCycleDoesNotLeavePhantomMessages)
{
    // Regression: per-cycle state (wire counter, undelivered mailbox
    // entries) is reset at the top of StartReceiveBoundBufs. Abandon a
    // cycle right after its sends —
    // exactly the state an exception thrown mid-cycle leaves behind —
    // and the next full exchange must neither wait on phantom
    // messages nor deliver the stale ones.
    CommFixture f(16, 8, 1, ExecMode::Execute);
    fillInterior(*f.mesh);

    f.exchange->plan().ensureBuilt();
    f.exchange->startReceiveBoundBufs();
    sendFused(*f.exchange, PlanPhase::Bounds);
    ASSERT_GT(f.world->pendingCount(), 0u); // the abandoned deliveries

    // Perturb the field so stale buffers are distinguishable from
    // freshly packed ones.
    for (const auto& block : f.mesh->blocks())
        block->cons()(0, 6, 6, 6) += 1.0;

    f.exchange->exchangeBounds();
    EXPECT_EQ(f.world->pendingCount(), 0u);
    EXPECT_EQ(f.exchange->lastWireCells(), f.cache->totalWireCells());

    // Ghosts must reflect the *current* field: interior index (6,6,6)
    // of each block lands in some neighbor's ghost region, and a stale
    // buffer would carry the unperturbed value there.
    const BlockShape s = f.mesh->config().blockShape();
    bool checked = false;
    for (const auto& ch : f.cache->bounds()) {
        if (ch.o1 != 1 || ch.o2 != 0 || ch.o3 != 0)
            continue;
        // Same-level +x face channel: sender cells [is, is+ng-1] map
        // onto receiver ghosts [ie+1, ie+ng]; sender (6,6,6) is inside
        // the send box only for ng >= 3, so check a cell that is:
        // sender interior (is+2, 6, 6) -> receiver ghost (ie+3, 6, 6).
        const double sent = ch.sender->cons()(0, 6, 6, s.is() + 2);
        const double got = ch.receiver->cons()(0, 6, 6, s.ie() + 3);
        ASSERT_NEAR(got, sent, 0.0) << ch.receiver->loc().str();
        checked = true;
    }
    EXPECT_TRUE(checked);
}

TEST(FluxCorrection, ConservationHoldsOnSerialAndThreadPoolSpaces)
{
    // The coarse face flux must equal the restricted fine-flux average
    // across a 2-level mesh after exchangeFluxCorrections(), with real
    // solver fluxes (not synthetic fills), on both execution backends.
    for (int threads : {1, 4}) {
        CommFixture f(16, 8, 2, ExecMode::Execute, 1, false, threads);
        f.refineAt({0, 0, 0, 0});
        fillInterior(*f.mesh);
        f.exchange->exchangeBounds();

        BurgersConfig bc;
        bc.numScalars = 8; // matches the fixture registry
        BurgersPackage package(bc);
        package.calculateFluxes(*f.mesh);

        // Regression: abandon a flux-correction send mid-cycle; the
        // next cycle's reset must also drop stale *flux* messages, not
        // just bounds buffers.
        f.exchange->plan().ensureBuilt();
        sendFused(*f.exchange, PlanPhase::Flux);
        ASSERT_GT(f.world->pendingCount(), 0u);
        f.exchange->startReceiveBoundBufs();
        ASSERT_EQ(f.world->pendingCount(), 0u);

        f.exchange->exchangeFluxCorrections();
        EXPECT_EQ(f.world->pendingCount(), 0u);

        const BlockShape s = f.mesh->config().blockShape();
        const int ndim = s.ndim;
        const int ncomp = f.registry.ncompConserved();
        const int lo[3] = {s.is(), s.js(), s.ks()};
        const int nfine = 1 << (ndim - 1);
        ASSERT_FALSE(f.cache->flux().empty());
        for (const auto& ch : f.cache->flux()) {
            const RealArray4& fine = ch.sender->flux(ch.dir);
            const RealArray4& coarse = ch.receiver->flux(ch.dir);
            for (int n = 0; n < ncomp; ++n)
                for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi;
                     ++K)
                    for (int J = ch.recvFaces.j.lo;
                         J <= ch.recvFaces.j.hi; ++J)
                        for (int I = ch.recvFaces.i.lo;
                             I <= ch.recvFaces.i.hi; ++I) {
                            const int cidx[3] = {I, J, K};
                            int fidx[3] = {0, 0, 0};
                            for (int d = 0; d < 3; ++d) {
                                if (d == ch.dir)
                                    fidx[d] = ch.sendFaceIdx;
                                else if (d < ndim)
                                    fidx[d] = lo[d] +
                                              2 * (cidx[d] - lo[d]) -
                                              ch.base2[d];
                            }
                            double sum = 0.0;
                            for (int dk = 0;
                                 dk <=
                                 (ndim >= 3 && ch.dir != 2 ? 1 : 0);
                                 ++dk)
                                for (int dj = 0;
                                     dj <= (ndim >= 2 && ch.dir != 1
                                                ? 1
                                                : 0);
                                     ++dj)
                                    for (int di = 0;
                                         di <= (ch.dir != 0 ? 1 : 0);
                                         ++di)
                                        sum += fine(n, fidx[2] + dk,
                                                    fidx[1] + dj,
                                                    fidx[0] + di);
                            ASSERT_NEAR(coarse(n, K, J, I), sum / nfine,
                                        1e-13)
                                << threads << " threads, dir " << ch.dir
                                << " face (" << I << "," << J << ","
                                << K << ")";
                        }
        }
    }
}

// --- Prolongation oracle ---

/**
 * Reference coarse -> fine ghost prolongation: the per-fine-cell
 * formulation, which looks up all seven coarse stencil values of every
 * fine cell through coarse_at (slab, else restriction of the
 * receiver's interior, else unavailable). GhostExchange's coarse-box
 * implementation must reproduce it bit for bit.
 */
void
referenceProlongate(const BoundsChannel& ch, const BlockShape& shape,
                    int ncomp, const std::vector<double>& payload,
                    RealArray4& cons)
{
    const int ndim = shape.ndim;
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nx[3] = {shape.nx1, ndim >= 2 ? shape.nx2 : 1,
                       ndim >= 3 ? shape.nx3 : 1};
    const int slab_lo[3] = {ch.send.i.lo, ch.send.j.lo, ch.send.k.lo};
    const int sc[3] = {ch.send.i.count(), ch.send.j.count(),
                       ch.send.k.count()};
    auto coarse_at = [&](int n, const int c_rel[3], double* out) {
        int s_idx[3];
        bool in_slab = true;
        for (int d = 0; d < 3; ++d) {
            s_idx[d] = c_rel[d] + lo[d] - slab_lo[d];
            if (s_idx[d] < 0 || s_idx[d] >= sc[d])
                in_slab = false;
        }
        if (in_slab) {
            *out = payload[((static_cast<std::size_t>(n) * sc[2] +
                             s_idx[2]) *
                                sc[1] +
                            s_idx[1]) *
                               sc[0] +
                           s_idx[0]];
            return true;
        }
        int f0[3] = {0, 0, 0};
        for (int d = 0; d < ndim; ++d) {
            f0[d] = ch.base[d] + 2 * c_rel[d];
            if (f0[d] < 0 || f0[d] + 1 >= nx[d])
                return false;
        }
        double sum = 0.0;
        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                for (int di = 0; di <= 1; ++di)
                    sum += cons(n, lo[2] * (ndim >= 3) + f0[2] + dk,
                                lo[1] * (ndim >= 2) + f0[1] + dj,
                                lo[0] + f0[0] + di);
        *out = sum / (1 << ndim);
        return true;
    };
    for (int n = 0; n < ncomp; ++n)
        for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
            for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j)
                for (int i = ch.recv.i.lo; i <= ch.recv.i.hi; ++i) {
                    const int fidx[3] = {i, j, k};
                    int c_rel[3] = {0, 0, 0};
                    int p[3] = {0, 0, 0};
                    for (int d = 0; d < ndim; ++d) {
                        const int t = fidx[d] - lo[d] - ch.base[d];
                        ASSERT_GE(t, 0);
                        c_rel[d] = t >> 1;
                        p[d] = t & 1;
                    }
                    double center;
                    ASSERT_TRUE(coarse_at(n, c_rel, &center));
                    double value = center;
                    for (int d = 0; d < ndim; ++d) {
                        int cm[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        int cp[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        cm[d] -= 1;
                        cp[d] += 1;
                        double vm, vp;
                        double slope = 0.0;
                        if (coarse_at(n, cm, &vm) && coarse_at(n, cp, &vp))
                            slope = minmod(vp - center, center - vm);
                        value += (p[d] == 1 ? 0.25 : -0.25) * slope;
                    }
                    cons(n, k, j, i) = value;
                }
}

/** Random value; a fifth snap to {-1, 0, 1} so ties and flat slopes
 *  (minmod's zero branch) occur too. */
double
oracleValue(std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const double v = u(rng);
    if (u(rng) > 0.6)
        return std::round(v);
    return v;
}

TEST(GhostExchange, ProlongationMatchesPerCellOracleBitwise)
{
    // Random 3-level refinement in 1, 2 and 3 dimensions, random
    // interiors and random slab payloads: every coarse -> fine channel
    // (faces, edges, corners; 11 conserved components) must unpack to
    // exactly the reference's ghosts.
    for (int ndim = 1; ndim <= 3; ++ndim) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            std::mt19937_64 rng(seed * 7919 + ndim);
            KernelProfiler profiler;
            MemoryTracker tracker;
            VariableRegistry registry = makeBurgersRegistry(8);
            ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                            makeExecutionSpace(1));
            MeshConfig config;
            config.ndim = ndim;
            config.nx1 = config.nx2 = config.nx3 = ndim == 3 ? 16 : 32;
            config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
            config.amrLevels = 3;
            Mesh mesh(config, registry, ctx);
            // Round r refines a random third of the level-r blocks
            // (at least one), reaching level 2; the tree keeps 2:1
            // balance.
            for (int round = 0; round < 2; ++round) {
                RefinementFlagMap flags;
                for (const auto& block : mesh.blocks())
                    if (block->loc().level == round &&
                        (flags.empty() || rng() % 3 == 0))
                        flags[block->loc()] = RefinementFlag::Refine;
                mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
            }
            ASSERT_EQ(mesh.maxPresentLevel(), 2);
            for (const auto& block : mesh.blocks()) {
                RealArray4& cons = block->cons();
                for (std::size_t v = 0; v < cons.size(); ++v)
                    cons.data()[v] = oracleValue(rng);
            }
            RankWorld world(1);
            BoundaryBufferCache cache(mesh, false);
            GhostExchange exchange(mesh, world, cache);
            const BlockShape shape = config.blockShape();
            const int ncomp = registry.ncompConserved();
            ASSERT_GT(ncomp, 1);

            int tested = 0;
            int by_kind[4] = {0, 0, 0, 0}; // face / edge / corner
            for (const BoundsChannel& ch : cache.bounds()) {
                if (ch.levelDiff != -1)
                    continue;
                std::vector<double> payload(
                    static_cast<std::size_t>(ch.send.cells()) * ncomp);
                for (double& v : payload)
                    v = oracleValue(rng);
                RealArray4 expect = ch.receiver->cons();
                referenceProlongate(ch, shape, ncomp, payload, expect);
                exchange.unpackBoundsChannel(ch, payload.data(),
                                             payload.size());
                const RealArray4& got = ch.receiver->cons();
                ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                                      got.size() * sizeof(double)),
                          0)
                    << ndim << "D seed " << seed << ": channel into "
                    << ch.receiver->loc().str() << " from "
                    << ch.sender->loc().str() << " offset (" << ch.o1
                    << "," << ch.o2 << "," << ch.o3 << ")";
                ++tested;
                ++by_kind[std::abs(ch.o1) + std::abs(ch.o2) +
                          std::abs(ch.o3)];
            }
            EXPECT_GT(tested, 0);
            for (int kind = 1; kind <= ndim; ++kind)
                EXPECT_GT(by_kind[kind], 0)
                    << ndim << "D seed " << seed
                    << ": no channel with " << kind << " offset axes";
        }
    }
}

TEST(GhostExchange, ProfilerSeesFourPhases)
{
    CommFixture f(16, 8, 1, ExecMode::Count);
    f.exchange->exchangeBounds();
    const auto& kernels = f.profiler.kernels();
    EXPECT_TRUE(kernels.count({"SendBoundBufs", "SendBoundBufs"}));
    EXPECT_TRUE(kernels.count({"SetBounds", "SetBounds"}));
    const auto& serial = f.profiler.serial();
    EXPECT_TRUE(
        serial.count({"StartReceiveBoundBufs", "recv_buf_prepare"}));
    EXPECT_TRUE(serial.count({"ReceiveBoundBufs", "recv_poll"}));
}

} // namespace
} // namespace vibe
