/**
 * @file test_fused_exchange.cpp
 * The fused ghost and flux-correction exchange against a per-channel
 * oracle, and its steady-state buffer reuse.
 *
 * - Oracle: a serial loop over the cache's channels packs each channel
 *   into its own vector and unpacks it (then the physical fill), the
 *   textbook one-message-per-face exchange. exchangeBounds() and
 *   exchangeFluxCorrections() must reproduce it bit for bit on random
 *   3-level meshes in 1D, 2D and 3D, on 1-, 2- and 4-rank worlds, and
 *   again after a refine + derefine through the same GhostExchange
 *   (the plan is then rebuilt via the cache's rebuild hook).
 * - Buffer reuse: once warm, an exchange on an unchanged mesh
 *   allocates nothing of payload size; the coalesced payloads are
 *   recycled from the previous exchange's receives.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/ghost_exchange.hpp"
#include "comm/rank_world.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "pkg/burgers_package.hpp"

// Allocation counter for the buffer-reuse test: while armed, counts
// every allocation of at least g_count_min_bytes.
namespace {
std::atomic<bool> g_count_armed{false};
std::atomic<std::size_t> g_count_min_bytes{0};
std::atomic<int> g_large_allocations{0};
} // namespace

void*
operator new(std::size_t size)
{
    if (g_count_armed.load(std::memory_order_relaxed) &&
        size >= g_count_min_bytes.load(std::memory_order_relaxed))
        g_large_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace vibe {
namespace {

/** Arms the allocation counter for its lifetime. */
class LargeAllocationCounter
{
  public:
    explicit LargeAllocationCounter(std::size_t min_bytes)
    {
        g_large_allocations.store(0);
        g_count_min_bytes.store(min_bytes);
        g_count_armed.store(true);
    }
    ~LargeAllocationCounter() { g_count_armed.store(false); }
    int count() const { return g_large_allocations.load(); }
};

/** Mesh + cache + exchange, with the driver's plan-invalidation hook. */
struct ExchangeFixture
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(2);
    ExecContext ctx;
    Mesh mesh;
    RankWorld world;
    BoundaryBufferCache cache;
    GhostExchange exchange;

    ExchangeFixture(const MeshConfig& config, int nranks, int threads)
        : ctx(ExecMode::Execute, &profiler, &tracker,
              makeExecutionSpace(threads)),
          mesh(config, registry, ctx), world(nranks),
          cache(mesh, /*randomize_keys=*/true),
          exchange(mesh, world, cache)
    {
        cache.setRebuildHook([this] { exchange.plan().invalidate(); });
    }

    /** Apply one tree update and rebuild the channels. */
    void remesh(const RefinementFlagMap& flags)
    {
        mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
        cache.rebuild();
    }

    /** Contiguous Z-order rank slices, then a channel rebuild. */
    void assignRanks()
    {
        const std::size_t nblocks = mesh.numBlocks();
        const int nranks = world.nranks();
        for (std::size_t gid = 0; gid < nblocks; ++gid)
            mesh.block(static_cast<int>(gid))
                .setRank(static_cast<int>(gid * nranks / nblocks));
        cache.rebuild();
    }
};

/** Random value; a fifth snap to {-1, 0, 1} so minmod ties occur. */
double
randomValue(std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const double v = u(rng);
    return u(rng) > 0.6 ? std::round(v) : v;
}

/** Every block's conserved state and face fluxes, ghosts included. */
using MeshState = std::vector<std::vector<double>>;

std::vector<RealArray4*>
stateArrays(Mesh& mesh)
{
    std::vector<RealArray4*> arrays;
    for (const auto& block : mesh.blocks()) {
        arrays.push_back(&block->cons());
        for (int d = 0; d < mesh.config().ndim; ++d)
            arrays.push_back(&block->flux(d));
    }
    return arrays;
}

void
randomizeState(Mesh& mesh, std::mt19937_64& rng)
{
    for (RealArray4* a : stateArrays(mesh))
        for (std::size_t v = 0; v < a->size(); ++v)
            a->data()[v] = randomValue(rng);
}

MeshState
captureState(Mesh& mesh)
{
    MeshState state;
    for (RealArray4* a : stateArrays(mesh))
        state.emplace_back(a->data(), a->data() + a->size());
    return state;
}

void
restoreState(Mesh& mesh, const MeshState& state)
{
    const std::vector<RealArray4*> arrays = stateArrays(mesh);
    ASSERT_EQ(arrays.size(), state.size());
    for (std::size_t a = 0; a < arrays.size(); ++a)
        std::copy(state[a].begin(), state[a].end(), arrays[a]->data());
}

/**
 * Per-channel oracle ghost exchange: each channel packed into its own
 * vector, every pack before any unpack (a pack reads only its sender's
 * interior, an unpack writes only its receiver's ghosts), then the
 * physical fill.
 */
void
oracleBounds(ExchangeFixture& fx)
{
    const int ncomp = fx.registry.ncompConserved();
    std::vector<std::vector<double>> payloads;
    for (const BoundsChannel& ch : fx.cache.bounds()) {
        payloads.emplace_back(
            static_cast<std::size_t>(ch.wireCells()) * ncomp);
        fx.exchange.packBoundsChannel(ch, payloads.back().data());
    }
    for (std::size_t c = 0; c < payloads.size(); ++c)
        fx.exchange.unpackBoundsChannel(fx.cache.bounds()[c],
                                        payloads[c].data(),
                                        payloads[c].size());
    fx.exchange.applyPhysicalBoundaries();
}

/** Per-channel oracle flux correction. */
void
oracleFlux(ExchangeFixture& fx)
{
    const int ncomp = fx.registry.ncompConserved();
    std::vector<std::vector<double>> payloads;
    for (const FluxChannel& ch : fx.cache.flux()) {
        payloads.emplace_back(
            static_cast<std::size_t>(ch.wireFaces()) * ncomp);
        fx.exchange.packFluxChannel(ch, payloads.back().data());
    }
    for (std::size_t c = 0; c < payloads.size(); ++c)
        fx.exchange.unpackFluxChannel(fx.cache.flux()[c],
                                      payloads[c].data(),
                                      payloads[c].size());
}

void
expectStatesEqual(const MeshState& oracle, const MeshState& fused,
                  const std::string& what)
{
    ASSERT_EQ(oracle.size(), fused.size()) << what;
    for (std::size_t a = 0; a < oracle.size(); ++a) {
        ASSERT_EQ(oracle[a].size(), fused[a].size());
        EXPECT_EQ(std::memcmp(oracle[a].data(), fused[a].data(),
                              oracle[a].size() * sizeof(double)),
                  0)
            << what << ", state array " << a;
    }
}

/**
 * Random state, then the oracle and the fused exchange from the same
 * starting point: ghosts after exchangeBounds() + the physical fill,
 * fluxes after exchangeFluxCorrections().
 */
void
expectFusedMatchesOracle(ExchangeFixture& fx, std::mt19937_64& rng,
                         const std::string& what)
{
    ASSERT_FALSE(fx.cache.flux().empty()) << what;
    randomizeState(fx.mesh, rng);
    const MeshState start = captureState(fx.mesh);

    oracleBounds(fx);
    oracleFlux(fx);
    const MeshState oracle = captureState(fx.mesh);

    restoreState(fx.mesh, start);
    fx.exchange.exchangeBounds();
    fx.exchange.applyPhysicalBoundaries();
    fx.exchange.exchangeFluxCorrections();
    EXPECT_EQ(fx.world.pendingCount(), 0u) << what;
    expectStatesEqual(oracle, captureState(fx.mesh), what);
}

/** Refine a random subset (at least one) of the level-`level` leaves. */
RefinementFlagMap
refineSome(const Mesh& mesh, int level, std::mt19937_64& rng)
{
    RefinementFlagMap flags;
    for (const auto& block : mesh.blocks())
        if (block->loc().level == level &&
            (flags.empty() || rng() % 3 == 0))
            flags[block->loc()] = RefinementFlag::Refine;
    return flags;
}

MeshConfig
oracleMeshConfig(int ndim, bool periodic)
{
    MeshConfig config;
    config.ndim = ndim;
    config.nx1 = config.nx2 = config.nx3 = ndim == 3 ? 16 : 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 3;
    config.periodic = periodic;
    return config;
}

TEST(FusedExchangeOracle, MatchesPerChannelOracleBitwise)
{
    const int threads = envNumThreads(2);
    for (int ndim = 1; ndim <= 3; ++ndim)
        for (int nranks : {1, 2, 4})
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                const std::string what =
                    std::to_string(ndim) + "D, " +
                    std::to_string(nranks) + " ranks, seed " +
                    std::to_string(seed);
                std::mt19937_64 rng(seed * 7919 + ndim * 31 + nranks);
                ExchangeFixture fx(oracleMeshConfig(ndim, seed == 1),
                                   nranks, threads);
                // Two refinement rounds reach level 2; the tree keeps
                // 2:1 balance.
                fx.remesh(refineSome(fx.mesh, 0, rng));
                fx.remesh(refineSome(fx.mesh, 1, rng));
                ASSERT_EQ(fx.mesh.maxPresentLevel(), 2) << what;
                fx.assignRanks();
                expectFusedMatchesOracle(fx, rng, what);
                const std::uint64_t builds =
                    fx.exchange.plan().buildCount();

                // Derefine every level-2 sibling set, refine a fresh
                // level-1 subset: new channels, new message sizes,
                // recycled payloads of the old sizes.
                RefinementFlagMap derefine;
                for (const auto& block : fx.mesh.blocks())
                    if (block->loc().level == 2)
                        derefine[block->loc()] = RefinementFlag::Derefine;
                fx.remesh(derefine);
                ASSERT_EQ(fx.mesh.maxPresentLevel(), 1) << what;
                fx.remesh(refineSome(fx.mesh, 1, rng));
                ASSERT_EQ(fx.mesh.maxPresentLevel(), 2) << what;
                fx.assignRanks();
                EXPECT_FALSE(fx.exchange.plan().current()) << what;
                expectFusedMatchesOracle(fx, rng,
                                         what + ", after remesh");
                EXPECT_GT(fx.exchange.plan().buildCount(), builds)
                    << what;
            }
}

TEST(FusedExchangeBuffers, SteadyExchangeAllocatesNoPayload)
{
    // A 2-level mesh on a 2-rank world: self and cross-rank messages
    // of different sizes in both phases.
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    ExchangeFixture fx(config, 2, 1);
    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    fx.remesh(flags);
    fx.assignRanks();
    std::mt19937_64 rng(7);
    randomizeState(fx.mesh, rng);

    for (int warmup = 0; warmup < 2; ++warmup) {
        fx.exchange.exchangeBounds();
        fx.exchange.exchangeFluxCorrections();
    }
    const BoundaryPlan& plan = fx.exchange.plan();
    ASSERT_TRUE(plan.current());
    for (PlanPhase phase : {PlanPhase::Bounds, PlanPhase::Flux}) {
        const auto& msgs = plan.messages(phase);
        ASSERT_FALSE(msgs.empty()) << planPhaseName(phase);
        std::size_t smallest = msgs.front().doubles;
        for (const PlanMessage& m : msgs)
            smallest = std::min(smallest, m.doubles);
        const LargeAllocationCounter counter(smallest * sizeof(double));
        if (phase == PlanPhase::Bounds)
            fx.exchange.exchangeBounds();
        else
            fx.exchange.exchangeFluxCorrections();
        EXPECT_EQ(counter.count(), 0)
            << planPhaseName(phase) << ": allocations of at least "
            << smallest * sizeof(double) << " bytes";
    }
}

} // namespace
} // namespace vibe
