/**
 * @file micro_kernels.cpp
 * google-benchmark microbenchmarks of the numerical and structural
 * hot paths: WENO5/PLM reconstruction, the HLL pencil, the full
 * CalculateFluxes row kernel against a memcpy ceiling of the same
 * modeled bytes, the fused RK2 stage update against a memcpy of its
 * bytes, ghost pack/unpack (uniform and
 * across AMR levels), per-class boundary rows (direct vs payload, next
 * to a memcpy of the same bytes), Morton keys, tree neighbor walks and
 * buffer-cache rebuilds.
 */
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/boundary_plan.hpp"
#include "comm/ghost_exchange.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "pkg/advection_package.hpp"
#include "pkg/burgers_package.hpp"
#include "solver/reconstruct.hpp"
#include "solver/riemann.hpp"
#include "solver/rk2.hpp"

namespace {

using namespace vibe;

void
BM_Weno5Face(benchmark::State& state)
{
    double a = 1.0, b = 1.1, c = 1.3, d = 1.2, e = 0.9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(weno5Face(a, b, c, d, e));
        a += 1e-9; // defeat constant folding
    }
}
BENCHMARK(BM_Weno5Face);

void
BM_PlmFace(benchmark::State& state)
{
    double a = 1.0, b = 1.1, c = 1.3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(plmFace(a, b, c));
        a += 1e-9;
    }
}
BENCHMARK(BM_PlmFace);

/** HLL over one pencil of 17 faces (a 16^3 block's x sweep). */
void
BM_HllPencil(benchmark::State& state)
{
    const int ncomp = static_cast<int>(state.range(0));
    constexpr int nface = 17;
    std::vector<double> l(ncomp * nface, 0.5), r(ncomp * nface, -0.2),
        f(ncomp * nface);
    for (auto _ : state) {
        hllPencil(l.data(), r.data(), nface, 0, ncomp, f.data(), nface);
        benchmark::DoNotOptimize(f.data());
        benchmark::ClobberMemory();
        l[0] += 1e-9;
    }
    state.SetItemsProcessed(state.iterations() * ncomp * nface);
}
BENCHMARK(BM_HllPencil)->Arg(4)->Arg(11);

void
BM_MortonKey(benchmark::State& state)
{
    LogicalLocation loc{3, 5, 2, 7};
    for (auto _ : state) {
        benchmark::DoNotOptimize(loc.mortonKey(6));
        loc.lx1 = (loc.lx1 + 1) & 0x3f;
    }
}
BENCHMARK(BM_MortonKey);

/** One-block mesh of `block`^3 cells (non-periodic: a periodic mesh
 *  needs at least two blocks per dimension). */
MeshConfig
oneBlockConfig(int block)
{
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = block;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = block;
    config.amrLevels = 1;
    config.periodic = false;
    return config;
}

/** Profiler-modeled DRAM bytes of one CalculateFluxes sweep over a
 *  `block`^3 block (counting mode: nothing executes). */
std::int64_t
modeledFluxBytes(int block)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Count, &profiler, &tracker);
    Mesh mesh(oneBlockConfig(block), registry, ctx);
    BurgersPackage package{BurgersConfig{}};
    package.calculateFluxesBlock(
        mesh, mesh.block(0),
        workerFaceFluxes(mesh.config().blockShape(),
                         registry.ncompConserved()));
    return static_cast<std::int64_t>(
        profiler.kernelByName("CalculateFluxes").bytes);
}

/**
 * One full CalculateFluxes sweep over a block (per block size). Bytes
 * are the profiler's modeled bytes, so bytes/s reads against
 * BM_MemcpyCeiling at the same size.
 */
void
BM_CalculateFluxesBlock(benchmark::State& state)
{
    const int block = static_cast<int>(state.range(0));
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    Mesh mesh(oneBlockConfig(block), registry, ctx);
    BurgersPackage package{BurgersConfig{}};
    package.initialize(mesh, InitialCondition::Sine);
    FaceFluxes& flux = workerFaceFluxes(mesh.config().blockShape(),
                                        registry.ncompConserved());
    for (auto _ : state)
        package.calculateFluxesBlock(mesh, mesh.block(0), flux);
    state.SetItemsProcessed(state.iterations() * block * block * block);
    state.SetBytesProcessed(state.iterations() * modeledFluxBytes(block));
}
BENCHMARK(BM_CalculateFluxesBlock)->Arg(8)->Arg(16)->Arg(32);

/**
 * memcpy of the bytes BM_CalculateFluxesBlock models for the same
 * block size: the measured ceiling its bytes/s reads against.
 */
void
BM_MemcpyCeiling(benchmark::State& state)
{
    const std::int64_t bytes =
        modeledFluxBytes(static_cast<int>(state.range(0)));
    std::vector<char> src(static_cast<std::size_t>(bytes), 1);
    std::vector<char> dst(static_cast<std::size_t>(bytes));
    for (auto _ : state) {
        std::memcpy(dst.data(), src.data(), dst.size());
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
        src[0] = static_cast<char>(src[0] + 1);
    }
    state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_MemcpyCeiling)->Arg(8)->Arg(16)->Arg(32);

/**
 * Bytes one fused stage update moves over a `block`^3 block with
 * `ncomp` components: per interior cell and component it reads three
 * face fluxes (one new face per direction), u0 and u, and writes u.
 */
std::int64_t
stageUpdateBytes(int block, int ncomp)
{
    return std::int64_t{block} * block * block * ncomp * 6 *
           static_cast<std::int64_t>(sizeof(double));
}

/**
 * One fused stage update (divergence + weighted sum in one row pass)
 * over a `block`^3 Burgers block (8 scalars), from fluxes in the
 * worker's scratch as on a single-level mesh. Bytes/s reads against
 * BM_StageUpdateMemcpyCeiling at the same size.
 */
void
BM_StageUpdate(benchmark::State& state)
{
    const int block = static_cast<int>(state.range(0));
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    Mesh mesh(oneBlockConfig(block), registry, ctx);
    BurgersPackage package{BurgersConfig{}};
    package.initialize(mesh, InitialCondition::Sine);
    saveState(mesh);
    FaceFluxes& flux = workerFaceFluxes(mesh.config().blockShape(),
                                        registry.ncompConserved());
    package.calculateFluxesBlock(mesh, mesh.block(0), flux);
    for (auto _ : state)
        stageUpdateBlock(mesh, mesh.block(0), flux, 2, 1e-9);
    state.SetItemsProcessed(state.iterations() * block * block * block);
    state.SetBytesProcessed(
        state.iterations() *
        stageUpdateBytes(block, registry.ncompConserved()));
}
BENCHMARK(BM_StageUpdate)->Arg(8)->Arg(16)->Arg(32);

/** memcpy of the bytes BM_StageUpdate moves for the same block size. */
void
BM_StageUpdateMemcpyCeiling(benchmark::State& state)
{
    const std::int64_t bytes = stageUpdateBytes(
        static_cast<int>(state.range(0)),
        makeBurgersRegistry(8).ncompConserved());
    std::vector<char> src(static_cast<std::size_t>(bytes), 1);
    std::vector<char> dst(static_cast<std::size_t>(bytes));
    for (auto _ : state) {
        std::memcpy(dst.data(), src.data(), dst.size());
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
        src[0] = static_cast<char>(src[0] + 1);
    }
    state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_StageUpdateMemcpyCeiling)->Arg(8)->Arg(16)->Arg(32);

/**
 * One monolithic ghost exchange over a 32^3 mesh (block size, AMR
 * levels). With levels > 1 the low corner is refined down to the
 * finest level, so the exchange carries restrict-on-send and
 * prolong-on-receive rows as well as same-level copies. Bytes are the
 * wire payload: wire cells x conserved components x 8.
 */
void
BM_GhostExchange(benchmark::State& state)
{
    const int block = static_cast<int>(state.range(0));
    const int levels = static_cast<int>(state.range(1));
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = block;
    config.amrLevels = levels;
    Mesh mesh(config, registry, ctx);
    for (int level = 0; level + 1 < levels; ++level) {
        RefinementFlagMap flags;
        flags[LogicalLocation{level, 0, 0, 0}] = RefinementFlag::Refine;
        mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
    }
    RankWorld world(1);
    BoundaryBufferCache cache(mesh);
    GhostExchange exchange(mesh, world, cache);
    BurgersPackage package{BurgersConfig{}};
    package.initialize(mesh, InitialCondition::Sine);
    for (auto _ : state)
        exchange.exchangeBounds();
    const std::int64_t wire_cells = cache.totalWireCells();
    state.SetItemsProcessed(state.iterations() * wire_cells);
    state.SetBytesProcessed(state.iterations() * wire_cells *
                            registry.ncompConserved() *
                            static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_GhostExchange)
    ->ArgNames({"block", "levels"})
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({8, 3});

/**
 * A 32^3 mesh of 8^3 blocks whose low corner is refined twice: every
 * boundary class (same-level copy, restrict, prolong) occurs on one
 * rank. `ncomp` 1 is advection's one conserved field (amr-deep's
 * package), 11 Burgers with 8 scalars; the state is a smooth wave.
 */
struct BoundaryRowFixture
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry;
    ExecContext ctx{ExecMode::Execute, &profiler, &tracker};
    Mesh mesh;
    RankWorld world{1};
    BoundaryBufferCache cache;
    GhostExchange exchange;
    /** Bounds channels of the requested class (levelDiff). */
    std::vector<const BoundsChannel*> channels;
    /** Wire bytes of those channels: cells x components x 8. */
    std::int64_t bytes = 0;

    static MeshConfig config()
    {
        MeshConfig c;
        c.nx1 = c.nx2 = c.nx3 = 32;
        c.blockNx1 = c.blockNx2 = c.blockNx3 = 8;
        c.amrLevels = 3;
        return c;
    }

    static Mesh& refined(Mesh& mesh)
    {
        for (int level = 0; level < 2; ++level) {
            RefinementFlagMap flags;
            flags[LogicalLocation{level, 0, 0, 0}] =
                RefinementFlag::Refine;
            mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
        }
        return mesh;
    }

    BoundaryRowFixture(int level_diff, int ncomp)
        : registry(ncomp == 1 ? makeAdvectionRegistry()
                              : makeBurgersRegistry(ncomp - 3)),
          mesh(config(), registry, ctx), cache(refined(mesh)),
          exchange(mesh, world, cache)
    {
        for (const auto& block : mesh.blocks()) {
            RealArray4& cons = block->cons();
            for (std::size_t v = 0; v < cons.size(); ++v)
                cons.data()[v] = std::sin(0.37 * static_cast<double>(v));
        }
        for (const BoundsChannel& ch : cache.bounds())
            if (ch.levelDiff == level_diff) {
                channels.push_back(&ch);
                bytes += ch.wireCells() * registry.ncompConserved() *
                         static_cast<std::int64_t>(sizeof(double));
            }
    }
};

/**
 * One boundary class's rows on the 3-level mesh: class 0 same-level
 * copy, 1 restrict (fine sender), -1 prolong (coarse sender), at ncomp
 * conserved components. direct:1 runs the same-rank direct rows
 * (sender block straight into receiver ghosts), direct:0 the
 * cross-rank payload rows (pack into a payload, then unpack). Bytes
 * are the wire payload, so bytes/s reads against
 * BM_BoundaryMemcpyCeiling of the same class and ncomp.
 */
void
BM_BoundaryRow(benchmark::State& state)
{
    BoundaryRowFixture fx(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(1)));
    const bool direct = state.range(2) != 0;
    std::vector<double> payload(
        static_cast<std::size_t>(fx.bytes) / sizeof(double));
    for (auto _ : state) {
        if (direct) {
            for (const BoundsChannel* ch : fx.channels)
                fx.exchange.copyBoundsChannel(*ch);
        } else {
            double* out = payload.data();
            for (const BoundsChannel* ch : fx.channels) {
                const std::size_t count =
                    static_cast<std::size_t>(ch->wireCells()) *
                    fx.registry.ncompConserved();
                fx.exchange.packBoundsChannel(*ch, out);
                fx.exchange.unpackBoundsChannel(*ch, out, count);
                out += count;
            }
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.channels.size()));
    state.SetBytesProcessed(state.iterations() * fx.bytes);
}
BENCHMARK(BM_BoundaryRow)
    ->ArgNames({"class", "ncomp", "direct"})
    ->ArgsProduct({{0, 1, -1}, {1, 11}, {1, 0}});

/** memcpy of one boundary class's wire bytes: BM_BoundaryRow's ceiling. */
void
BM_BoundaryMemcpyCeiling(benchmark::State& state)
{
    const BoundaryRowFixture fx(static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(1)));
    std::vector<char> src(static_cast<std::size_t>(fx.bytes), 1);
    std::vector<char> dst(src.size());
    for (auto _ : state) {
        std::memcpy(dst.data(), src.data(), dst.size());
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
        src[0] = static_cast<char>(src[0] + 1);
    }
    state.SetBytesProcessed(state.iterations() * fx.bytes);
}
BENCHMARK(BM_BoundaryMemcpyCeiling)
    ->ArgNames({"class", "ncomp"})
    ->ArgsProduct({{0, 1, -1}, {1, 11}});

void
BM_BufferCacheRebuild(benchmark::State& state)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Count, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 64;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, registry, ctx);
    BoundaryBufferCache cache(mesh);
    for (auto _ : state)
        cache.rebuild();
    state.SetItemsProcessed(state.iterations() * cache.bounds().size());
}
BENCHMARK(BM_BufferCacheRebuild);

void
BM_TreeNeighborWalk(benchmark::State& state)
{
    TreeConfig config;
    config.nbx1 = config.nbx2 = config.nbx3 = 8;
    config.maxLevel = 2;
    BlockTree tree(config);
    tree.refine({0, 0, 0, 0});
    const auto leaves = tree.leavesZOrder();
    for (auto _ : state)
        for (const auto& loc : leaves)
            benchmark::DoNotOptimize(tree.neighbors(loc));
    state.SetItemsProcessed(state.iterations() * leaves.size());
}
BENCHMARK(BM_TreeNeighborWalk);

/**
 * The structural rebuild of one remesh on an amr-deep-shaped mesh:
 * 32^3 base of 8^3 blocks, 3 levels, refined twice inside a central
 * ball to 512 blocks (14k neighbor links), split over 2 ranks in
 * Z-order, counting mode.
 * One iteration rebuilds the neighbor lists, the buffer cache and the
 * boundary plan, as a remesh or a load-balance move does.
 */
void
BM_RemeshRebuild(benchmark::State& state)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeAdvectionRegistry();
    ExecContext ctx(ExecMode::Count, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 3;
    config.numRanks = 2;
    Mesh mesh(config, registry, ctx);
    for (int level = 0; level < 2; ++level) {
        RefinementFlagMap flags;
        for (const auto& block : mesh.blocks()) {
            const BlockGeometry g = mesh.geometryFor(block->loc());
            const double x = 0.5 * (g.x1min + g.x1max) - 0.5;
            const double y = 0.5 * (g.x2min + g.x2max) - 0.5;
            const double z = 0.5 * (g.x3min + g.x3max) - 0.5;
            const double r = std::sqrt(x * x + y * y + z * z);
            if (r < 0.25)
                flags[block->loc()] = RefinementFlag::Refine;
        }
        mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
    }
    const std::size_t nblocks = mesh.numBlocks();
    for (std::size_t gid = 0; gid < nblocks; ++gid)
        mesh.block(static_cast<int>(gid))
            .setRank(static_cast<int>(2 * gid / nblocks));
    RankWorld world(2);
    BoundaryBufferCache cache(mesh);
    BoundaryPlan plan(mesh, cache, world);
    for (auto _ : state) {
        mesh.rebuildNeighbors();
        cache.rebuild();
        plan.ensureBuilt();
    }
    state.counters["blocks"] = static_cast<double>(nblocks);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cache.bounds().size()));
}
BENCHMARK(BM_RemeshRebuild)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
