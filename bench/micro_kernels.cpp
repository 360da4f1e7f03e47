/**
 * @file micro_kernels.cpp
 * google-benchmark microbenchmarks of the numerical and structural
 * hot paths: WENO5/PLM reconstruction, the HLL pencil, the full
 * CalculateFluxes row kernel against a memcpy ceiling of the same
 * modeled bytes, RK2 weighted sums, ghost pack/unpack (uniform and
 * across AMR levels), Morton keys, tree neighbor walks and
 * buffer-cache rebuilds.
 */
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/ghost_exchange.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
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
    package.calculateFluxes(mesh);
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
    for (auto _ : state)
        package.calculateFluxes(mesh);
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

void
BM_Rk2Stage(benchmark::State& state)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 16;
    config.amrLevels = 1;
    Mesh mesh(config, registry, ctx);
    saveState(mesh);
    for (auto _ : state)
        stage1Update(mesh, 1e-3);
    state.SetItemsProcessed(state.iterations() * 32 * 32 * 32);
}
BENCHMARK(BM_Rk2Stage);

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
    BoundaryBufferCache cache(mesh, false);
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
    BoundaryBufferCache cache(mesh, true);
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

} // namespace

BENCHMARK_MAIN();
