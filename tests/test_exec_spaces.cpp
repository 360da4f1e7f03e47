/**
 * @file test_exec_spaces.cpp
 * Execution-space backends: the serial fast path, ThreadPoolSpace
 * chunking, deterministic parReduceAt, thread-safe instrumentation, and
 * the headline guarantee — a threaded numeric run produces mesh state
 * identical to a serial run, with identical profiler totals.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "pkg/advection_package.hpp"
#include "pkg/burgers_package.hpp"
#include "pkg/reaction_package.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "exec/par_for.hpp"
#include "solver/rk2.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"

namespace vibe {
namespace {

TEST(ExecutionSpace, OneThreadUsesSerialFastPath)
{
    auto space = makeExecutionSpace(1);
    EXPECT_STREQ(space->name(), "serial");
    EXPECT_EQ(space->concurrency(), 1);
    // The serial space is the shared process-wide instance; no pool is
    // ever constructed for num_threads=1.
    EXPECT_EQ(space.get(), sharedSerialSpace().get());
    EXPECT_EQ(makeExecutionSpace(0).get(), sharedSerialSpace().get());

    // A default-constructed context runs on the same serial instance.
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr);
    EXPECT_EQ(&ctx.space(), sharedSerialSpace().get());
}

TEST(ExecutionSpace, ThreadPoolCoversRangeExactlyOnce)
{
    auto space = makeExecutionSpace(4);
    EXPECT_STREQ(space->name(), "threadpool");
    EXPECT_EQ(space->concurrency(), 4);

    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    std::vector<int> hits(10000, 0);
    parFor(ctx, "touch", {}, 0, 9999, [&](int i) { ++hits[i]; });
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;

    // 3-D and 4-D flattening: every tuple visited exactly once.
    std::vector<std::atomic<int>> cells(5 * 7 * 11);
    parFor(ctx, "touch3", {}, 0, 4, 0, 6, 0, 10, [&](int k, int j, int i) {
        cells[(k * 7 + j) * 11 + i].fetch_add(1);
    });
    for (const auto& c : cells)
        ASSERT_EQ(c.load(), 1);

    std::atomic<int> count{0};
    parFor(ctx, "touch4", {}, 0, 2, 0, 4, 0, 5, 0, 6,
           [&](int, int, int, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3 * 5 * 6 * 7);
}

TEST(ExecutionSpace, EmptyAndTinyRanges)
{
    auto space = makeExecutionSpace(4);
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    parFor(ctx, "empty", {}, 5, 4, [](int) { FAIL(); });
    int calls = 0;
    parFor(ctx, "one", {}, 3, 3, [&](int i) {
        EXPECT_EQ(i, 3);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ExecutionSpace, WorkerChunkExceptionPropagatesToCaller)
{
    auto space = makeExecutionSpace(4);
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    // Index 9990 lands in the last chunk, i.e. on a pool worker; the
    // panic must surface on the calling thread, not std::terminate.
    EXPECT_THROW(parFor(ctx, "boom", {}, 0, 9999,
                        [&](int i) {
                            require(i != 9990, "worker-chunk failure");
                        }),
                 PanicError);
    // The pool must stay usable after a failed launch.
    std::atomic<int> count{0};
    parFor(ctx, "after", {}, 0, 999, [&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1000);
}

TEST(ExecutionSpace, NestedLaunchFallsBackInline)
{
    auto space = makeExecutionSpace(3);
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    std::atomic<int> total{0};
    parFor(ctx, "outer", {}, 0, 5, [&](int) {
        parFor(ctx, "inner", {}, 0, 9, [&](int) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 60);
}

TEST(ParReduce, MatchesSerialResults)
{
    // Integer-valued doubles: sums are exact, so serial and threaded
    // results must agree bitwise regardless of chunk grouping.
    const int nk = 6, nj = 9, ni = 13;
    auto value = [&](int k, int j, int i) {
        return static_cast<double>((k * nj + j) * ni + i);
    };
    for (int threads : {1, 4}) {
        ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                        makeExecutionSpace(threads));
        double sum = 0.0, mn = 1e30, mx = -1e30;
        parReduceAt(ctx, "", 0, "sum", {}, ReduceOp::Sum, sum, 0, nk - 1,
                    0, nj - 1, 0, ni - 1,
                    [&](int k, int j, int i, double& acc) {
                        acc += value(k, j, i);
                    });
        parReduceAt(ctx, "", 0, "min", {}, ReduceOp::Min, mn, 0, nk - 1,
                    0, nj - 1, 0, ni - 1,
                    [&](int k, int j, int i, double& acc) {
                        acc = std::min(acc, value(k, j, i) + 5.0);
                    });
        parReduceAt(ctx, "", 0, "max", {}, ReduceOp::Max, mx, 0, nk - 1,
                    0, nj - 1, 0, ni - 1,
                    [&](int k, int j, int i, double& acc) {
                        acc = std::max(acc, value(k, j, i));
                    });
        const double n = nk * nj * ni;
        EXPECT_DOUBLE_EQ(sum, n * (n - 1) / 2) << threads << " threads";
        EXPECT_DOUBLE_EQ(mn, 5.0) << threads << " threads";
        EXPECT_DOUBLE_EQ(mx, n - 1) << threads << " threads";
    }
}

TEST(ParReduce, CountModeRecordsWithoutExecuting)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    double sum = 42.0;
    parReduceAt(ctx, "", 0, "r", {2.0, 8.0}, ReduceOp::Sum, sum, 0, 3, 0,
                4, 0, 5, [](int, int, int, double& acc) { acc += 1.0; });
    EXPECT_DOUBLE_EQ(sum, 42.0);
    const auto stats = profiler.kernelByName("r");
    EXPECT_DOUBLE_EQ(stats.items, 4.0 * 5.0 * 6.0);
    EXPECT_DOUBLE_EQ(stats.flops, 2.0 * 120.0);
}

TEST(Profiler, ConcurrentRecordsFromPoolWorkers)
{
    KernelProfiler profiler;
    auto space = makeExecutionSpace(4);

    struct Ctx
    {
        KernelProfiler* profiler;
    } rec{&profiler};
    space->forEachChunk(
        1000,
        [](void* p, std::int64_t begin, std::int64_t end, int) {
            auto* rec = static_cast<Ctx*>(p);
            for (std::int64_t i = begin; i < end; ++i)
                rec->profiler->record(
                    {"worker_kernel", "Stress", 2, 1, 1.0, 3.0, 5.0, 1.0});
        },
        &rec);

    // Accessors merge the per-thread buffers (a quiescent point: the
    // launch above has completed).
    EXPECT_EQ(profiler.totalLaunches(), 1000u);
    EXPECT_DOUBLE_EQ(profiler.totalItems(), 1000.0);
    const auto& stats = profiler.kernels().at({"Stress", "worker_kernel"});
    EXPECT_DOUBLE_EQ(stats.flops, 3000.0);
    EXPECT_DOUBLE_EQ(stats.bytes, 5000.0);
    EXPECT_DOUBLE_EQ(stats.itemsByRank.at(2), 1000.0);
}

TEST(MemoryTracker, ConcurrentAllocationsFromPoolWorkers)
{
    MemoryTracker tracker;
    tracker.allocate("main", 100);
    auto space = makeExecutionSpace(4);

    struct Ctx
    {
        MemoryTracker* tracker;
    } rec{&tracker};
    space->forEachChunk(
        100,
        [](void* p, std::int64_t begin, std::int64_t end, int) {
            auto* rec = static_cast<Ctx*>(p);
            for (std::int64_t i = begin; i < end; ++i) {
                rec->tracker->allocate("worker", 10);
                rec->tracker->deallocate("worker", 4);
            }
        },
        &rec);

    EXPECT_EQ(tracker.currentBytes(), 100u + 100u * 6u);
    EXPECT_EQ(tracker.labelBytes("worker"), 600u);
    EXPECT_EQ(tracker.allocationCalls(), 101u);
    EXPECT_GE(tracker.peakBytes(), tracker.currentBytes());
}

TEST(MeshConfig, NumThreadsKnob)
{
    const ParameterInput pin = ParameterInput::fromString(
        "<mesh>\n"
        "nx1 = 32\n"
        "<meshblock>\n"
        "nx1 = 8\n"
        "<exec>\n"
        "num_threads = 4\n");
    const MeshConfig config = MeshConfig::fromParams(pin);
    EXPECT_EQ(config.numThreads, 4);

    MeshConfig bad = config;
    bad.numThreads = 0;
    EXPECT_THROW(bad.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Headline equivalence: a threaded numeric AMR run must reproduce the
// serial run exactly — same block structure, bit-identical conserved
// variables, identical timestep history and profiler totals. Since the
// task-graph driver, this covers the full asynchronous stage graph:
// per-block sends, polling receive tasks, unpacks, flux correction and
// updates all dispatched concurrently on the ThreadPoolSpace.
// ---------------------------------------------------------------------

struct RippleRun
{
    std::vector<std::string> locs;
    std::vector<std::vector<double>> cons;
    std::vector<double> dts;
    std::size_t finalBlocks = 0;
    KernelProfiler profiler;
};

RippleRun
runRipple(int num_threads, bool optimize_aux = false)
{
    RippleRun out;
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
    mesh_config.optimizeAuxMemory = optimize_aux;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(2);

    BurgersConfig burgers_config;
    burgers_config.numScalars = 4;
    burgers_config.refineTol = 0.05;
    burgers_config.derefineTol = 0.015;
    BurgersPackage package(burgers_config);
    GradientTagger tagger(package);

    DriverConfig driver_config;
    driver_config.ncycles = 3;
    EvolutionDriver driver(mesh, package, world, tagger, driver_config);
    driver.initialize();
    driver.run();

    for (const auto& stats : driver.history())
        out.dts.push_back(stats.dt);
    out.finalBlocks = mesh.numBlocks();
    for (const auto& block : mesh.blocks()) {
        out.locs.push_back(block->loc().str());
        const RealArray4& cons = block->cons();
        out.cons.emplace_back(cons.data(), cons.data() + cons.size());
    }
    out.profiler = profiler;
    return out;
}

TEST(ExecutionSpace, ThreadedNumericRunMatchesSerialExactly)
{
    const RippleRun serial = runRipple(1);
    for (int threads : {2, 4}) {
        const RippleRun threaded = runRipple(threads);

        ASSERT_EQ(serial.finalBlocks, threaded.finalBlocks);
        ASSERT_EQ(serial.locs, threaded.locs);
        ASSERT_EQ(serial.dts.size(), threaded.dts.size());
        for (std::size_t c = 0; c < serial.dts.size(); ++c)
            EXPECT_EQ(serial.dts[c], threaded.dts[c])
                << threads << " threads, cycle " << c;

        ASSERT_EQ(serial.cons.size(), threaded.cons.size());
        for (std::size_t b = 0; b < serial.cons.size(); ++b) {
            ASSERT_EQ(serial.cons[b].size(), threaded.cons[b].size());
            // Bitwise comparison: elementwise kernels compute each
            // cell identically and min/max reductions are
            // chunking-exact, so the conserved state may not drift by
            // even one ulp — task scheduling order included.
            EXPECT_EQ(
                std::memcmp(serial.cons[b].data(),
                            threaded.cons[b].data(),
                            serial.cons[b].size() * sizeof(double)),
                0)
                << threads << " threads, block " << serial.locs[b];
        }
    }
}

TEST(ExecutionSpace, SharedScratchSerializesFluxTasksCorrectly)
{
    // With the §VIII-B shared reconstruction scratch lent to every
    // block, per-block flux tasks run concurrently under the threaded
    // executor (they reconstruct in per-chunk pencil scratch, never in
    // the lent arrays); the result must still match the serial run
    // bitwise.
    const RippleRun serial = runRipple(1, true);
    const RippleRun threaded = runRipple(4, true);
    ASSERT_EQ(serial.locs, threaded.locs);
    ASSERT_EQ(serial.cons.size(), threaded.cons.size());
    for (std::size_t b = 0; b < serial.cons.size(); ++b)
        EXPECT_EQ(std::memcmp(serial.cons[b].data(),
                              threaded.cons[b].data(),
                              serial.cons[b].size() * sizeof(double)),
                  0)
            << "block " << serial.locs[b];
}

TEST(ExecutionSpace, ProfilerTotalsIdenticalAcrossBackends)
{
    const RippleRun serial = runRipple(1);
    const RippleRun threaded = runRipple(4);

    EXPECT_EQ(serial.profiler.totalLaunches(),
              threaded.profiler.totalLaunches());
    EXPECT_DOUBLE_EQ(serial.profiler.totalItems(),
                     threaded.profiler.totalItems());

    const auto& a = serial.profiler.kernels();
    const auto& b = threaded.profiler.kernels();
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, stats] : a) {
        const auto it = b.find(key);
        ASSERT_NE(it, b.end()) << key.first << "/" << key.second;
        EXPECT_EQ(stats.launches, it->second.launches);
        EXPECT_DOUBLE_EQ(stats.items, it->second.items);
        EXPECT_DOUBLE_EQ(stats.flops, it->second.flops);
        EXPECT_DOUBLE_EQ(stats.bytes, it->second.bytes);
    }
}


// ---------------------------------------------------------------------
// Whole-mesh sweeps (parForBlocks): saveState, fillDerived,
// estimateTimestep, massHistory and gradient tagging are each ONE pool
// launch over the owned blocks, with every block's kernels run in-line
// on its worker. The oracle below is a test-only copy of the per-block
// loops they replaced — the ambient rank set before each block and read
// back by one top-level launch per block kernel — and the sweeps must
// reproduce it bitwise at the same thread count (per-block mass
// partials follow the thread count's chunk partition), record for
// record.
// ---------------------------------------------------------------------

enum class SweepPkg { Advection, Burgers, Reaction };

/** The sweeps' outputs plus the records they left in the profiler. */
struct SweepResult
{
    std::vector<std::vector<double>> derived, cons0;
    std::vector<int> tags;
    double dt = 0, mass = 0;
    /** Ambient rank after each sweep (trailing-record attribution). */
    std::vector<int> ambient;
    KernelProfiler profiler;
};

/** Oracle: the per-block saveState loop. */
void
oracleSaveState(Mesh& mesh)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "WeightedSumData");
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const KernelCosts costs{0.0, ncomp * 2.0 * sizeof(double)};
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        RealArray4& cons = block->cons();
        RealArray4& cons0 = block->cons0();
        parForRows(ctx, "WeightedSumData", costs, s.ks(), s.ke(), s.js(),
                   s.je(), s.is(), s.ie(), [&](int k, int j) {
                       for (int n = 0; n < ncomp; ++n)
                           std::copy_n(&cons(n, k, j, s.is()),
                                       s.ie() - s.is() + 1,
                                       &cons0(n, k, j, s.is()));
                   });
    }
}

/** Oracle: the per-block fillDerived loop; `cell` writes one cell. */
template <typename Cell>
void
oracleFillDerived(Mesh& mesh, const KernelCosts& costs, Cell cell)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "FillDerived");
    const BlockShape s = mesh.config().blockShape();
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        recordSerial(ctx, "string_lookup",
                     static_cast<double>(mesh.registry().all().size()));
        RealArray4& cons = block->cons();
        RealArray4& derived = block->derived();
        parFor(ctx, "CalculateDerived", costs, s.ks(), s.ke(), s.js(),
               s.je(), s.is(), s.ie(), [&](int k, int j, int i) {
                   cell(cons, derived, k, j, i);
               });
    }
}

/** Oracle: the per-block estimateTimestep loop (before the cfl factor). */
template <typename CellDt>
double
oracleEstimateTimestep(Mesh& mesh, RankWorld& world, double start,
                       CellDt cell_dt)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "EstimateTimestep");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{10.0, 3.0 * sizeof(double)};
    double dt = start;
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        double block_dt = dt;
        const RealArray4& cons = block->cons();
        const BlockGeometry& g = block->geom();
        parReduceAt(ctx, "EstimateTimestep", ctx.currentRank(),
                    "EstTimeMesh", costs, ReduceOp::Min, block_dt, s.ks(),
                    s.ke(), s.js(), s.je(), s.is(), s.ie(),
                    [&](int k, int j, int i, double& acc) {
                        acc = std::min(acc, cell_dt(cons, g, k, j, i));
                    });
        dt = std::min(dt, block_dt);
        recordSerial(ctx, "dt_reduce", 1.0);
    }
    dt = world.allReduceValue(mesh.collectiveRank(), dt, CollOp::Min,
                              sizeof(double));
    recordSerial(ctx, "collective", 1.0);
    return dt;
}

/** Oracle: the per-block massHistory loop; `cell` is one cell's mass. */
template <typename Cell>
double
oracleMassHistory(Mesh& mesh, RankWorld& world, const KernelCosts& costs,
                  Cell cell)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "other");
    const BlockShape s = mesh.config().blockShape();
    std::vector<BlockPartial> partials;
    partials.reserve(mesh.ownedBlocks().size());
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        RealArray4& cons = block->cons();
        const double vol = block->geom().cellVolume();
        double block_mass = 0.0;
        parReduceAt(ctx, "other", ctx.currentRank(), "MassHistory",
                    costs, ReduceOp::Sum, block_mass, s.ks(), s.ke(),
                    s.js(), s.je(), s.is(), s.ie(),
                    [&](int k, int j, int i, double& acc) {
                        acc += cell(cons, k, j, i) * vol;
                    });
        partials.push_back({block->gid(), block_mass});
    }
    const double mass =
        foldBlockPartials(mesh, world, std::move(partials));
    recordSerial(ctx, "collective", 1.0);
    return mass;
}

/** Oracle: the per-block GradientTagger loop. */
void
oracleTagAll(Mesh& mesh, const PackageDescriptor& package)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "Refinement::Tag");
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        block->setTag(package.tagBlock(*block, ctx));
        recordSerial(ctx, "refine_check", 1.0);
    }
}

/** Constant-velocity cell dt (advection, reaction). */
struct VelocityDt
{
    double vx, vy, vz;
    int ndim;
    double operator()(const RealArray4&, const BlockGeometry& g, int,
                      int, int) const
    {
        constexpr double tiny = 1e-12;
        double cell_dt = g.dx1 / (std::fabs(vx) + tiny);
        if (ndim >= 2)
            cell_dt = std::min(cell_dt, g.dx2 / (std::fabs(vy) + tiny));
        if (ndim >= 3)
            cell_dt = std::min(cell_dt, g.dx3 / (std::fabs(vz) + tiny));
        return cell_dt;
    }
};

/** Every sweep through the oracle, with each package's cell math. */
void
runOracleSweeps(SweepPkg kind, const PackageDescriptor& package,
                Mesh& mesh, RankWorld& world, double fallback_dt,
                std::vector<int>& ambient, double& dt, double& mass)
{
    const ExecContext& ctx = mesh.ctx();
    const int ndim = mesh.config().ndim;
    oracleSaveState(mesh);
    ambient.push_back(ctx.currentRank());
    switch (kind) {
      case SweepPkg::Advection: {
        const auto& config =
            static_cast<const AdvectionPackage&>(package).config();
        oracleFillDerived(mesh, {2.0, 2.0 * sizeof(double)},
                          [](const RealArray4& cons, RealArray4& derived,
                             int k, int j, int i) {
                              const double phi = cons(0, k, j, i);
                              derived(0, k, j, i) = 0.5 * phi * phi;
                          });
        ambient.push_back(ctx.currentRank());
        dt = config.cfl *
             oracleEstimateTimestep(
                 mesh, world, fallback_dt / config.cfl,
                 VelocityDt{config.vx, config.vy, config.vz, ndim});
        ambient.push_back(ctx.currentRank());
        mass = oracleMassHistory(
            mesh, world, {2.0, 1.0 * sizeof(double)},
            [](const RealArray4& cons, int k, int j, int i) {
                return cons(0, k, j, i);
            });
        break;
      }
      case SweepPkg::Burgers: {
        const auto& config =
            static_cast<const BurgersPackage&>(package).config();
        oracleFillDerived(mesh, {6.0, 6.0 * sizeof(double)},
                          [](const RealArray4& cons, RealArray4& derived,
                             int k, int j, int i) {
                              const double u1 = cons(0, k, j, i);
                              const double u2 = cons(1, k, j, i);
                              const double u3 = cons(2, k, j, i);
                              const double q0 = cons(3, k, j, i);
                              derived(0, k, j, i) =
                                  0.5 * q0 * (u1 * u1 + u2 * u2 + u3 * u3);
                          });
        ambient.push_back(ctx.currentRank());
        dt = config.cfl *
             oracleEstimateTimestep(
                 mesh, world, fallback_dt / config.cfl,
                 [ndim](const RealArray4& cons, const BlockGeometry& g,
                        int k, int j, int i) {
                     constexpr double tiny = 1e-12;
                     double cell_dt =
                         g.dx1 / (std::fabs(cons(0, k, j, i)) + tiny);
                     if (ndim >= 2)
                         cell_dt = std::min(
                             cell_dt,
                             g.dx2 / (std::fabs(cons(1, k, j, i)) + tiny));
                     if (ndim >= 3)
                         cell_dt = std::min(
                             cell_dt,
                             g.dx3 / (std::fabs(cons(2, k, j, i)) + tiny));
                     return cell_dt;
                 });
        ambient.push_back(ctx.currentRank());
        mass = oracleMassHistory(
            mesh, world, {2.0, 1.0 * sizeof(double)},
            [](const RealArray4& cons, int k, int j, int i) {
                return cons(3, k, j, i);
            });
        break;
      }
      case SweepPkg::Reaction: {
        const auto& config =
            static_cast<const ReactionPackage&>(package).config();
        oracleFillDerived(mesh, {1.0, 3.0 * sizeof(double)},
                          [](const RealArray4& cons, RealArray4& derived,
                             int k, int j, int i) {
                              derived(0, k, j, i) =
                                  cons(0, k, j, i) * cons(1, k, j, i);
                          });
        ambient.push_back(ctx.currentRank());
        dt = std::min(
            config.cfl *
                oracleEstimateTimestep(
                    mesh, world, fallback_dt / config.cfl,
                    VelocityDt{config.vx, config.vy, config.vz, ndim}),
            0.5 / std::max(config.rate, 1e-12));
        ambient.push_back(ctx.currentRank());
        mass = oracleMassHistory(
            mesh, world, {4.0, 2.0 * sizeof(double)},
            [](const RealArray4& cons, int k, int j, int i) {
                return cons(0, k, j, i) + cons(1, k, j, i);
            });
        break;
      }
    }
    ambient.push_back(ctx.currentRank());
    oracleTagAll(mesh, package);
    ambient.push_back(ctx.currentRank());
}

/**
 * Test-only space: runs every launch on a ThreadPoolSpace and, after
 * each chunk, checks that the context's ambient rank is still what it
 * was when the launch began. Sweep bodies run concurrently on workers
 * and must not write it; a body that does shows here every time, not
 * only when a race happens to interleave two workers' writes.
 */
class AmbientProbeSpace final : public ExecutionSpace
{
  public:
    explicit AmbientProbeSpace(int num_threads) : pool_(num_threads) {}

    const char* name() const override { return "ambient-probe"; }
    int concurrency() const override { return pool_.concurrency(); }
    void forEachChunk(std::int64_t n, ChunkFn fn, void* body) override
    {
        Probe probe{this, fn, body, ctx_->currentRank()};
        pool_.forEachChunk(
            n,
            [](void* p, std::int64_t begin, std::int64_t end, int chunk) {
                auto* probe = static_cast<Probe*>(p);
                probe->fn(probe->body, begin, end, chunk);
                if (probe->space->ctx_->currentRank() != probe->rank)
                    probe->space->writes_.fetch_add(1);
            },
            &probe);
    }

    void watch(const ExecContext* ctx) { ctx_ = ctx; }
    int ambientWrites() const { return writes_.load(); }
    void resetWrites() { writes_.store(0); }

  private:
    struct Probe
    {
        AmbientProbeSpace* space;
        ChunkFn fn;
        void* body;
        int rank;
    };

    ThreadPoolSpace pool_;
    const ExecContext* ctx_ = nullptr;
    std::atomic<int> writes_{0};
};

/** A 3-level mesh of `kind`, refined by the driver's initialization. */
struct SweepSim
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    std::unique_ptr<PackageDescriptor> package;
    VariableRegistry registry;
    std::shared_ptr<AmbientProbeSpace> probe; ///< Null at 1 thread.
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    std::unique_ptr<GradientTagger> tagger;
    std::unique_ptr<EvolutionDriver> driver;

    SweepSim(SweepPkg kind, int num_threads, int num_ranks)
    {
        switch (kind) {
          case SweepPkg::Advection: {
            AdvectionConfig config;
            config.refineTol = 0.02;
            config.derefineTol = 0.002;
            package = std::make_unique<AdvectionPackage>(config);
            break;
          }
          case SweepPkg::Burgers: {
            BurgersConfig config;
            config.numScalars = 1;
            config.refineTol = 0.02;
            config.derefineTol = 0.002;
            package = std::make_unique<BurgersPackage>(config);
            break;
          }
          case SweepPkg::Reaction: {
            ReactionConfig config;
            config.refineTol = 0.02;
            config.derefineTol = 0.002;
            package = std::make_unique<ReactionPackage>(config);
            break;
          }
        }
        registry = package->buildRegistry();
        if (num_threads > 1)
            probe = std::make_shared<AmbientProbeSpace>(num_threads);
        ctx = std::make_unique<ExecContext>(ExecMode::Execute, &profiler,
                                            &tracker, probe);
        if (probe)
            probe->watch(ctx.get());
        MeshConfig mesh_config;
        mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = 16;
        mesh_config.blockNx1 = mesh_config.blockNx2 =
            mesh_config.blockNx3 = 8;
        mesh_config.amrLevels = 3;
        mesh_config.numThreads = num_threads;
        mesh = std::make_unique<Mesh>(mesh_config, registry, *ctx);
        world = std::make_unique<RankWorld>(num_ranks);
        tagger = std::make_unique<GradientTagger>(*package);
        driver = std::make_unique<EvolutionDriver>(
            *mesh, *package, *world, *tagger, DriverConfig{});
        driver->initialize();
    }

    /** Clobber every sweep output so a skipped write shows. */
    void clobber()
    {
        for (MeshBlock* block : mesh->ownedBlocks()) {
            RealArray4& derived = block->derived();
            RealArray4& cons0 = block->cons0();
            std::fill(derived.data(), derived.data() + derived.size(),
                      -7.25);
            std::fill(cons0.data(), cons0.data() + cons0.size(), -7.25);
            block->setTag(RefinementFlag::None);
        }
        ctx->setCurrentRank(-1);
        profiler.reset();
        if (probe)
            probe->resetWrites();
    }

    SweepResult capture(double dt, double mass, std::vector<int> ambient)
    {
        SweepResult out;
        for (MeshBlock* block : mesh->ownedBlocks()) {
            const RealArray4& derived = block->derived();
            const RealArray4& cons0 = block->cons0();
            out.derived.emplace_back(derived.data(),
                                     derived.data() + derived.size());
            out.cons0.emplace_back(cons0.data(),
                                   cons0.data() + cons0.size());
            out.tags.push_back(static_cast<int>(block->tag()));
        }
        out.dt = dt;
        out.mass = mass;
        out.ambient = std::move(ambient);
        out.profiler = profiler;
        return out;
    }

    SweepResult runOracle(SweepPkg kind, double fallback_dt)
    {
        clobber();
        std::vector<int> ambient;
        double dt = 0, mass = 0;
        runOracleSweeps(kind, *package, *mesh, *world, fallback_dt,
                        ambient, dt, mass);
        return capture(dt, mass, std::move(ambient));
    }

    SweepResult runSweeps(double fallback_dt)
    {
        clobber();
        std::vector<int> ambient;
        saveState(*mesh);
        ambient.push_back(ctx->currentRank());
        package->fillDerived(*mesh);
        ambient.push_back(ctx->currentRank());
        const double dt =
            package->estimateTimestep(*mesh, *world, fallback_dt);
        ambient.push_back(ctx->currentRank());
        const double mass = package->massHistory(*mesh, *world);
        ambient.push_back(ctx->currentRank());
        tagger->tagAll(*mesh, 0.0, 0);
        ambient.push_back(ctx->currentRank());
        return capture(dt, mass, std::move(ambient));
    }
};

void
expectSameRecords(const KernelProfiler& oracle, const KernelProfiler& got,
                  const std::string& where)
{
    const auto& a = oracle.kernels();
    const auto& b = got.kernels();
    ASSERT_EQ(a.size(), b.size()) << where;
    for (const auto& [key, stats] : a) {
        const auto it = b.find(key);
        ASSERT_NE(it, b.end()) << where << " " << key.first << "/"
                               << key.second;
        const std::string at = where + " " + key.first + "/" + key.second;
        EXPECT_EQ(stats.launches, it->second.launches) << at;
        EXPECT_EQ(stats.items, it->second.items) << at;
        EXPECT_EQ(stats.flops, it->second.flops) << at;
        EXPECT_EQ(stats.bytes, it->second.bytes) << at;
        EXPECT_EQ(stats.itemsByRank, it->second.itemsByRank) << at;
    }
    const auto& sa = oracle.serial();
    const auto& sb = got.serial();
    ASSERT_EQ(sa.size(), sb.size()) << where;
    for (const auto& [key, stats] : sa) {
        const auto it = sb.find(key);
        ASSERT_NE(it, sb.end()) << where << " " << key.first << "/"
                                << key.second;
        const std::string at = where + " " + key.first + "/" + key.second;
        EXPECT_EQ(stats.items, it->second.items) << at;
        EXPECT_EQ(stats.itemsByRank, it->second.itemsByRank) << at;
    }
}

bool
sameBits(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

TEST(WholeMeshSweeps, MatchPerBlockOracleBitwise)
{
    const char* names[] = {"advection", "burgers", "reaction"};
    for (SweepPkg kind :
         {SweepPkg::Advection, SweepPkg::Burgers, SweepPkg::Reaction}) {
        // One modeled rank, and a classic mesh whose owned blocks span
        // three modeled ranks (per-block attribution must follow each
        // block, not whichever block a neighbor worker set last).
        for (int ranks : {1, 3}) {
            for (int threads : {1, 2, 4}) {
                const std::string where =
                    std::string(names[static_cast<int>(kind)]) + " " +
                    std::to_string(ranks) + " ranks x " +
                    std::to_string(threads) + " threads";
                SweepSim sim(kind, threads, ranks);
                ASSERT_GT(sim.mesh->ownedBlocks().size(), 8u) << where;
                int max_level = 0;
                for (const MeshBlock* block : sim.mesh->ownedBlocks())
                    max_level = std::max(max_level, block->loc().level);
                ASSERT_EQ(max_level, 2) << where;

                const SweepResult oracle = sim.runOracle(kind, 2e-3);
                const SweepResult got = sim.runSweeps(2e-3);

                EXPECT_EQ(std::memcmp(&oracle.dt, &got.dt, sizeof(double)),
                          0)
                    << where << " dt " << oracle.dt << " vs " << got.dt;
                EXPECT_EQ(
                    std::memcmp(&oracle.mass, &got.mass, sizeof(double)), 0)
                    << where << " mass " << oracle.mass << " vs "
                    << got.mass;
                EXPECT_EQ(oracle.tags, got.tags) << where;
                EXPECT_EQ(oracle.ambient, got.ambient) << where;
                ASSERT_EQ(oracle.derived.size(), got.derived.size());
                for (std::size_t b = 0; b < oracle.derived.size(); ++b) {
                    EXPECT_TRUE(sameBits(oracle.derived[b], got.derived[b]))
                        << where << " derived, block " << b;
                    EXPECT_TRUE(sameBits(oracle.cons0[b], got.cons0[b]))
                        << where << " cons0, block " << b;
                }
                expectSameRecords(oracle.profiler, got.profiler, where);
                if (sim.probe)
                    EXPECT_EQ(sim.probe->ambientWrites(), 0)
                        << where << ": a sweep body wrote the ambient rank";
            }
        }
    }
}

// ---------------------------------------------------------------------
// Launch amortization: a steady cycle's pool fork-joins must not grow
// with the block count. Each whole-mesh sweep and each stage graph is
// one top-level launch, so 64 and 512 blocks issue the same number.
// ---------------------------------------------------------------------

std::uint64_t
steadyCycleLaunches(int nx1, int nx2)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto space = std::make_shared<ThreadPoolSpace>(2);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker, space);
    AdvectionPackage package(AdvectionConfig{});
    const VariableRegistry registry = package.buildRegistry();
    MeshConfig mesh_config;
    mesh_config.ndim = 2;
    mesh_config.nx1 = nx1;
    mesh_config.nx2 = nx2;
    mesh_config.nx3 = 1;
    mesh_config.blockNx1 = mesh_config.blockNx2 = 8;
    mesh_config.blockNx3 = 1;
    mesh_config.amrLevels = 1;
    mesh_config.numThreads = 2;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(1);
    GradientTagger tagger(package);
    EvolutionDriver driver(mesh, package, world, tagger, DriverConfig{});
    driver.initialize();
    driver.doCycle();
    const std::uint64_t before = space->launches();
    driver.doCycle();
    return space->launches() - before;
}

TEST(WholeMeshSweeps, SteadyCycleLaunchCountIndependentOfBlockCount)
{
    const std::uint64_t small = steadyCycleLaunches(64, 64);    // 64
    const std::uint64_t large = steadyCycleLaunches(256, 128);  // 512
    EXPECT_GT(small, 0u);
    EXPECT_EQ(small, large);
}

} // namespace
} // namespace vibe
