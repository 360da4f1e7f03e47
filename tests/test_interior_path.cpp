/**
 * @file test_interior_path.cpp
 * The engine's one interior path — the per-block stage task graph —
 * on a remeshing Burgers ripple: threaded execution (2 and 4 pool
 * workers) is bitwise identical to the serial run across the
 * restructure, and the §VIII-B shared-scratch memory layout
 * (`optimizeAuxMemory`, a model term only) leaves results bitwise
 * unchanged. On a rank-sharded 3-level mesh, where both task shapes
 * occur (flux-correction participants' flux -> correction -> update
 * chain, and every other block's one fluxes-and-update task), the
 * stage graph orders every update after every direct boundary row that
 * reads a live interior, and every participant's update (which holds
 * its divergence) after every direct flux row.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "pkg/burgers_package.hpp"
#include "shard_harness.hpp"

namespace vibe {
namespace {

struct RippleRun
{
    std::vector<std::string> locs;
    std::vector<std::vector<double>> cons;
    std::vector<std::vector<double>> derived;
    std::vector<double> dts;
    std::int64_t remeshEvents = 0;
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
    BurgersPackage package(burgers_config);
    // Analytic moving shell, off-center so the sweep refines AND
    // derefines within a few cycles — the run must restructure
    // mid-flight, so stage graphs are rebuilt over a new block list
    // and a new boundary plan. (A center at 0.5^3 sits on the corner
    // shared by every block and freezes the structure.)
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
expectBitwiseEqual(const RippleRun& a, const RippleRun& b,
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

TEST(InteriorPath, ThreadedGraphMatchesSerialBitwise)
{
    const RippleRun serial = runRipple(1);
    // The ripple workload remeshes during these cycles, so the threaded
    // runs cover stage graphs built over a restructured mesh.
    ASSERT_GT(serial.remeshEvents, 0);
    for (int threads : {2, 4}) {
        const RippleRun threaded = runRipple(threads);
        EXPECT_EQ(threaded.remeshEvents, serial.remeshEvents);
        expectBitwiseEqual(serial, threaded,
                           "per-block graph @" + std::to_string(threads) +
                               " threads vs serial");
    }
}

TEST(InteriorPath, SharedScratchLayoutMatchesBitwise)
{
    // optimizeAuxMemory swaps the per-block "mesh/recon" model term for
    // the shared "mesh/recon_pool" term. Neither backs storage (the
    // flux kernels reconstruct in per-chunk pencil scratch), so the
    // layout must not change a single bit of the solution.
    const RippleRun per_block_scratch = runRipple(1, false);
    for (int threads : {1, 4}) {
        const RippleRun shared = runRipple(threads, true);
        expectBitwiseEqual(per_block_scratch, shared,
                           "shared-scratch layout @" +
                               std::to_string(threads) + " threads");
    }
}

/** Task ids whose names start with `prefix`. */
std::vector<TaskId>
tasksNamed(const TaskList& tl, const std::string& prefix)
{
    std::vector<TaskId> ids;
    for (TaskId id = 0; id < static_cast<TaskId>(tl.size()); ++id)
        if (tl.name(id).rfind(prefix, 0) == 0)
            ids.push_back(id);
    return ids;
}

TEST(InteriorPath, StageGraphOrdersUpdatesAfterDirectRows)
{
    // The direct rows' ordering contract (boundary_plan.hpp): a direct
    // bounds row reads its sender's live interior, so no update
    // (WeightedSumData or FluxesAndUpdate) may start before every such
    // row has run; a direct flux row overwrites coarse faces, so no
    // participant's WeightedSumData (the fused divergence) may start
    // before every such row has run. Checked on both ranks of a 2-rank
    // team that reached three levels.
    using namespace shard_test;
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    RankTeam team(shardMeshConfig(2, 2, 3), registry, *package,
                  shardDriverConfig(), [](int) {
                      return std::make_unique<SphericalWaveTagger>(
                          shardWaveParams());
                  });
    team.run();
    ASSERT_EQ(team.mesh(0).maxPresentLevel(), 2);

    for (int rank = 0; rank < 2; ++rank) {
        const TaskList tl = team.driver(rank).buildStageGraph(1, true);
        // Dependencies always point to earlier ids, so one forward
        // pass computes every task's transitive ancestors.
        const std::size_t n = tl.size();
        std::vector<std::vector<bool>> ancestor(n, std::vector<bool>(n));
        for (TaskId id = 0; id < static_cast<TaskId>(n); ++id)
            for (TaskId dep : tl.deps(id)) {
                ASSERT_LT(dep, id);
                ancestor[id][dep] = true;
                for (std::size_t a = 0; a < n; ++a)
                    if (ancestor[dep][a])
                        ancestor[id][a] = true;
            }

        const std::string where = "rank " + std::to_string(rank);
        const auto bounds_local =
            tasksNamed(tl, "SetBounds:plan:bounds:local:part");
        const auto flux_local =
            tasksNamed(tl, "FluxCorrApply:plan:flux:local:part");
        const auto flux_send =
            tasksNamed(tl, "FluxCorrSend:plan:flux:begin");
        const auto updates = tasksNamed(tl, "WeightedSumData:");
        const auto flux_tasks = tasksNamed(tl, "CalculateFluxes:");
        const auto one_task = tasksNamed(tl, "FluxesAndUpdate:");
        ASSERT_EQ(bounds_local.size(),
                  static_cast<std::size_t>(GhostExchange::kFusedPartitions))
            << where;
        ASSERT_EQ(flux_local.size(),
                  static_cast<std::size_t>(GhostExchange::kFusedPartitions))
            << where;
        ASSERT_EQ(flux_send.size(), 1u) << where;
        // Both shapes occur: participants take the chain, the rest one
        // task, and every owned block takes exactly one of them.
        std::size_t participants = 0;
        for (const MeshBlock* block : team.mesh(rank).ownedBlocks())
            participants += block->fluxCorrection() ? 1 : 0;
        ASSERT_GT(participants, 0u) << where;
        ASSERT_EQ(updates.size(), participants) << where;
        ASSERT_EQ(flux_tasks.size(), participants) << where;
        ASSERT_FALSE(one_task.empty()) << where;
        EXPECT_EQ(updates.size() + one_task.size(),
                  team.mesh(rank).ownedBlocks().size())
            << where;

        std::vector<TaskId> all_updates = updates;
        all_updates.insert(all_updates.end(), one_task.begin(),
                           one_task.end());
        for (TaskId update : all_updates)
            for (TaskId row : bounds_local)
                EXPECT_TRUE(ancestor[update][row])
                    << where << ": " << tl.name(update)
                    << " does not wait for " << tl.name(row);
        for (TaskId update : updates)
            for (TaskId row : flux_local)
                EXPECT_TRUE(ancestor[update][row])
                    << where << ": " << tl.name(update)
                    << " does not wait for " << tl.name(row);
        // The correction waits on participants' flux tasks only: a
        // one-task block's fluxes are neither sent nor corrected.
        for (TaskId flux : flux_tasks)
            EXPECT_TRUE(ancestor[flux_send[0]][flux])
                << where << ": flux send does not wait for "
                << tl.name(flux);
        for (TaskId block_task : one_task)
            EXPECT_FALSE(ancestor[flux_send[0]][block_task])
                << where << ": flux send waits for "
                << tl.name(block_task);

        // The bounds direct rows overlap the cross-rank send: they wait
        // for the cycle start only.
        const auto start = tasksNamed(tl, "StartReceiveBoundBufs");
        ASSERT_EQ(start.size(), 1u) << where;
        for (TaskId row : bounds_local)
            EXPECT_EQ(tl.deps(row), std::vector<TaskId>{start[0]})
                << where << ": " << tl.name(row);
        // The set's end step recycles payloads into the next send, so
        // it must follow this stage's send.
        const auto send_begin =
            tasksNamed(tl, "SendBoundBufs:plan:bounds:begin");
        const auto set_end = tasksNamed(tl, "SetBounds:plan:bounds:end");
        ASSERT_EQ(send_begin.size(), 1u) << where;
        ASSERT_EQ(set_end.size(), 1u) << where;
        EXPECT_TRUE(ancestor[set_end[0]][send_begin[0]]) << where;
    }
}

TEST(InteriorPath, SingleLevelBlocksRunOneTaskEach)
{
    // A single-level mesh has no flux correction: every block runs one
    // FluxesAndUpdate task with its fluxes in the worker's scratch, and
    // no block stores flux arrays.
    using namespace shard_test;
    auto package = makePackage("burgers");
    VariableRegistry registry = package->buildRegistry();
    RankTeam team(shardMeshConfig(2, 2, 1), registry, *package,
                  shardDriverConfig(), [](int) {
                      return std::make_unique<SphericalWaveTagger>(
                          shardWaveParams());
                  });
    team.run();
    for (int rank = 0; rank < 2; ++rank) {
        const std::string where = "rank " + std::to_string(rank);
        const TaskList tl = team.driver(rank).buildStageGraph(1, false);
        const auto& owned = team.mesh(rank).ownedBlocks();
        EXPECT_EQ(tasksNamed(tl, "FluxesAndUpdate:").size(), owned.size())
            << where;
        EXPECT_TRUE(tasksNamed(tl, "CalculateFluxes:").empty()) << where;
        EXPECT_TRUE(tasksNamed(tl, "WeightedSumData:").empty()) << where;
        EXPECT_TRUE(tasksNamed(tl, "FluxCorr").empty()) << where;
        for (const MeshBlock* block : owned) {
            EXPECT_FALSE(block->fluxCorrection()) << where;
            for (int d = 0; d < 3; ++d)
                EXPECT_TRUE(block->flux(d).empty()) << where;
        }
    }
}

} // namespace
} // namespace vibe
