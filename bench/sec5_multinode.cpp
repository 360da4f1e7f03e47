/**
 * @file sec5_multinode.cpp
 * Reproduces the Section V multi-node discussion: two-node vs
 * one-node scaling ratios for CPU and GPU platforms, the block-size
 * performance drop across two nodes, and the AMR-level drop at mesh
 * 256^3 — all with one rank per GPU / one rank per core, as in the
 * paper.
 *
 * `--measured` switches from the modeled tables to real rank-sharded
 * execution: 1/2/4 in-process ranks, each a concurrent driver over its
 * own block shard coupled only through RankWorld, reporting measured
 * zone-cycles/s plus the traffic counters (remote messages/bytes,
 * collectives, migrated block storage). `--json <path>` emits the
 * measured points for trajectory tracking.
 */
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"

namespace {

int
runMeasured(int mesh, int block, const std::string& json_path)
{
    using namespace vibe;
    using namespace vibe::bench;
    banner("Sec V (measured)",
           "In-process rank sharding: concurrent per-rank drivers");

    JsonReport report("sec5_multinode_measured");
    Table table("Measured rank scaling, " + std::to_string(mesh) +
                "^3 mesh, B" + std::to_string(block) + ", L2, burgers");
    table.setHeader({"ranks", "threads/rank", "zone-cyc/s", "speedup",
                     "remote msgs", "remote MB", "allreduces",
                     "migrated KB", "bnd msgs/cyc", "bnd MB/cyc",
                     "idle %", "idle s/rank"});

    double base_fom = 0.0;
    for (int ranks : {1, 2, 4}) {
        for (int threads : {1, 2}) {
            ExperimentSpec spec;
            spec.meshSize = mesh;
            spec.blockSize = block;
            spec.amrLevels = 2;
            spec.ncycles = 6;
            spec.numeric = true;
            spec.numRanks = ranks;
            spec.numThreads = threads;
            const ExperimentResult result = Experiment(spec).run();
            if (ranks == 1 && threads == 1)
                base_fom = result.measuredFom();
            // Per-rank idle attribution (src/obs/attribution.hpp):
            // a rank idling far above its peers is starved, one with
            // none is the straggler the balancer should split.
            std::string idle_per_rank;
            for (double idle : result.idle.rankIdleSeconds) {
                if (!idle_per_rank.empty())
                    idle_per_rank += "|";
                idle_per_rank += formatFixed(idle, 2);
            }
            table.addRow(
                {std::to_string(ranks), std::to_string(threads),
                 formatSci(result.measuredFom(), 2),
                 base_fom > 0
                     ? formatRatio(result.measuredFom() / base_fom)
                     : "1.00x",
                 std::to_string(result.traffic.remoteMessages),
                 formatFixed(result.traffic.remoteBytes / 1.0e6, 2),
                 std::to_string(result.traffic.allReduces),
                 formatFixed(result.migratedStorageBytes / 1.0e3, 1),
                 formatFixed(result.messagesPerCycle(), 1),
                 formatFixed(result.boundaryBytesPerCycle() / 1.0e6, 3),
                 formatFixed(100.0 * result.idle.idleFraction(), 1),
                 idle_per_rank});
            const std::vector<std::pair<std::string, std::string>> cfg{
                {"ranks", std::to_string(ranks)},
                {"threads", std::to_string(threads)},
                {"mesh", std::to_string(mesh)},
                {"block", std::to_string(block)}};
            report.add("measured_rank_scaling", cfg,
                       result.wallSeconds);
            report.add("measured_idle_fraction", cfg,
                       result.idle.idleFraction());
            report.add("measured_critical_path_seconds", cfg,
                       result.idle.criticalPathSeconds);
            for (std::size_t r = 0;
                 r < result.idle.rankIdleSeconds.size(); ++r) {
                auto rank_cfg = cfg;
                rank_cfg.push_back({"rank", std::to_string(r)});
                report.add("measured_rank_idle_seconds", rank_cfg,
                           result.idle.rankIdleSeconds[r]);
            }
        }
    }
    table.addNote("N-rank state is bitwise identical to 1-rank "
                  "(tests/test_rank_shard.cpp); differences are pure "
                  "execution.");
    table.print(std::cout);

    // Boundary coalescing at increasing block size. The BoundaryPlan
    // sends O(adjacent rank pairs) messages per phase, not O(faces);
    // smaller blocks mean more faces and more bytes, but no more
    // messages.
    Table coal("\nBoundary coalescing by block size (" +
               std::to_string(mesh) + "^3 mesh, 2 ranks, L2)");
    coal.setHeader(
        {"block", "bnd msgs/cyc", "bnd MB/cyc", "zone-cyc/s"});
    for (int coal_block : {8, 16, 32}) {
        // Periodic meshes need >= 2 blocks per dimension.
        if (2 * coal_block > mesh || mesh % coal_block != 0)
            continue;
        ExperimentSpec spec;
        spec.meshSize = mesh;
        spec.blockSize = coal_block;
        spec.amrLevels = 2;
        spec.ncycles = 4;
        spec.numeric = true;
        spec.numRanks = 2;
        spec.numThreads = 1;
        const ExperimentResult result = Experiment(spec).run();
        coal.addRow(
            {std::to_string(coal_block),
             formatFixed(result.messagesPerCycle(), 1),
             formatFixed(result.boundaryBytesPerCycle() / 1.0e6, 3),
             formatSci(result.measuredFom(), 2)});
        const std::vector<std::pair<std::string, std::string>> cfg{
            {"block", std::to_string(coal_block)},
            {"mesh", std::to_string(mesh)}};
        report.add("boundary_messages_per_cycle", cfg,
                   result.messagesPerCycle());
        report.add("boundary_bytes_per_cycle", cfg,
                   result.boundaryBytesPerCycle());
    }
    coal.addNote("each rank pair's boundary travels as one message "
                 "per phase");
    coal.print(std::cout);

    // Checkpoint overhead: async (double-buffered off-thread drain)
    // vs sync (encode+disk on the critical path), against a
    // no-checkpoint baseline, at two snapshot cadences — every cycle
    // (a deliberate stress) and every 8 cycles (a production-like
    // interval, where the amortized async cost must stay small).
    const std::string ckpt_path = "BENCH_ckpt.bin";
    Table ckpt("\nCheckpoint overhead: async vs sync at snapshot "
               "intervals 1 and 16 (" +
               std::to_string(mesh) + "^3 mesh, B" +
               std::to_string(block) + ", L2)");
    ckpt.setHeader({"ranks", "mode", "every", "wall s", "overhead",
                    "crit %", "capture s", "drain s", "snapshots"});
    for (int ranks : {1, 2}) {
        double base_wall = 0.0;
        for (const auto& [mode, every] :
             std::vector<std::pair<std::string, int>>{{"off", 0},
                                                      {"async", 1},
                                                      {"sync", 1},
                                                      {"async", 16},
                                                      {"sync", 16}}) {
            ExperimentSpec spec;
            spec.meshSize = mesh;
            spec.blockSize = block;
            spec.amrLevels = 2;
            spec.ncycles = 16;
            spec.numeric = true;
            spec.numRanks = ranks;
            spec.numThreads = 1;
            if (mode != "off") {
                spec.checkpointEvery = every;
                spec.checkpointPath = ckpt_path;
                spec.checkpointAsync = mode == "async";
            }
            const ExperimentResult result = Experiment(spec).run();
            if (mode == "off") {
                base_wall = result.wallSeconds;
                ckpt.addRow({std::to_string(ranks), mode, "-",
                             formatFixed(result.wallSeconds, 3), "-",
                             "-", "-", "-", "0"});
                continue;
            }
            const double overhead_pct =
                base_wall > 0 ? 100.0 *
                                    (result.wallSeconds - base_wall) /
                                    base_wall
                              : 0.0;
            // Machine noise swamps a wall-clock difference at small
            // overheads, so also report the deterministic in-run
            // number: capture time (the only critical-path cost in
            // async mode; in sync mode it includes the in-line
            // encode+disk) as a fraction of the run.
            const double crit_pct =
                result.wallSeconds > 0
                    ? 100.0 * result.checkpointCaptureSeconds /
                          result.wallSeconds
                    : 0.0;
            ckpt.addRow(
                {std::to_string(ranks), mode, std::to_string(every),
                 formatFixed(result.wallSeconds, 3),
                 formatFixed(overhead_pct, 1) + "%",
                 formatFixed(crit_pct, 1) + "%",
                 formatFixed(result.checkpointCaptureSeconds, 3),
                 formatFixed(result.checkpointDrainSeconds, 3),
                 std::to_string(result.checkpointsWritten)});
            const std::vector<std::pair<std::string, std::string>> cfg{
                {"ranks", std::to_string(ranks)},
                {"mode", mode},
                {"every", std::to_string(every)},
                {"mesh", std::to_string(mesh)}};
            report.add("checkpoint_overhead_pct", cfg, overhead_pct);
            report.add("checkpoint_critical_path_pct", cfg, crit_pct);
            report.add("checkpoint_capture_seconds", cfg,
                       result.checkpointCaptureSeconds);
            report.add("checkpoint_drain_seconds", cfg,
                       result.checkpointDrainSeconds);
        }
    }
    ckpt.addNote("async deposits the snapshot into a double buffer "
                 "and drains off-thread (only the capture gather is "
                 "on the critical path); sync pays encode+disk "
                 "in-line at every snapshot");
    ckpt.print(std::cout);

    // Supervised recovery: rank 1 dies at cycle 4; the experiment
    // restarts from the last durable checkpoint and finishes.
    Table rec("\nFault recovery: rank death at cycle 4, "
              "restart from the cycle-4 checkpoint");
    rec.setHeader({"ranks", "restarts", "recovery s", "snapshots",
                   "final blocks"});
    {
        ExperimentSpec spec;
        spec.meshSize = mesh;
        spec.blockSize = block;
        spec.amrLevels = 2;
        spec.ncycles = 6;
        spec.numeric = true;
        spec.numRanks = 2;
        spec.numThreads = 1;
        spec.checkpointEvery = 2;
        spec.checkpointPath = ckpt_path;
        spec.maxRestarts = 1;
        spec.failRank = 1;
        spec.failCycle = 4;
        const ExperimentResult result = Experiment(spec).run();
        rec.addRow({"2", std::to_string(result.restarts),
                    formatFixed(result.recoverySeconds, 3),
                    std::to_string(result.checkpointsWritten),
                    std::to_string(result.finalBlocks)});
        const std::vector<std::pair<std::string, std::string>> cfg{
            {"ranks", "2"}, {"mesh", std::to_string(mesh)}};
        report.add("recovery_seconds", cfg, result.recoverySeconds);
        report.add("restarts", cfg,
                   static_cast<double>(result.restarts));
    }
    rec.addNote("continuation is bitwise identical to the "
                "uninterrupted run (tests/test_checkpoint.cpp)");
    rec.print(std::cout);
    std::remove(ckpt_path.c_str());

    // Measured-cost load balancing on the stiff reaction workload,
    // where per-block cost varies several-fold while the uniform model
    // sees identical blocks. bench/lb_imbalance is the full study;
    // this is the one-glance summary at 2 ranks.
    Table lb("\nLoad-balance cost model: uniform vs measured "
             "(reaction hotspot, " +
             std::to_string(mesh) + "^3 uniform mesh, B8, 2 ranks)");
    lb.setHeader({"lb_cost", "zone-cyc/s", "vs uniform",
                  "strag idle %", "moved blocks"});
    {
        double uniform_fom = 0.0;
        for (const std::string cost : {"uniform", "measured"}) {
            ExperimentSpec spec;
            spec.meshSize = mesh;
            spec.blockSize = 8;
            // Same deck as bench/lb_imbalance: uniform mesh (AMR
            // refinement is itself a cost proxy that would mask the
            // signal) and a steepened equilibrium map so the stiff
            // source is a first-order share of step time.
            spec.amrLevels = 1;
            spec.ncycles = 8;
            spec.numeric = true;
            spec.package = "reaction";
            spec.numRanks = 2;
            spec.numThreads = 1;
            spec.lbCost = cost;
            spec.lbImbalanceTrigger = 0.2;
            spec.packageParams = {{"reaction", "stiffness", "6.5"},
                                  {"reaction", "max_iters", "2000"}};
            const ExperimentResult result = Experiment(spec).run();
            if (cost == "uniform")
                uniform_fom = result.measuredFom();
            int moved = 0;
            double graph_wall = 0;
            double busy = 0;
            for (const CycleStats& c : result.history) {
                moved += c.movedBlocks;
                graph_wall += c.taskWallSeconds;
                busy += c.busySeconds;
            }
            // Straggler idle: busy vs the team capacity over the
            // slowest rank's graph windows (bench/lb_imbalance has
            // the full definition and study).
            const double capacity = graph_wall * 2;
            const double strag_idle =
                capacity > 0 ? 1.0 - busy / capacity : 0.0;
            lb.addRow({cost, formatSci(result.measuredFom(), 2),
                       cost == "measured" && uniform_fom > 0
                           ? formatRatio(result.measuredFom() /
                                         uniform_fom)
                           : "1.00x",
                       formatFixed(100.0 * strag_idle, 1),
                       std::to_string(moved)});
            const std::vector<std::pair<std::string, std::string>> cfg{
                {"lb_cost", cost}, {"mesh", std::to_string(mesh)}};
            report.add("lb_cost_wall_seconds", cfg,
                       result.wallSeconds);
            report.add("lb_cost_idle_fraction", cfg,
                       result.idle.idleFraction());
        }
    }
    lb.addNote("state is bitwise identical across cost modes "
               "(tests/test_load_balance_cost.cpp)");
    lb.print(std::cout);

    report.write(json_path);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace vibe;
    using namespace vibe::bench;
    const std::string json_path = extractJsonPath(argc, argv);
    const bool measured = extractFlag(argc, argv, "--measured");
    if (measured) {
        const int mesh = argc > 1 ? std::atoi(argv[1]) : 16;
        const int block = argc > 2 ? std::atoi(argv[2]) : 8;
        return runMeasured(mesh, block, json_path);
    }
    banner("Sec V", "Multi-node scaling (2 nodes vs 1)");

    auto scaling = [&](int mesh, int block, int levels, int cycles) {
        auto spec = workload(mesh, block, levels, cycles);
        const auto cpu1 = run(spec, PlatformConfig::cpu(96, 1));
        const auto cpu2 = run(spec, PlatformConfig::cpu(192, 2));
        const auto gpu1 = run(spec, PlatformConfig::gpu(8, 8, 1));
        const auto gpu2 = run(spec, PlatformConfig::gpu(16, 16, 2));
        return std::array<double, 4>{cpu1.fom(), cpu2.fom(), gpu1.fom(),
                                     gpu2.fom()};
    };

    Table table("Two-node/one-node FOM ratio");
    table.setHeader({"config (mesh, block, levels)", "CPU 2N/1N",
                     "GPU 2N/1N", "paper (CPU / GPU)"});
    {
        const auto s = scaling(128, 8, 3, 5);
        table.addRow({"128, 8, 3", formatRatio(s[1] / s[0]),
                      formatRatio(s[3] / s[2]), "1.63x / 1.51x"});
    }
    {
        const auto s = scaling(128, 16, 3, 6);
        table.addRow({"128, 16, 3", formatRatio(s[1] / s[0]),
                      formatRatio(s[3] / s[2]), "1.85x / 0.95x"});
    }
    expect(table, "CPUs scale across nodes; GPUs scale weakly or "
                  "regress at larger blocks");
    table.print(std::cout);

    // Block-size drop across two nodes (B32 -> B8).
    Table drop("\nB32 -> B8 performance drop across two nodes");
    drop.setHeader({"mesh", "CPU drop", "GPU drop", "paper"});
    for (int mesh : {128, 256}) {
        const int cyc8 = mesh == 256 ? 3 : 5;
        auto b32 = workload(mesh, 32, 3, 6);
        auto b8 = workload(mesh, 8, 3, cyc8);
        const auto cpu32 = run(b32, PlatformConfig::cpu(192, 2));
        const auto cpu8 = run(b8, PlatformConfig::cpu(192, 2));
        const auto gpu32 = run(b32, PlatformConfig::gpu(16, 16, 2));
        const auto gpu8 = run(b8, PlatformConfig::gpu(16, 16, 2));
        drop.addRow({std::to_string(mesh) + "^3",
                     formatRatio(cpu32.fom() / cpu8.fom()),
                     formatRatio(gpu32.fom() / gpu8.fom()),
                     mesh == 128 ? "5.88x / 90.77x"
                                 : "5.73x / 207.83x"});
    }
    expect(drop, "the small-block penalty is far more severe for GPUs "
                 "and grows with mesh size");
    drop.print(std::cout);

    // AMR-level drop at mesh 256, B16: L1 -> L3.
    Table levels("\nL1 -> L3 drop at mesh 256^3, B16 (two nodes)");
    levels.setHeader({"platform", "FOM(L1)/FOM(L3)", "paper"});
    auto l1 = workload(256, 16, 1, 4);
    auto l3 = workload(256, 16, 3, 4);
    const auto cpu_l1 = run(l1, PlatformConfig::cpu(192, 2));
    const auto cpu_l3 = run(l3, PlatformConfig::cpu(192, 2));
    const auto gpu_l1 = run(l1, PlatformConfig::gpu(16, 16, 2));
    const auto gpu_l3 = run(l3, PlatformConfig::gpu(16, 16, 2));
    levels.addRow({"CPU x2N", formatRatio(cpu_l1.fom() / cpu_l3.fom()),
                   "1.22x"});
    levels.addRow({"GPU x2N", formatRatio(gpu_l1.fom() / gpu_l3.fom()),
                   "3.92x"});
    levels.print(std::cout);
    return 0;
}
