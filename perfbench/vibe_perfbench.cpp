/**
 * @file vibe_perfbench.cpp
 * Benchmark child: runs ONE Experiment (numeric mode) described on the
 * command line and prints the counters the benchmark reads from it as a
 * single JSON object on stdout. perfbench/run.py starts one process per
 * repetition, so the process's peak RSS is that run's alone.
 *
 * The call to Experiment::run is timed here, from outside: the
 * ExperimentResult::wallSeconds field covers different spans on the
 * single-rank path (evolve only, no mesh construction or teardown) and
 * on the rank-team path (construction included), so it cannot serve as
 * a common FOM denominator or set-up measure.
 *
 *   vibe_perfbench --package advection --mesh 32 --block 8 --levels 3
 *                  --ranks 2 --threads 2 --cycles 20
 *                  [--scalars N] [--param BLOCK KEY VALUE]...
 *                  [--lb-cost uniform|measured] [--lb-trigger X]
 *                  [--metrics PATH] [--trace PATH]
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/experiment.hpp"
#include "obs/trace.hpp"

namespace {

using vibe::ExperimentResult;
using vibe::ExperimentSpec;

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr, "vibe_perfbench: %s\n", why.c_str());
    std::exit(2);
}

ExperimentSpec
parseArgs(int argc, char** argv)
{
    ExperimentSpec spec;
    spec.numeric = true;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value after " + flag);
            return argv[++i];
        };
        auto nextInt = [&]() { return std::stoi(next()); };
        if (flag == "--package")
            spec.package = next();
        else if (flag == "--mesh")
            spec.meshSize = nextInt();
        else if (flag == "--block")
            spec.blockSize = nextInt();
        else if (flag == "--levels")
            spec.amrLevels = nextInt();
        else if (flag == "--ranks")
            spec.numRanks = nextInt();
        else if (flag == "--threads")
            spec.numThreads = nextInt();
        else if (flag == "--cycles")
            spec.ncycles = nextInt();
        else if (flag == "--scalars")
            spec.numScalars = nextInt();
        else if (flag == "--lb-cost")
            spec.lbCost = next();
        else if (flag == "--lb-trigger")
            spec.lbImbalanceTrigger = std::stod(next());
        else if (flag == "--metrics")
            spec.metricsPath = next();
        else if (flag == "--trace")
            spec.tracePath = next();
        else if (flag == "--param") {
            std::string block = next();
            std::string key = next();
            spec.packageParams.push_back({block, key, next()});
        } else
            usage("unknown flag " + flag);
    }
    return spec;
}

/** Doubles round-trip exactly through 17 significant digits. */
void
printNumber(double value)
{
    std::printf("%.17g", value);
}

void
printResult(const ExperimentResult& r, double run_seconds)
{
    std::printf("{\"run_seconds\":");
    printNumber(run_seconds);
    std::printf(",\"zone_cycles\":%lld,\"final_blocks\":%zu,"
                "\"state_bytes\":%zu,\"trace_dropped\":%llu",
                static_cast<long long>(r.zoneCycles), r.finalBlocks,
                r.kokkosBytes,
                static_cast<unsigned long long>(
                    vibe::TraceRecorder::instance().dropped()));

    std::printf(",\"history\":[");
    for (std::size_t i = 0; i < r.history.size(); ++i) {
        const vibe::CycleStats& c = r.history[i];
        std::printf("%s{\"nblocks\":%zu,\"refined\":%d,\"derefined\":%d,"
                    "\"moved_blocks\":%d,\"lb_decision\":%d,"
                    "\"boundary_messages\":%llu,\"boundary_bytes\":",
                    i ? "," : "", c.nblocks, c.refined, c.derefined,
                    c.movedBlocks, c.lbDecision,
                    static_cast<unsigned long long>(c.boundaryMessages));
        printNumber(c.boundaryBytes);
        std::printf(",\"migrated_bytes\":");
        printNumber(c.migratedStorageBytes);
        std::printf(",\"lb_imbalance\":");
        printNumber(c.lbImbalance);
        std::printf(",\"mass\":");
        printNumber(c.mass);
        std::printf(",\"task_wall\":");
        printNumber(c.taskWallSeconds);
        std::printf(",\"busy\":");
        printNumber(c.busySeconds);
        std::printf(",\"idle\":");
        printNumber(c.idleSeconds);
        std::printf(",\"critical_path\":");
        printNumber(c.criticalPathSeconds);
        std::printf("}");
    }
    std::printf("]");

    // Phase/kernel and phase/category names are identifiers from the
    // engine's own sources: they carry no characters JSON must escape.
    std::printf(",\"kernels\":[");
    bool first = true;
    for (const auto& [key, stats] : r.profiler.kernels()) {
        std::printf("%s{\"phase\":\"%s\",\"name\":\"%s\",\"launches\":%llu,"
                    "\"items\":",
                    first ? "" : ",", key.first.c_str(),
                    key.second.c_str(),
                    static_cast<unsigned long long>(stats.launches));
        printNumber(stats.items);
        std::printf(",\"bytes\":");
        printNumber(stats.bytes);
        std::printf("}");
        first = false;
    }
    std::printf("],\"serial\":[");
    first = true;
    for (const auto& [key, stats] : r.profiler.serial()) {
        std::printf("%s{\"phase\":\"%s\",\"category\":\"%s\",\"items\":",
                    first ? "" : ",", key.first.c_str(),
                    key.second.c_str());
        printNumber(stats.items);
        std::printf("}");
        first = false;
    }
    std::printf("]}\n");
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const ExperimentSpec spec = parseArgs(argc, argv);
        const vibe::Experiment experiment(spec);
        const auto start = std::chrono::steady_clock::now();
        const ExperimentResult result = experiment.run();
        const double run_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        printResult(result, run_seconds);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vibe_perfbench: run failed: %s\n", e.what());
        return 1;
    }
    return 0;
}
