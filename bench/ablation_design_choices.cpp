/**
 * @file ablation_design_choices.cpp
 * Ablation benches for the design choices the paper calls out:
 *  - boundary-key randomization in InitializeBufferCache (§VIII-A,
 *    its modeled serial cost);
 *  - restriction-on-send vs sending fine-resolution data (§II-C);
 *  - string-based variable lookup cost (§VIII-A);
 *  - kernel-launch overhead sensitivity of small-block GPU runs.
 */
#include "bench_util.hpp"
#include "perfmodel/serial_model.hpp"

int
main()
{
    using namespace vibe;
    using namespace vibe::bench;
    banner("Ablations", "design choices called out in the paper");

    // --- Boundary-key randomization (§VIII-A) ---
    {
        Table table("InitializeBufferCache key randomization");
        table.setHeader(
            {"variant", "buffer-cache serial items", "GPU 1R total"});
        auto spec = workload(64, 8, 3, 6);
        spec.platform = PlatformConfig::gpu(1, 1);
        auto result = Experiment(spec).run();
        const double items =
            result.profiler.serialByCategory("buffer_cache_keys");
        table.addRow({"sort + randomize (Parthenon)", formatSig(items, 4),
                      formatSeconds(result.report.totalTime)});
        table.addNote("modeled serial items of Parthenon's key sort and "
                      "shuffle (§VIII-A); this engine builds its channels "
                      "in canonical key order and exchanges through a "
                      "plan directory, so no shuffle exists to ablate");
        table.print(std::cout);
    }

    // --- Restriction-on-send (§II-C) ---
    {
        auto spec = workload(64, 8, 3, 6);
        spec.platform = PlatformConfig::gpu(1, 1);
        auto result = Experiment(spec).run();
        // Fine->coarse channels carry restricted (coarse) cells; the
        // unrestricted alternative would ship 2^3 x as many.
        double restricted = 0, faces_total = 0;
        for (const auto& s : result.history) {
            faces_total += static_cast<double>(s.wireFaces);
            (void)s;
        }
        restricted = static_cast<double>(result.commCells);
        Table table("\nRestriction before fine->coarse sends");
        table.setHeader({"quantity", "value"});
        table.addRow({"ghost cells on wire (restricted)",
                      formatSig(restricted, 4)});
        table.addRow({"flux-correction faces (restricted)",
                      formatSig(faces_total, 4)});
        table.addNote("restricting on send cuts each fine->coarse "
                      "buffer by 8x in 3-D, the §II-C data-volume "
                      "optimization");
        table.print(std::cout);
    }

    // --- String-based variable lookup (§VIII-A) ---
    {
        auto spec = workload(64, 8, 3, 6);
        spec.platform = PlatformConfig::gpu(1, 1);
        auto result = Experiment(spec).run();
        const double lookups =
            result.profiler.serialByCategory("string_lookup");
        SerialModel serial{Calibration{}};
        const double cost_1r = serial.evaluate("string_lookup", lookups,
                                               PlatformConfig::gpu(1, 1));
        Table table("\nString-based variable lookup (§VIII-A)");
        table.setHeader({"quantity", "value"});
        table.addRow({"GetVariablesByFlag string scans",
                      formatSig(lookups, 4)});
        table.addRow({"modeled cost at 1 rank",
                      formatSeconds(cost_1r)});
        table.addRow({"integer-indexing alternative", "~0 (compile-time"
                      " offsets; our hot loops already use them)"});
        table.print(std::cout);
    }

    // --- Launch-overhead sensitivity ---
    {
        Table table("\nKernel-launch overhead sensitivity (B8 GPU 1R)");
        table.setHeader(
            {"launch overhead", "kernel time (s)", "FOM"});
        auto spec = workload(64, 8, 3, 6);
        auto result = Experiment(spec).run(); // workload artifacts
        for (double overhead_us : {2.0, 6.0, 12.0}) {
            Calibration cal;
            cal.gpu.launchOverhead = overhead_us * 1e-6;
            ExecutionModel model(cal);
            RunArtifacts artifacts;
            artifacts.profiler = &result.profiler;
            artifacts.ncycles =
                static_cast<std::int64_t>(result.history.size());
            artifacts.zoneCycles = result.zoneCycles;
            artifacts.kokkosBytes = result.kokkosBytes;
            const auto report =
                model.evaluate(artifacts, PlatformConfig::gpu(1, 1));
            table.addRow({formatFixed(overhead_us, 0) + " us",
                          formatSeconds(report.kernelTime),
                          formatSci(report.fom, 2)});
        }
        table.addNote("small blocks multiply launches; per-launch "
                      "overhead directly erodes small-block GPU FOM");
        table.print(std::cout);
    }
    return 0;
}
