#include "solver/rk2.hpp"

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "exec/par_for.hpp"
#include "obs/trace.hpp"

namespace vibe {

namespace {

/**
 * du = -div(flux) over one (k, j) row of cells [is, ie], component n
 * at du + n * ncell. Each flux array's strides come from that array
 * (flux[0] has ni + 1 faces per row, flux[1] nj + 1 rows, flux[2]
 * nk + 1 planes); arrays of inactive dimensions are never read.
 */
template <int NDim>
inline void
divergenceRow(const FaceFluxes& flux, double* du,
              const double (&inv_dx)[3], int ncomp, int k, int j, int is,
              int ie)
{
    const int ncell = ie - is + 1;
    for (int n = 0; n < ncomp; ++n) {
        const double* x0 = &flux[0](n, k, j, is);
        const double* y0 = nullptr;
        const double* y1 = nullptr;
        const double* z0 = nullptr;
        const double* z1 = nullptr;
        if constexpr (NDim >= 2) {
            y0 = &flux[1](n, k, j, is);
            y1 = &flux[1](n, k, j + 1, is);
        }
        if constexpr (NDim >= 3) {
            z0 = &flux[2](n, k, j, is);
            z1 = &flux[2](n, k + 1, j, is);
        }
        double* out = du + static_cast<std::ptrdiff_t>(n) * ncell;
        for (int i = 0; i < ncell; ++i) {
            double div = (x0[i + 1] - x0[i]) * inv_dx[0];
            if constexpr (NDim >= 2)
                div += (y1[i] - y0[i]) * inv_dx[1];
            if constexpr (NDim >= 3)
                div += (z1[i] - z0[i]) * inv_dx[2];
            out[i] = -div;
        }
    }
}

/**
 * u <- wa*u0 + wb*u + wc*dt*du over one (k, j) row of cells [is, ie],
 * components outer and a unit-stride i loop inner (the same per-cell
 * expression as a cell-by-cell sweep).
 */
inline void
weightedSumRow(RealArray4& cons, const RealArray4& cons0, const double* du,
               double wa, double wb, double wc, double dt, int ncomp, int k,
               int j, int is, int ie)
{
    const int ncell = ie - is + 1;
    for (int n = 0; n < ncomp; ++n) {
        double* u = &cons(n, k, j, is);
        const double* u0 = &cons0(n, k, j, is);
        const double* d = du + static_cast<std::ptrdiff_t>(n) * ncell;
        for (int i = 0; i < ncell; ++i)
            u[i] = wa * u0[i] + wb * u[i] + wc * dt * d[i];
    }
}

/** u0 <- u over one (k, j) row of cells [is, ie]. */
inline void
saveStateRow(const RealArray4& cons, RealArray4& cons0, int ncomp, int k,
             int j, int is, int ie)
{
    for (int n = 0; n < ncomp; ++n)
        std::copy_n(&cons(n, k, j, is), ie - is + 1, &cons0(n, k, j, is));
}

/** Per-cell costs of the FluxDivergence kernel. */
KernelCosts
fluxDivergenceCosts(int ndim, int ncomp)
{
    return {ncomp * ndim * 3.0,
            ncomp * (2.0 * ndim + 1.0) * sizeof(double)};
}

} // namespace

void
saveState(Mesh& mesh)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "WeightedSumData");
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const KernelCosts costs{0.0, ncomp * 2.0 * sizeof(double)};

    parForBlocks(ctx, mesh.ownedBlocks(), [&](int, MeshBlock& block) {
        RealArray4& cons = block.cons();
        RealArray4& cons0 = block.cons0();
        parForRowsAt(ctx, "WeightedSumData", block.rank(),
                     "WeightedSumData", costs, s.ks(), s.ke(), s.js(),
                     s.je(), s.is(), s.ie(), [&](int k, int j) {
                         saveStateRow(cons, cons0, ncomp, k, j, s.is(),
                                      s.ie());
                     });
    });
}

void
stageUpdateBlock(Mesh& mesh, MeshBlock& block, const FaceFluxes& flux,
                 int stage, double dt, const RowSource* source)
{
    const double wa = stage == 1 ? 1.0 : 0.5;
    const double wb = stage == 1 ? 0.0 : 0.5;
    const double wc = stage == 1 ? 1.0 : 0.5;
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int rank = block.rank();
    const double cells = static_cast<double>(s.interiorCells());

    // The records of the kernels this pass fuses, as if each ran
    // alone: the model (and every counting-mode figure) still sees a
    // divergence that writes a dudt register and an update that reads
    // it. Per cell, the update is ncomp fused multiply-adds over three
    // registers.
    recordKernelAt(ctx, "FluxDivergence", rank, "FluxDivergence", cells,
                   fluxDivergenceCosts(s.ndim, ncomp),
                   static_cast<double>(s.nx1));
    if (source)
        source->recordBlock(ctx, block);
    recordSerialAt(ctx, "WeightedSumData", rank, "string_lookup",
                   static_cast<double>(mesh.registry().all().size()));
    recordKernelAt(ctx, "WeightedSumData", rank, "WeightedSumData", cells,
                   {ncomp * 5.0, ncomp * 4.0 * sizeof(double)},
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    TraceSpan span("WeightedSumData", TraceCat::Kernel, rank, -1,
                   "WeightedSumData");
    const BlockGeometry& g = block.geom();
    const double inv_dx[3] = {1.0 / g.dx1, 1.0 / g.dx2, 1.0 / g.dx3};
    RealArray4& cons = block.cons();
    const RealArray4& cons0 = block.cons0();
    const int is = s.is(), ie = s.ie();
    const std::size_t per_chunk =
        static_cast<std::size_t>(ncomp) * static_cast<std::size_t>(s.nx1);
    double* const scratch = chunkScratch(ctx, per_chunk);
    const auto row = [&](auto ndim_tag) {
        constexpr int kNDim = decltype(ndim_tag)::value;
        parForExecRows(ctx, s.ks(), s.ke(), s.js(), s.je(),
                       [&](int chunk, int k, int j) {
                           double* du = scratch + chunk * per_chunk;
                           divergenceRow<kNDim>(flux, du, inv_dx, ncomp, k,
                                                j, is, ie);
                           if (source)
                               source->addRow(cons, du, k, j, is, ie);
                           weightedSumRow(cons, cons0, du, wa, wb, wc, dt,
                                          ncomp, k, j, is, ie);
                       });
    };
    if (s.ndim >= 3)
        row(std::integral_constant<int, 3>{});
    else if (s.ndim == 2)
        row(std::integral_constant<int, 2>{});
    else
        row(std::integral_constant<int, 1>{});
}

} // namespace vibe
