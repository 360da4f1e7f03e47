/**
 * @file fv_ops.hpp
 * PDE-agnostic finite-volume operators shared by physics packages.
 *
 * The linear packages (advection, reaction) share the exact upwind
 * flux here. The flux divergence is not a package operator at all: it
 * depends only on the face fluxes, so the stage update
 * (solver/rk2.hpp) fuses it into its row pass for every package.
 *
 * Every operator here is a row kernel: one (k, j) row per body call,
 * components outer and a unit-stride i loop inner, with each array's
 * strides taken from that array (flux arrays are staggered: flux[0]
 * has ni + 1 faces per row, flux[1] nj + 1 rows, flux[2] nk + 1
 * planes). Per element they evaluate the same expressions, in the same
 * order, as the per-cell formulation they replace.
 */
#pragma once

#include <cstddef>

#include "exec/par_for.hpp"
#include "mesh/mesh.hpp"
#include "solver/reconstruct.hpp"

namespace vibe {

/** Element distance between neighbouring cells of `a` along d. */
inline std::ptrdiff_t
stencilStride(const RealArray4& a, int d)
{
    if (d == 0)
        return 1;
    if (d == 1)
        return a.ni();
    return static_cast<std::ptrdiff_t>(a.nj()) * a.ni();
}

/** Element distance between components of `a` (its own extents). */
inline std::ptrdiff_t
componentStride(const RealArray4& a)
{
    return static_cast<std::ptrdiff_t>(a.nk()) * a.nj() * a.ni();
}

/** Flops of one upwind flux per component (compare kHllFlopsPerComp). */
inline constexpr double kUpwindFlopsPerComp = 2.0;

/**
 * Exact upwind fluxes for one (k, j) row of faces [fis, fie] in
 * direction d: the Riemann solution of a linear equation selects the
 * upwind reconstructed state, F = vel * phi_upwind. Only that side is
 * reconstructed — straight into the flux row, which is then scaled in
 * place — so the kernel needs no scratch.
 */
inline void
upwindFluxRow(const RealArray4& cons, RealArray4& flux, ReconMethod recon,
              double vel, int d, int ncomp, int k, int j, int fis, int fie)
{
    const int nface = fie - fis + 1;
    const std::ptrdiff_t stride = stencilStride(cons, d);
    const bool from_left = vel >= 0.0;
    for (int n = 0; n < ncomp; ++n) {
        double* f = &flux(n, k, j, fis);
        reconPencil(&cons(n, k, j, fis), stride, nface, recon,
                    from_left ? f : nullptr, from_left ? nullptr : f);
        for (int i = 0; i < nface; ++i)
            f[i] = vel * f[i];
    }
}

/** Per-cell costs of the upwind CalculateFluxes kernel: per direction
 *  two reconstructed states plus one upwind flux per component (cf.
 *  the Burgers HLL accounting). */
inline KernelCosts
upwindFluxCosts(ReconMethod recon, int ndim, int ncomp)
{
    const double recon_flops =
        recon == ReconMethod::Weno5 ? kWeno5Flops : kPlmFlops;
    return {ndim * ncomp * (2 * recon_flops + kUpwindFlopsPerComp),
            ndim * ncomp * 4.0 * sizeof(double)};
}

/** Upwind fluxes of one block into `flux` (kernel "CalculateFluxes"):
 *  one row launch per direction. */
inline void
fvUpwindFluxesBlock(Mesh& mesh, const MeshBlock& block, FaceFluxes& flux,
                    ReconMethod recon, const double (&vel)[3])
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    recordKernelAt(ctx, "CalculateFluxes", block.rank(),
                   "CalculateFluxes",
                   static_cast<double>(s.interiorCells()),
                   upwindFluxCosts(recon, s.ndim, ncomp),
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    const RealArray4& cons = block.cons();
    for (int d = 0; d < s.ndim; ++d) {
        RealArray4& flux_d = flux[static_cast<std::size_t>(d)];
        // Interior faces of dim d, interior cells in transverse dims.
        const int fis = s.is(), fie = s.ie() + (d == 0);
        const int fjs = s.js(), fje = s.je() + (d == 1);
        const int fks = s.ks(), fke = s.ke() + (d == 2);
        parForExecRows(ctx, fks, fke, fjs, fje, [&](int, int k, int j) {
            upwindFluxRow(cons, flux_d, recon, vel[d], d, ncomp, k, j,
                          fis, fie);
        });
    }
}

} // namespace vibe
