/**
 * @file fv_ops.hpp
 * PDE-agnostic finite-volume operators shared by physics packages.
 *
 * The flux-divergence update dudt = -div(flux) depends only on the
 * face fluxes a package already computed — not on the PDE — so every
 * package delegates here, as do the linear packages for their exact
 * upwind fluxes. One definition means packages can never diverge, and
 * the bitwise-equivalence guarantees proved for one package transfer
 * to the others.
 *
 * Every operator here is a row kernel: one (k, j) row per body call,
 * components outer and a unit-stride i loop inner, with each array's
 * strides taken from that array (flux arrays are staggered: flux(0)
 * has ni + 1 faces per row, flux(1) nj + 1 rows, flux(2) nk + 1
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

/** Upwind fluxes for one block (kernel "CalculateFluxes"): one row
 *  launch per direction. */
inline void
fvUpwindFluxesBlock(Mesh& mesh, MeshBlock& block, ReconMethod recon,
                    const double (&vel)[3])
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
        RealArray4& flux = block.flux(d);
        // Interior faces of dim d, interior cells in transverse dims.
        const int fis = s.is(), fie = s.ie() + (d == 0);
        const int fjs = s.js(), fje = s.je() + (d == 1);
        const int fks = s.ks(), fke = s.ke() + (d == 2);
        parForExecRows(ctx, fks, fke, fjs, fje, [&](int, int k, int j) {
            upwindFluxRow(cons, flux, recon, vel[d], d, ncomp, k, j, fis,
                          fie);
        });
    }
}

namespace detail {

template <int NDim>
inline void
divergenceRow(const RealArray4& fx, const RealArray4& fy,
              const RealArray4& fz, RealArray4& dudt,
              const double (&inv_dx)[3], int ncomp, int k, int j, int is,
              int ie)
{
    const int ncell = ie - is + 1;
    for (int n = 0; n < ncomp; ++n) {
        const double* x0 = &fx(n, k, j, is);
        const double* y0 = nullptr;
        const double* y1 = nullptr;
        const double* z0 = nullptr;
        const double* z1 = nullptr;
        if constexpr (NDim >= 2) {
            y0 = &fy(n, k, j, is);
            y1 = &fy(n, k, j + 1, is);
        }
        if constexpr (NDim >= 3) {
            z0 = &fz(n, k, j, is);
            z1 = &fz(n, k + 1, j, is);
        }
        double* out = &dudt(n, k, j, is);
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

} // namespace detail

/** dudt = -div(flux) over one (k, j) row of cells [is, ie]. Flux
 *  arrays of inactive dimensions are never read. */
inline void
fvDivergenceRow(const RealArray4& fx, const RealArray4& fy,
                const RealArray4& fz, RealArray4& dudt,
                const double (&inv_dx)[3], int ndim, int ncomp, int k,
                int j, int is, int ie)
{
    if (ndim >= 3)
        detail::divergenceRow<3>(fx, fy, fz, dudt, inv_dx, ncomp, k, j,
                                 is, ie);
    else if (ndim == 2)
        detail::divergenceRow<2>(fx, fy, fz, dudt, inv_dx, ncomp, k, j,
                                 is, ie);
    else
        detail::divergenceRow<1>(fx, fy, fz, dudt, inv_dx, ncomp, k, j,
                                 is, ie);
}

/** Per-cell costs of the FluxDivergence kernel. */
inline KernelCosts
fluxDivergenceCosts(int ndim, int ncomp)
{
    return {ncomp * ndim * 3.0,
            ncomp * (2.0 * ndim + 1.0) * sizeof(double)};
}

/** dudt = -div(flux) for one block (kernel "FluxDivergence"). */
inline void
fvFluxDivergenceBlock(Mesh& mesh, MeshBlock& block)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();

    const BlockGeometry& g = block.geom();
    const double inv_dx[3] = {1.0 / g.dx1, 1.0 / g.dx2, 1.0 / g.dx3};
    const RealArray4& fx = block.flux(0);
    const RealArray4& fy = block.flux(1);
    const RealArray4& fz = block.flux(2);
    RealArray4& dudt = block.dudt();
    parForRowsAt(ctx, "FluxDivergence", block.rank(), "FluxDivergence",
                 fluxDivergenceCosts(s.ndim, ncomp), s.ks(), s.ke(),
                 s.js(), s.je(), s.is(), s.ie(), [&](int k, int j) {
                     fvDivergenceRow(fx, fy, fz, dudt, inv_dx, s.ndim,
                                     ncomp, k, j, s.is(), s.ie());
                 });
}

} // namespace vibe
