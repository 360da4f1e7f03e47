/**
 * @file riemann.hpp
 * HLL Riemann solver for the vector inviscid Burgers system (paper
 * §II-G).
 *
 * State layout: components 0..2 are the velocity vector u; components
 * 3.. are passive scalars q. Physical flux in direction d:
 *   F_d(u_m) = 0.5 * u_d * u_m     (m = 0..2)
 *   F_d(q_s) = q_s * u_d.
 *
 * Pencil contract: the solver runs over a row of faces whose left and
 * right states sit in component-major scratch (component m of face f
 * at `m * nface + f`, as `reconPencil` leaves them), one component at
 * a time with a unit-stride face loop, and writes each component's
 * fluxes to a contiguous output row. Every face value is the
 * expression the per-face scalar formulation evaluates, in the same
 * order, so the pencil is bitwise the per-cell solver.
 *
 * Tie order: the wave-speed bounds are std::min({vl, vr, 0.0}) and
 * std::max({vl, vr, 0.0}), which keep the *first* extreme on ties.
 * A hand-written select must keep that order: one that tests the
 * other way round flips the sign of a zero bound (say vl == -0.0,
 * vr == +0.0), and with it the sign of some zero fluxes.
 */
#pragma once

#include <algorithm>
#include <cstddef>

namespace vibe {

/** Physical Burgers flux of component m in the direction whose
 *  velocity component is `vel`. */
inline double
burgersFlux(double vel, double value, bool is_velocity)
{
    return is_velocity ? 0.5 * vel * value : vel * value;
}

namespace detail {

/** HLL fluxes of one component over a pencil of `nface` faces. */
template <bool IsVel>
inline void
hllPencilComponent(const double* vl, const double* vr, const double* ul,
                   const double* ur, int nface, double* flux)
{
    for (int f = 0; f < nface; ++f) {
        const double sl = std::min({vl[f], vr[f], 0.0});
        const double sr = std::max({vl[f], vr[f], 0.0});
        const double denom = sr - sl;
        const double fl = burgersFlux(vl[f], ul[f], IsVel);
        const double fr = burgersFlux(vr[f], ur[f], IsVel);
        // denom <= 0: both speeds zero, a stagnant interface.
        flux[f] = denom <= 0.0
                      ? 0.5 * (fl + fr)
                      : (sr * fl - sl * fr + sl * sr * (ur[f] - ul[f])) /
                            denom;
    }
}

} // namespace detail

/**
 * HLL fluxes over one pencil of faces.
 *
 * @param l,r          Left/right states, component-major: component m
 *                     of face f at `m * nface + f`.
 * @param nface        Faces in the pencil.
 * @param dvel         Index of the face-normal velocity component (0..2).
 * @param ncomp        Total components (3 velocities + scalars).
 * @param flux         Output: component m of face f at
 *                     `flux[m * flux_stride + f]`.
 * @param flux_stride  Component stride of the output; for a row of a
 *                     flux array, that array's own nk * nj * ni.
 *
 * Wave-speed bounds follow the Burgers characteristic u_d:
 * S_L = min(u_dL, u_dR, 0), S_R = max(u_dL, u_dR, 0); the solver
 * reduces to pure upwinding when both speeds share a sign.
 */
inline void
hllPencil(const double* l, const double* r, int nface, int dvel,
          int ncomp, double* flux, std::ptrdiff_t flux_stride)
{
    const double* vl = l + static_cast<std::ptrdiff_t>(dvel) * nface;
    const double* vr = r + static_cast<std::ptrdiff_t>(dvel) * nface;
    for (int m = 0; m < ncomp; ++m) {
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(m) * nface;
        double* out = flux + m * flux_stride;
        if (m < 3)
            detail::hllPencilComponent<true>(vl, vr, l + off, r + off,
                                             nface, out);
        else
            detail::hllPencilComponent<false>(vl, vr, l + off, r + off,
                                              nface, out);
    }
}

/** Approximate flops of one HLL face flux per component. */
inline constexpr double kHllFlopsPerComp = 11.0;

} // namespace vibe
