/**
 * @file reconstruct.hpp
 * Face-value reconstruction: fifth-order WENO (Jiang-Shu) and
 * slope-limited piecewise-linear (PLM), the two options Parthenon-VIBE
 * exposes (paper §II-G).
 *
 * Conventions: face `i` separates cells `i-1` and `i`. The "left" state
 * at a face is reconstructed from the upwind-left stencil, the "right"
 * state from the mirrored stencil.
 *
 * Pencil contract: packages reconstruct one (k, j) row of faces at a
 * time with `reconPencil`, reading the stencil through a raw pointer
 * and the stride of the sweep direction, and writing the row's states
 * into contiguous per-chunk scratch (or straight into a flux row).
 * The stencil math is `weno5Face`/`plmFace`, inline here so the row
 * loop has no call per face; each face value is the same expression,
 * evaluated in the same order, as the per-point scalar formulation,
 * so pencil results are bitwise those of the scalar loop.
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <string>

namespace vibe {

/** Reconstruction scheme selector. */
enum class ReconMethod { Weno5, Plm };

/** Deck-name -> scheme ("weno5" | "plm"); fatal on anything else. */
ReconMethod reconMethodFromName(const std::string& name);

/**
 * WENO5 value at the *right* face (x_{i+1/2}) of the center cell, from
 * the 5-cell stencil (m2, m1, c, p1, p2) = cells i-2 .. i+2.
 *
 * Classic Jiang-Shu weights with epsilon = 1e-6. To obtain the state on
 * the other side of a face, call with the stencil reversed.
 */
inline double
weno5Face(double m2, double m1, double c, double p1, double p2)
{
    // Jiang & Shu (1996): three candidate stencils, smoothness
    // indicators beta_k, ideal weights (1/10, 6/10, 3/10).
    constexpr double eps = 1e-6;
    constexpr double thirteen_twelfths = 13.0 / 12.0;

    const double b0 = thirteen_twelfths * (m2 - 2 * m1 + c) *
                          (m2 - 2 * m1 + c) +
                      0.25 * (m2 - 4 * m1 + 3 * c) * (m2 - 4 * m1 + 3 * c);
    const double b1 = thirteen_twelfths * (m1 - 2 * c + p1) *
                          (m1 - 2 * c + p1) +
                      0.25 * (m1 - p1) * (m1 - p1);
    const double b2 = thirteen_twelfths * (c - 2 * p1 + p2) *
                          (c - 2 * p1 + p2) +
                      0.25 * (3 * c - 4 * p1 + p2) * (3 * c - 4 * p1 + p2);

    const double a0 = 0.1 / ((eps + b0) * (eps + b0));
    const double a1 = 0.6 / ((eps + b1) * (eps + b1));
    const double a2 = 0.3 / ((eps + b2) * (eps + b2));
    const double inv_sum = 1.0 / (a0 + a1 + a2);

    const double s0 = (2 * m2 - 7 * m1 + 11 * c) / 6.0;
    const double s1 = (-m1 + 5 * c + 2 * p1) / 6.0;
    const double s2 = (2 * c + 5 * p1 - p2) / 6.0;

    return (a0 * s0 + a1 * s1 + a2 * s2) * inv_sum;
}

/**
 * PLM value at the right face of the center cell using a minmod-limited
 * slope over (m1, c, p1).
 */
inline double
plmFace(double m1, double c, double p1)
{
    const double dp = p1 - c;
    const double dm = c - m1;
    double slope = 0.0;
    if (dp * dm > 0.0)
        slope = std::fabs(dp) < std::fabs(dm) ? dp : dm;
    return c + 0.5 * slope;
}

/** Approximate flops of one weno5Face evaluation (cost model input). */
inline constexpr double kWeno5Flops = 62.0;
/** Approximate flops of one plmFace evaluation. */
inline constexpr double kPlmFlops = 8.0;

namespace detail {

/**
 * One side of a pencil: the left state (Left) or the right state.
 * Each side is its own loop — one output stream keeps the compiler's
 * runtime alias checks against the strided stencil loads few enough
 * that the loop vectorizes.
 */
template <ReconMethod R, bool Left>
inline void
reconPencilSide(const double* c, std::ptrdiff_t s, int nface, double* out)
{
    for (int f = 0; f < nface; ++f) {
        const double* p = c + f;
        if constexpr (R == ReconMethod::Weno5) {
            if constexpr (Left)
                out[f] = weno5Face(p[-3 * s], p[-2 * s], p[-s], p[0], p[s]);
            else
                out[f] =
                    weno5Face(p[2 * s], p[s], p[0], p[-s], p[-2 * s]);
        } else {
            if constexpr (Left)
                out[f] = plmFace(p[-2 * s], p[-s], p[0]);
            else
                out[f] = plmFace(p[s], p[0], p[-s]);
        }
    }
}

} // namespace detail

/**
 * Reconstruct one pencil of `nface` consecutive faces along i.
 *
 * @param c       Cell at the first face's high side (face f separates
 *                cells c[f - stride] and c[f]).
 * @param stride  Element distance between neighbours in the sweep
 *                direction: 1 in x, the array's ni in y, ni * nj in z
 *                (always the *cell* array's extents).
 * @param l,r     Outputs, `nface` contiguous values each: the left and
 *                right face states. Either may be null to skip that
 *                side (an upwind flux reads only one).
 */
inline void
reconPencil(const double* c, std::ptrdiff_t stride, int nface,
            ReconMethod recon, double* l, double* r)
{
    using detail::reconPencilSide;
    if (recon == ReconMethod::Weno5) {
        if (l)
            reconPencilSide<ReconMethod::Weno5, true>(c, stride, nface, l);
        if (r)
            reconPencilSide<ReconMethod::Weno5, false>(c, stride, nface, r);
    } else {
        if (l)
            reconPencilSide<ReconMethod::Plm, true>(c, stride, nface, l);
        if (r)
            reconPencilSide<ReconMethod::Plm, false>(c, stride, nface, r);
    }
}

} // namespace vibe
