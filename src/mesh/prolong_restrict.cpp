#include "mesh/prolong_restrict.hpp"

#include "exec/par_for.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

/** Child octant offsets (in parent half-block units) for `child`. */
struct Octant
{
    int o1, o2, o3;
};

Octant
octantOf(const MeshBlock& child)
{
    const int idx = child.loc().childIndexInParent();
    return {idx & 1, (idx >> 1) & 1, (idx >> 2) & 1};
}

Octant
octantOf(const LogicalLocation& child_loc)
{
    const int idx = child_loc.childIndexInParent();
    return {idx & 1, (idx >> 1) & 1, (idx >> 2) & 1};
}

} // namespace

void
restrictChildToParent(const ExecContext& ctx, const MeshBlock& child,
                      MeshBlock& parent)
{
    const BlockShape& shape = child.shape();
    const int ndim = shape.ndim;
    const Octant oct = octantOf(child);
    const int ncons = child.registry().ncompConserved();

    // Parent target region: the octant's half-extent per active dim.
    const int pis = shape.is() + oct.o1 * shape.nx1 / 2;
    const int pjs = ndim >= 2 ? shape.js() + oct.o2 * shape.nx2 / 2 : 0;
    const int pks = ndim >= 3 ? shape.ks() + oct.o3 * shape.nx3 / 2 : 0;
    const int cn1 = shape.nx1 / 2;
    const int cn2 = ndim >= 2 ? shape.nx2 / 2 : 1;
    const int cn3 = ndim >= 3 ? shape.nx3 / 2 : 1;
    const double inv = 1.0 / (1 << ndim);

    // ~2^ndim adds + 1 mul per output cell per component; reads 2^ndim
    // doubles and writes one.
    const KernelCosts costs{static_cast<double>((1 << ndim) + 1) * ncons,
                            static_cast<double>((1 << ndim) + 1) * ncons *
                                sizeof(double)};
    parFor(ctx, "ProlongRestrictLoop", costs, 0, cn3 - 1, 0, cn2 - 1, 0,
           cn1 - 1, [&](int kc, int jc, int ic) {
               const int fi = shape.is() + 2 * ic;
               const int fj = ndim >= 2 ? shape.js() + 2 * jc : 0;
               const int fk = ndim >= 3 ? shape.ks() + 2 * kc : 0;
               for (int n = 0; n < ncons; ++n) {
                   double sum = 0.0;
                   for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
                       for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                           for (int di = 0; di <= 1; ++di)
                               sum += child.cons()(n, fk + dk, fj + dj,
                                                   fi + di);
                   parent.cons()(n, pks + kc, pjs + jc, pis + ic) =
                       sum * inv;
               }
           });
}

std::vector<double>
restrictChildOctant(const ExecContext& ctx, const MeshBlock& child)
{
    const BlockShape& shape = child.shape();
    const int ndim = shape.ndim;
    const int ncons = child.registry().ncompConserved();
    const int cn1 = shape.nx1 / 2;
    const int cn2 = ndim >= 2 ? shape.nx2 / 2 : 1;
    const int cn3 = ndim >= 3 ? shape.nx3 / 2 : 1;
    const double inv = 1.0 / (1 << ndim);

    // Same per-cell arithmetic as restrictChildToParent; the kernel is
    // recorded identically (it IS the restriction, running on the
    // child's owner), only the destination is a wire payload.
    const KernelCosts costs{static_cast<double>((1 << ndim) + 1) * ncons,
                            static_cast<double>((1 << ndim) + 1) * ncons *
                                sizeof(double)};
    std::vector<double> payload(
        static_cast<std::size_t>(ncons) * cn3 * cn2 * cn1, 0.0);
    parFor(ctx, "ProlongRestrictLoop", costs, 0, cn3 - 1, 0, cn2 - 1, 0,
           cn1 - 1, [&](int kc, int jc, int ic) {
               const int fi = shape.is() + 2 * ic;
               const int fj = ndim >= 2 ? shape.js() + 2 * jc : 0;
               const int fk = ndim >= 3 ? shape.ks() + 2 * kc : 0;
               for (int n = 0; n < ncons; ++n) {
                   double sum = 0.0;
                   for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
                       for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                           for (int di = 0; di <= 1; ++di)
                               sum += child.cons()(n, fk + dk, fj + dj,
                                                   fi + di);
                   payload[((static_cast<std::size_t>(n) * cn3 + kc) *
                                cn2 +
                            jc) *
                               cn1 +
                           ic] = sum * inv;
               }
           });
    return payload;
}

void
applyRestrictedOctant(const ExecContext& ctx, MeshBlock& parent,
                      const LogicalLocation& child_loc,
                      const std::vector<double>& payload)
{
    const BlockShape& shape = parent.shape();
    const int ndim = shape.ndim;
    const Octant oct = octantOf(child_loc);
    const int ncons = parent.registry().ncompConserved();

    const int pis = shape.is() + oct.o1 * shape.nx1 / 2;
    const int pjs = ndim >= 2 ? shape.js() + oct.o2 * shape.nx2 / 2 : 0;
    const int pks = ndim >= 3 ? shape.ks() + oct.o3 * shape.nx3 / 2 : 0;
    const int cn1 = shape.nx1 / 2;
    const int cn2 = ndim >= 2 ? shape.nx2 / 2 : 1;
    const int cn3 = ndim >= 3 ? shape.nx3 / 2 : 1;
    require(payload.size() ==
                static_cast<std::size_t>(ncons) * cn3 * cn2 * cn1,
            "restricted octant payload size mismatch for ",
            child_loc.str());

    // Pure unpack: one write per coarse cell.
    const KernelCosts costs{0.0,
                            static_cast<double>(ncons) * 2 *
                                sizeof(double)};
    parFor(ctx, "ProlongRestrictLoop", costs, 0, cn3 - 1, 0, cn2 - 1, 0,
           cn1 - 1, [&](int kc, int jc, int ic) {
               for (int n = 0; n < ncons; ++n)
                   parent.cons()(n, pks + kc, pjs + jc, pis + ic) =
                       payload[((static_cast<std::size_t>(n) * cn3 +
                                 kc) *
                                    cn2 +
                                jc) *
                                   cn1 +
                               ic];
           });
}

void
prolongateParentToChild(const ExecContext& ctx, const MeshBlock& parent,
                        MeshBlock& child)
{
    const BlockShape& shape = child.shape();
    const int ndim = shape.ndim;
    const Octant oct = octantOf(child);
    const int ncons = child.registry().ncompConserved();

    const int pis = shape.is() + oct.o1 * shape.nx1 / 2;
    const int pjs = ndim >= 2 ? shape.js() + oct.o2 * shape.nx2 / 2 : 0;
    const int pks = ndim >= 3 ? shape.ks() + oct.o3 * shape.nx3 / 2 : 0;
    const int cn1 = shape.nx1 / 2;
    const int cn2 = ndim >= 2 ? shape.nx2 / 2 : 1;
    const int cn3 = ndim >= 3 ? shape.nx3 / 2 : 1;

    // Per coarse cell: 3 limited slopes (~6 flops each) + 2^ndim
    // weighted writes (~4 flops each), per component.
    const KernelCosts costs{
        static_cast<double>(18 + 4 * (1 << ndim)) * ncons,
        static_cast<double>(7 + (1 << ndim)) * ncons * sizeof(double)};
    parFor(ctx, "ProlongRestrictLoop", costs, 0, cn3 - 1, 0, cn2 - 1, 0,
           cn1 - 1, [&](int kc, int jc, int ic) {
               const int pi = pis + ic;
               const int pj = ndim >= 2 ? pjs + jc : 0;
               const int pk = ndim >= 3 ? pks + kc : 0;
               const int fi = shape.is() + 2 * ic;
               const int fj = ndim >= 2 ? shape.js() + 2 * jc : 0;
               const int fk = ndim >= 3 ? shape.ks() + 2 * kc : 0;
               for (int n = 0; n < ncons; ++n) {
                   const auto& pc = parent.cons();
                   const double c = pc(n, pk, pj, pi);
                   const double sx =
                       0.5 * minmod(pc(n, pk, pj, pi + 1) - c,
                                    c - pc(n, pk, pj, pi - 1));
                   const double sy =
                       ndim >= 2
                           ? 0.5 * minmod(pc(n, pk, pj + 1, pi) - c,
                                          c - pc(n, pk, pj - 1, pi))
                           : 0.0;
                   const double sz =
                       ndim >= 3
                           ? 0.5 * minmod(pc(n, pk + 1, pj, pi) - c,
                                          c - pc(n, pk - 1, pj, pi))
                           : 0.0;
                   for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
                       for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                           for (int di = 0; di <= 1; ++di) {
                               const double wx = di == 0 ? -0.25 : 0.25;
                               const double wy = dj == 0 ? -0.25 : 0.25;
                               const double wz = dk == 0 ? -0.25 : 0.25;
                               child.cons()(n, fk + dk, fj + dj, fi + di) =
                                   c + 2 * wx * sx +
                                   (ndim >= 2 ? 2 * wy * sy : 0.0) +
                                   (ndim >= 3 ? 2 * wz * sz : 0.0);
                           }
               }
           });
}

} // namespace vibe
