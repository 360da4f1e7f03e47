#include "solver/rk2.hpp"

#include <algorithm>

#include "exec/par_for.hpp"

namespace vibe {

namespace {

/**
 * u <- wa*u0 + wb*u + wc*dt*dudt over one (k, j) row of cells [is, ie],
 * components outer and a unit-stride i loop inner (the same per-cell
 * expression as a cell-by-cell sweep).
 */
inline void
weightedSumRow(RealArray4& cons, const RealArray4& cons0,
               const RealArray4& dudt, double wa, double wb, double wc,
               double dt, int ncomp, int k, int j, int is, int ie)
{
    const int ncell = ie - is + 1;
    for (int n = 0; n < ncomp; ++n) {
        double* u = &cons(n, k, j, is);
        const double* u0 = &cons0(n, k, j, is);
        const double* du = &dudt(n, k, j, is);
        for (int i = 0; i < ncell; ++i)
            u[i] = wa * u0[i] + wb * u[i] + wc * dt * du[i];
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

/** Per-block implementation: u <- wa*u0 + wb*u + wc*dt*dudt. */
void
weightedSumBlock(Mesh& mesh, MeshBlock& block, double wa, double wb,
                 double wc, double dt)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    // Per cell: ncomp fused multiply-adds over three registers.
    const KernelCosts costs{ncomp * 5.0, ncomp * 4.0 * sizeof(double)};

    recordSerialAt(ctx, "WeightedSumData", block.rank(), "string_lookup",
                   static_cast<double>(mesh.registry().all().size()));
    RealArray4& cons = block.cons();
    RealArray4& cons0 = block.cons0();
    RealArray4& dudt = block.dudt();
    parForRowsAt(ctx, "WeightedSumData", block.rank(), "WeightedSumData",
                 costs, s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
                 [&](int k, int j) {
                     weightedSumRow(cons, cons0, dudt, wa, wb, wc, dt,
                                    ncomp, k, j, s.is(), s.ie());
                 });
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
stageUpdateBlock(Mesh& mesh, MeshBlock& block, int stage, double dt)
{
    if (stage == 1)
        weightedSumBlock(mesh, block, 1.0, 0.0, 1.0, dt);
    else
        weightedSumBlock(mesh, block, 0.5, 0.5, 0.5, dt);
}

} // namespace vibe
