/**
 * @file rk2.hpp
 * Second-order Runge-Kutta (Heun) stages over a Mesh.
 *
 * Parthenon's integrator expresses both the start-of-step copy and the
 * stage updates as weighted sums of registers; all three appear on the
 * GPU as the "WeightedSumData" kernel (paper Table III), and the
 * enclosing phase in the Fig. 11 breakdown carries the same name.
 *
 *   stage 1:  u  <- u0 + dt * L(u0)
 *   stage 2:  u  <- 1/2 u0 + 1/2 u + 1/2 dt * L(u)
 *
 * L(u) = -div(F) + S(u) never lives in a block array: the stage update
 * computes it one (k, j) row at a time into per-chunk scratch and
 * applies the weighted sum to that row straight away.
 */
#pragma once

#include "mesh/mesh.hpp"

namespace vibe {

/**
 * A package's local source term S(u): the optional per-row hook of the
 * fused stage update (only the reaction package has one).
 */
class RowSource
{
  public:
    virtual ~RowSource() = default;

    /** Record the source kernel of one block's update (both modes). */
    virtual void recordBlock(const ExecContext& ctx,
                             const MeshBlock& block) const = 0;

    /**
     * du += S(u) over one (k, j) row of cells [is, ie]. Component n of
     * cell is + i sits at du[n * (ie - is + 1) + i] and already holds
     * -div(F). `cons` is the block's state, read before the update
     * writes this row.
     */
    virtual void addRow(const RealArray4& cons, double* du, int k, int j,
                        int is, int ie) const = 0;
};

/** Copy the current state into the step-start register (u0 <- u). */
void saveState(Mesh& mesh);

/**
 * RK2 stage update for one block (kernels "FluxDivergence", the
 * source's, and "WeightedSumData"), one pass per (k, j) row: du = -div
 * of `flux`, plus `source` when given, then stage 1:
 * u <- u0 + dt * du; stage 2: u <- 0.5 u0 + 0.5 u + 0.5 dt * du. The
 * whole du row exists before the row's u is written, since the source
 * reads u. Touches only the block's own registers and `flux`, so
 * distinct blocks may run concurrently.
 */
void stageUpdateBlock(Mesh& mesh, MeshBlock& block, const FaceFluxes& flux,
                      int stage, double dt,
                      const RowSource* source = nullptr);

} // namespace vibe
