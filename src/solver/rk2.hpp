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
 */
#pragma once

#include "mesh/mesh.hpp"

namespace vibe {

/** Copy the current state into the step-start register (u0 <- u). */
void saveState(Mesh& mesh);

/**
 * RK2 stage update for one block — the task-graph node form. Stage 1:
 * u <- u0 + dt * dudt; stage 2: u <- 0.5 u0 + 0.5 u + 0.5 dt * dudt.
 * Touches only the block's own registers, so distinct blocks may run
 * concurrently.
 */
void stageUpdateBlock(Mesh& mesh, MeshBlock& block, int stage,
                      double dt);

} // namespace vibe
