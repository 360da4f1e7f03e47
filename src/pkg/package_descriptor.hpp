/**
 * @file package_descriptor.hpp
 * The physics-package seam: everything the timestep driver needs from
 * a PDE system, and nothing else.
 *
 * Parthenon applications (VIBE among them) are packages plugged into a
 * framework core through a StateDescriptor: the package declares its
 * variables (names, component counts, metadata flags) and registers
 * callbacks for fluxes, derived fields, timestep estimation, refinement
 * tagging and initial conditions; the driver, mesh, ghost exchange,
 * flux correction and load balancer never mention the PDE. This header
 * is our equivalent. EvolutionDriver, TaskList, GradientTagger and
 * Experiment consume only this
 * interface (plus PackageRegistry for deck selection); concrete
 * physics lives in pkg/burgers_package.* and pkg/advection_package.*.
 *
 * Callbacks come in two kinds: per-block stage callbacks (`*Block`),
 * which the driver runs as one task per owned block in each RK stage's
 * task graph, and whole-mesh cycle sweeps (`fillDerived`,
 * `estimateTimestep`, `massHistory`), each one `parForBlocks` launch
 * over the owned blocks.
 *
 * Contract notes, enforced by the equivalence tests:
 * - Block-granularity callbacks (`*Block`) may run concurrently for
 *   distinct blocks and must touch only that block's data, so the
 *   task-graph executor can interleave them with ghost exchange.
 * - Whole-mesh sweeps run their per-block bodies on pool workers:
 *   they attribute work to `block.rank()` explicitly and fold
 *   per-block results in owned order, so they are bitwise identical
 *   to a loop of per-block launches at the same thread count.
 * - In counting mode (`!ctx.executing()`) callbacks record kernel
 *   costs but skip bodies; results must not be read.
 */
#pragma once

#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "solver/rk2.hpp"

namespace vibe {

/** One block's contribution to a history reduction (wire format). */
struct BlockPartial
{
    int gid = 0;
    double value = 0;
};

/**
 * Deterministic cross-rank sum for history reductions: per-block
 * partials are all-gathered (a real rendezvous on a rank team, a
 * pass-through on the classic path, both accounted as the AllReduce
 * the real code issues) and folded in global gid order. Because each
 * block's partial is computed identically wherever the block lives,
 * the fold is bitwise independent of the rank decomposition — the
 * property the rank-equivalence tests pin down. Packages share this
 * helper so no package can diverge.
 */
double foldBlockPartials(Mesh& mesh, RankWorld& world,
                         std::vector<BlockPartial> partials);

/**
 * Abstract physics package: variable registrations plus the driver
 * callbacks. Implementations are stateless operator collections over a
 * Mesh — all per-cycle mutable state lives in the MeshBlocks; the
 * package holds configuration only, so one instance may serve many
 * meshes and threads.
 */
class PackageDescriptor
{
  public:
    virtual ~PackageDescriptor() = default;

    /** Deck-facing package name (`<job> package = <name>`). */
    virtual const std::string& name() const = 0;

    /**
     * Variable declarations for this package: conserved (Independent)
     * variables with ghost/flux roles and Derived fields. The mesh
     * sizes every block's storage from this registry, so two packages
     * are interchangeable without touching mesh/ or comm/.
     */
    virtual VariableRegistry buildRegistry() const = 0;

    /** Set initial conditions on every block (numeric mode only). */
    virtual void initialize(Mesh& mesh) const;

    /** Set initial conditions on one block (interior AND ghosts). */
    virtual void initializeBlock(const ExecContext& ctx,
                                 MeshBlock& block) const = 0;

    /**
     * Reconstruction + fluxes for one block into `flux` (the block's
     * own arrays on a flux-correction participant, a worker's scratch
     * otherwise), every interior face written. Reads only the block's
     * own data; face states live in per-chunk pencil scratch, never in
     * block arrays, so flux tasks of distinct blocks may always run
     * concurrently.
     */
    virtual void calculateFluxesBlock(Mesh& mesh, const MeshBlock& block,
                                      FaceFluxes& flux) const = 0;

    /**
     * Local source term S(u), added per row by the fused stage update
     * (solver/rk2.hpp), or null for a package without one. The flux
     * divergence itself is PDE-agnostic and belongs to the update.
     */
    virtual const RowSource* rowSource() const { return nullptr; }

    /** Recompute Derived fields from conserved state. */
    virtual void fillDerived(Mesh& mesh) const = 0;

    /**
     * CFL timestep: local min reduction followed by a rank AllReduce.
     * In counting mode returns `fallback_dt`.
     */
    virtual double estimateTimestep(Mesh& mesh, RankWorld& world,
                                    double fallback_dt) const = 0;

    /**
     * Per-cycle history reduction (the conserved "mass" the driver
     * logs in CycleStats.mass) plus an AllReduce.
     */
    virtual double massHistory(Mesh& mesh, RankWorld& world) const = 0;

    /**
     * Refinement criterion for one block (numeric mode only);
     * counting-mode studies use an analytic tagger instead. Runs on a
     * pool worker during the tagging sweep, so it records under the
     * explicit "Refinement::Tag" phase and the block's rank.
     */
    virtual RefinementFlag tagBlock(const MeshBlock& block,
                                    const ExecContext& ctx) const = 0;
};

} // namespace vibe
