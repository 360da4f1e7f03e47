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
 * flux correction, load balancer and pack machinery never mention the
 * PDE. This header is our equivalent. EvolutionDriver, TaskList,
 * GradientTagger, MeshBlockPack and Experiment consume only this
 * interface (plus PackageRegistry for deck selection); concrete
 * physics lives in pkg/burgers_package.* and pkg/advection_package.*.
 *
 * Contract notes, enforced by the equivalence tests:
 * - Block-granularity callbacks (`*Block`) may run concurrently for
 *   distinct blocks and must touch only that block's data, so the
 *   task-graph executor can interleave them with ghost exchange.
 * - `*Pack` variants must be bitwise identical to the per-block loop
 *   on every execution space (fused launches reorder work across
 *   blocks; they must not reorder arithmetic within a cell).
 * - In counting mode (`!ctx.executing()`) callbacks record kernel
 *   costs but skip bodies; results must not be read.
 */
#pragma once

#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"

namespace vibe {

class MeshBlockPack;

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

    /** Reconstruction + Riemann fluxes on every block. */
    virtual void calculateFluxes(Mesh& mesh) const;

    /**
     * Reconstruction + fluxes for one block (task-graph node). Reads
     * only the block's own data; face states live in per-chunk pencil
     * scratch, never in block arrays, so flux tasks of distinct blocks
     * may always run concurrently.
     */
    virtual void calculateFluxesBlock(Mesh& mesh,
                                      MeshBlock& block) const = 0;

    /**
     * Fused-pack reconstruction + fluxes: one hierarchical launch over
     * the packed (block, k, j) face rows per direction, running the
     * same row kernel as the per-block callback.
     */
    virtual void calculateFluxesPack(Mesh& mesh,
                                     MeshBlockPack& pack) const = 0;

    /** dudt = -div(flux) on every block. */
    virtual void fluxDivergence(Mesh& mesh) const;

    /** Flux divergence for one block (task-graph node). */
    virtual void fluxDivergenceBlock(Mesh& mesh,
                                     MeshBlock& block) const = 0;

    /** Fused-pack flux divergence over all blocks (one launch). */
    virtual void fluxDivergencePack(Mesh& mesh,
                                    MeshBlockPack& pack) const = 0;

    /** Recompute Derived fields from conserved state. */
    virtual void fillDerived(Mesh& mesh) const = 0;

    /** Fused-pack derived fill over all blocks (one launch). */
    virtual void fillDerivedPack(Mesh& mesh,
                                 MeshBlockPack& pack) const = 0;

    /**
     * CFL timestep: local min reduction followed by a rank AllReduce.
     * In counting mode returns `fallback_dt`.
     */
    virtual double estimateTimestep(Mesh& mesh, RankWorld& world,
                                    double fallback_dt) const = 0;

    /**
     * Fused-pack CFL timestep: one chunk-ordered min reduction over
     * the packed cell domain, bit-identical to the per-block sequence.
     */
    virtual double estimateTimestepPack(Mesh& mesh, MeshBlockPack& pack,
                                        RankWorld& world,
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
