/**
 * @file burgers_package.hpp
 * The Parthenon-VIBE physics package (paper §II-G): the 3-D vector
 * inviscid Burgers equation with passive scalars and the derived
 * kinetic-energy-like quantity
 *
 *   du/dt + div(0.5 u u) = 0,
 *   dq_i/dt + div(q_i u) = 0,
 *   d = 0.5 q_0 u.u,
 *
 * discretized with a Godunov finite-volume scheme: WENO5 or PLM
 * reconstruction, HLL fluxes and (driver-side) RK2 time integration.
 * Plugged into the driver through the PackageDescriptor seam; selected
 * from the deck with `<job> package = burgers`.
 */
#pragma once

#include <string>

#include "comm/rank_world.hpp"
#include "pkg/package_descriptor.hpp"
#include "solver/reconstruct.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

/** Initial conditions offered by the package. */
enum class InitialCondition
{
    GaussianBlob, ///< Compact velocity/scalar pulse (forms shocks).
    Sine,         ///< Smooth periodic field (convergence studies).
    Ripple,       ///< Expanding spherical ripple (the §II-C analogy).
};

InitialCondition initialConditionFromName(const std::string& name);

/** Physics/numerics parameters for the Burgers package. */
struct BurgersConfig
{
    int numScalars = 8;     ///< Passive scalars (paper §VIII-B example).
    double cfl = 0.4;       ///< CFL safety factor.
    ReconMethod recon = ReconMethod::Weno5;
    /** Refine when the in-block index-space gradient exceeds this. */
    double refineTol = 0.08;
    /** Derefine when the gradient falls below this. */
    double derefineTol = 0.02;
    /** Initial condition (`<burgers> ic`), a package knob — the
     *  driver no longer knows what an initial condition is. */
    InitialCondition ic = InitialCondition::Ripple;

    static BurgersConfig fromParams(const ParameterInput& pin);
};

/**
 * Construct the Parthenon-VIBE registry (§II-G): the velocity vector
 * `u` (3 components), `num_scalars` passive scalars `q`, and the
 * derived kinetic-energy-like quantity `d` = 0.5 q_0 u.u.
 */
VariableRegistry makeBurgersRegistry(int num_scalars);

/**
 * Stateless operator collection over a Mesh. All per-cycle mutable
 * state lives in the MeshBlocks; the package holds configuration only.
 */
class BurgersPackage : public PackageDescriptor
{
  public:
    explicit BurgersPackage(const BurgersConfig& config)
        : config_(config)
    {
    }

    const BurgersConfig& config() const { return config_; }

    const std::string& name() const override;

    VariableRegistry buildRegistry() const override
    {
        return makeBurgersRegistry(config_.numScalars);
    }

    /** Set the configured IC on every block (numeric mode only). */
    void initialize(Mesh& mesh) const override
    {
        initialize(mesh, config_.ic);
    }

    void initializeBlock(const ExecContext& ctx,
                         MeshBlock& block) const override
    {
        initializeBlock(ctx, block, config_.ic);
    }

    /** Explicit-IC overloads (tests and harnesses sweep ICs). */
    void initialize(Mesh& mesh, InitialCondition ic) const;
    void initializeBlock(const ExecContext& ctx, MeshBlock& block,
                         InitialCondition ic) const;

    /**
     * WENO5/PLM reconstruction + HLL fluxes for one block (kernel
     * "CalculateFluxes", task-graph node): one row launch per
     * direction, each row reconstructed and solved in per-chunk pencil
     * scratch. Reads only the block's own data.
     */
    void calculateFluxesBlock(Mesh& mesh,
                              MeshBlock& block) const override;

    /**
     * Fused-pack reconstruction + fluxes: one hierarchical launch over
     * the packed (block, k, j) face rows per direction instead of one
     * launch per block, running the same row kernel as the per-block
     * path, so the two are bitwise identical on every backend.
     */
    void calculateFluxesPack(Mesh& mesh,
                             MeshBlockPack& pack) const override;

    /** Flux divergence for one block (kernel "FluxDivergence"). */
    void fluxDivergenceBlock(Mesh& mesh, MeshBlock& block) const override;

    /** Fused-pack flux divergence over all blocks (one launch). */
    void fluxDivergencePack(Mesh& mesh,
                            MeshBlockPack& pack) const override;

    /** d = 0.5 q0 u.u (kernel "CalculateDerived"). */
    void fillDerived(Mesh& mesh) const override;

    /** Fused-pack derived fill over all blocks (one launch). */
    void fillDerivedPack(Mesh& mesh, MeshBlockPack& pack) const override;

    /**
     * CFL timestep: local min reduction (kernel "EstTimeMesh") followed
     * by a rank AllReduce. In counting mode returns `fallback_dt`.
     */
    double estimateTimestep(Mesh& mesh, RankWorld& world,
                            double fallback_dt) const override;

    /**
     * Fused-pack CFL timestep: one chunk-ordered min reduction over
     * the packed cell domain (exact under any chunking, so the dt is
     * bit-identical to the per-block reduction sequence).
     */
    double estimateTimestepPack(Mesh& mesh, MeshBlockPack& pack,
                                RankWorld& world,
                                double fallback_dt) const override;

    /**
     * History reduction: total q0 mass (kernel "MassHistory") plus an
     * AllReduce; the per-cycle history output VIBE performs.
     */
    double massHistory(Mesh& mesh, RankWorld& world) const override;

    /**
     * Gradient-based refinement criterion for one block (kernel
     * "FirstDerivative"): the maximum index-space velocity jump.
     * Numeric mode only.
     */
    RefinementFlag tagBlock(const MeshBlock& block,
                            const ExecContext& ctx) const override;

  private:
    BurgersConfig config_;
};

} // namespace vibe
