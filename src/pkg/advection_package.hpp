/**
 * @file advection_package.hpp
 * Linear advection: the second physics package, proving the
 * PackageDescriptor seam with a workload whose exact solution is
 * known.
 *
 *   dphi/dt + div(v phi) = 0,   v = (vx, vy, vz) constant,
 *   e = 0.5 phi^2               (derived "energy" density),
 *
 * discretized with the same Godunov machinery as Burgers — WENO5/PLM
 * reconstruction through the shared reconPencil stencil kernel — but
 * with the exact upwind flux (the Riemann solution of a linear
 * equation, pkg/fv_ops.hpp's upwindFluxRow, shared with reaction).
 * Because v is constant the solution is the initial profile translated
 * rigidly, phi(x, t) = phi0(x - v t) with periodic wrap, so tests can
 * compare a full AMR run (ghost exchange, flux correction, mid-run
 * refine/derefine, packing, pooling) against `analyticValue` directly.
 * Selected from the deck with `<job> package = advection`.
 */
#pragma once

#include <string>

#include "comm/rank_world.hpp"
#include "pkg/package_descriptor.hpp"
#include "solver/reconstruct.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

/** Initial profiles offered by the package. */
enum class AdvectionProfile
{
    GaussianBlob, ///< Compact pulse (drives AMR around the feature).
    Sine,         ///< Smooth periodic field (accuracy studies).
};

AdvectionProfile advectionProfileFromName(const std::string& name);

/** Physics/numerics parameters for the advection package. */
struct AdvectionConfig
{
    /** Constant advection velocity (characteristic speed per dim). */
    double vx = 1.0, vy = 0.5, vz = 0.25;
    double cfl = 0.4; ///< CFL safety factor.
    ReconMethod recon = ReconMethod::Weno5;
    /**
     * Refine when the characteristic-speed-weighted index-space
     * gradient |v|_max * max|grad phi| exceeds this; derefine below
     * `derefineTol`. Weighting by the transport speed makes the
     * criterion track how fast the profile sweeps through a block.
     */
    double refineTol = 0.08;
    double derefineTol = 0.02;
    AdvectionProfile ic = AdvectionProfile::GaussianBlob;

    /** Read the `<advection>` deck block. */
    static AdvectionConfig fromParams(const ParameterInput& pin);

    /** Largest per-dimension speed among the active dimensions. */
    double maxSpeed(int ndim) const;
};

/**
 * Advection registry: one conserved scalar `phi` (ghost-exchanged,
 * flux-corrected) and the derived energy `phi_energy`. Deliberately
 * disjoint from the Burgers names {u, q, d}: the registry test pins
 * down that packages own their variable sets.
 */
VariableRegistry makeAdvectionRegistry();

/** Stateless operator collection over a Mesh (configuration only). */
class AdvectionPackage : public PackageDescriptor
{
  public:
    explicit AdvectionPackage(const AdvectionConfig& config)
        : config_(config)
    {
    }

    const AdvectionConfig& config() const { return config_; }

    const std::string& name() const override;

    VariableRegistry buildRegistry() const override
    {
        return makeAdvectionRegistry();
    }

    /**
     * Exact solution at physical point (x, y, z) and time t: the
     * initial profile translated by v t with periodic wrap on the
     * unit domain. Inactive dimensions (ndim < 3) are pinned to 0.5
     * and do not translate, matching initializeBlock.
     */
    double analyticValue(double x, double y, double z, double t,
                         int ndim) const;

    void initializeBlock(const ExecContext& ctx,
                         MeshBlock& block) const override;

    /**
     * Reconstruction + exact upwind fluxes for one block (kernel
     * "CalculateFluxes", task-graph node).
     */
    void calculateFluxesBlock(Mesh& mesh,
                              MeshBlock& block) const override;

    /** Fused-pack reconstruction + upwind fluxes (same row kernel). */
    void calculateFluxesPack(Mesh& mesh,
                             MeshBlockPack& pack) const override;

    void fluxDivergenceBlock(Mesh& mesh, MeshBlock& block) const override;

    void fluxDivergencePack(Mesh& mesh,
                            MeshBlockPack& pack) const override;

    /** e = 0.5 phi^2 (kernel "CalculateDerived"). */
    void fillDerived(Mesh& mesh) const override;

    void fillDerivedPack(Mesh& mesh, MeshBlockPack& pack) const override;

    /**
     * CFL timestep from the constant characteristic speeds (kernel
     * "EstTimeMesh"): the reduction sweep runs like every package's so
     * counting-mode work and fused-launch accounting stay comparable,
     * even though the speeds are uniform.
     */
    double estimateTimestep(Mesh& mesh, RankWorld& world,
                            double fallback_dt) const override;

    double estimateTimestepPack(Mesh& mesh, MeshBlockPack& pack,
                                RankWorld& world,
                                double fallback_dt) const override;

    /** Total phi mass (kernel "MassHistory") — conserved to round-off
     *  by the flux-corrected scheme. */
    double massHistory(Mesh& mesh, RankWorld& world) const override;

    /**
     * Characteristic-speed-weighted gradient criterion (kernel
     * "FirstDerivative"): |v|_max * max index-space jump of phi.
     */
    RefinementFlag tagBlock(const MeshBlock& block,
                            const ExecContext& ctx) const override;

  private:
    AdvectionConfig config_;
};

} // namespace vibe
