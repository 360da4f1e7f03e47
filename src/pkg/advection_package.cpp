#include "pkg/advection_package.hpp"

#include <cmath>

#include "exec/par_for.hpp"
#include "mesh/block_pack.hpp"
#include "pkg/fv_ops.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

constexpr double kTwoPi = 6.283185307179586;
/** Gaussian profile width and additive floor. */
constexpr double kBlobSigma = 0.08;
constexpr double kBlobFloor = 1e-3;

/** x wrapped into [0, 1) (periodic unit domain). */
inline double
wrap01(double x)
{
    x = std::fmod(x, 1.0);
    return x < 0.0 ? x + 1.0 : x;
}

/** Periodic distance from `x` in [0, 1) to the domain center. */
inline double
centerDist(double x)
{
    const double d = std::fabs(x - 0.5);
    return std::min(d, 1.0 - d);
}

} // namespace

AdvectionProfile
advectionProfileFromName(const std::string& name)
{
    if (name == "gaussian_blob")
        return AdvectionProfile::GaussianBlob;
    if (name == "sine")
        return AdvectionProfile::Sine;
    fatal("unknown advection profile '", name, "'");
}

AdvectionConfig
AdvectionConfig::fromParams(const ParameterInput& pin)
{
    AdvectionConfig config;
    config.vx = pin.getReal("advection", "vx", 1.0);
    config.vy = pin.getReal("advection", "vy", 0.5);
    config.vz = pin.getReal("advection", "vz", 0.25);
    config.cfl = pin.getReal("advection", "cfl", 0.4);
    config.recon = reconMethodFromName(
        pin.getString("advection", "recon", "weno5"));
    config.refineTol = pin.getReal("advection", "refine_tol", 0.08);
    config.derefineTol = pin.getReal("advection", "derefine_tol", 0.02);
    config.ic = advectionProfileFromName(
        pin.getString("advection", "ic", "gaussian_blob"));
    return config;
}

double
AdvectionConfig::maxSpeed(int ndim) const
{
    double speed = std::fabs(vx);
    if (ndim >= 2)
        speed = std::max(speed, std::fabs(vy));
    if (ndim >= 3)
        speed = std::max(speed, std::fabs(vz));
    return speed;
}

const std::string&
AdvectionPackage::name() const
{
    static const std::string package_name = "advection";
    return package_name;
}

VariableRegistry
makeAdvectionRegistry()
{
    VariableRegistry registry;
    registry.add({"phi", 1, kIndependent | kFillGhost | kWithFluxes});
    registry.add({"phi_energy", 1, kDerived});
    return registry;
}

double
AdvectionPackage::analyticValue(double x, double y, double z, double t,
                                int ndim) const
{
    // Rigid translation: evaluate the t = 0 profile at x - v t.
    // Inactive dimensions sit at 0.5 and do not move.
    const double xs = wrap01(x - config_.vx * t);
    const double ys = ndim >= 2 ? wrap01(y - config_.vy * t) : 0.5;
    const double zs = ndim >= 3 ? wrap01(z - config_.vz * t) : 0.5;

    switch (config_.ic) {
      case AdvectionProfile::GaussianBlob: {
        const double dx = centerDist(xs);
        const double dy = centerDist(ys);
        const double dz = centerDist(zs);
        const double r2 = dx * dx + dy * dy + dz * dz;
        return std::exp(-r2 / (2 * kBlobSigma * kBlobSigma)) +
               kBlobFloor;
      }
      case AdvectionProfile::Sine:
        return 1.0 + 0.5 * std::sin(kTwoPi * (xs + ys + zs));
    }
    return 0.0; // unreachable
}

void
AdvectionPackage::initializeBlock(const ExecContext& ctx,
                                  MeshBlock& block) const
{
    if (!block.hasData())
        return;
    const BlockShape& s = block.shape();
    const BlockGeometry& g = block.geom();
    RealArray4& cons = block.cons();

    // Fill interior AND ghosts so the first exchange starts consistent
    // (same convention as every package).
    parForExec(ctx, 0, s.nk() - 1, 0, s.nj() - 1, 0, s.ni() - 1,
               [&](int k, int j, int i) {
                   const double x = g.x1c(i - s.is());
                   const double y =
                       s.ndim >= 2 ? g.x2c(j - s.js()) : 0.5;
                   const double z =
                       s.ndim >= 3 ? g.x3c(k - s.ks()) : 0.5;
                   cons(0, k, j, i) =
                       analyticValue(x, y, z, 0.0, s.ndim);
               });
}

void
AdvectionPackage::calculateFluxesBlock(Mesh& mesh, MeshBlock& block) const
{
    const double vel[3] = {config_.vx, config_.vy, config_.vz};
    fvUpwindFluxesBlock(mesh, block, config_.recon, vel);
}

void
AdvectionPackage::calculateFluxesPack(Mesh& mesh, MeshBlockPack& pack) const
{
    const double vel[3] = {config_.vx, config_.vy, config_.vz};
    fvUpwindFluxesPack(mesh, pack, config_.recon, vel);
}

void
AdvectionPackage::fluxDivergenceBlock(Mesh& mesh, MeshBlock& block) const
{
    fvFluxDivergenceBlock(mesh, block);
}

void
AdvectionPackage::fluxDivergencePack(Mesh& mesh, MeshBlockPack& pack) const
{
    fvFluxDivergencePack(mesh, pack);
}

void
AdvectionPackage::fillDerived(Mesh& mesh) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "FillDerived");
    const BlockShape s = mesh.config().blockShape();
    // e = 0.5 phi^2: 1 read, 1 write, 2 flops per cell.
    const KernelCosts costs{2.0, 2.0 * sizeof(double)};

    const double lookups =
        static_cast<double>(mesh.registry().all().size());
    parForBlocks(ctx, mesh.ownedBlocks(), [&](int, MeshBlock& block) {
        // String-based variable extraction, the §VIII-A serial
        // overhead every package pays per block.
        recordSerialAt(ctx, "FillDerived", block.rank(), "string_lookup",
                       lookups);
        RealArray4& cons = block.cons();
        RealArray4& derived = block.derived();
        parForAt(ctx, "FillDerived", block.rank(), "CalculateDerived",
                 costs, s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
                 [&](int k, int j, int i) {
                     const double phi = cons(0, k, j, i);
                     derived(0, k, j, i) = 0.5 * phi * phi;
                 });
    });
}

void
AdvectionPackage::fillDerivedPack(Mesh& mesh, MeshBlockPack& pack) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "FillDerived");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{2.0, 2.0 * sizeof(double)};
    const int nb = pack.numBlocks();

    const double lookups =
        static_cast<double>(mesh.registry().all().size());
    for (int b = 0; b < nb; ++b)
        recordSerialAt(ctx, "FillDerived", pack.ranks()[b],
                       "string_lookup", lookups);

    parForPack(ctx, "FillDerived", "CalculateDerived", costs,
               pack.ranks(), nb, 0, 0, s.ks(), s.ke(), s.js(), s.je(),
               s.is(), s.ie(), [&](int, int b, int, int k, int j) {
                   BlockPackView& v = pack.view(b);
                   const RealArray4& cons = *v.cons;
                   RealArray4& derived = *v.derived;
                   for (int i = s.is(); i <= s.ie(); ++i) {
                       const double phi = cons(0, k, j, i);
                       derived(0, k, j, i) = 0.5 * phi * phi;
                   }
               });
}

double
AdvectionPackage::estimateTimestep(Mesh& mesh, RankWorld& world,
                                   double fallback_dt) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "EstimateTimestep");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{10.0, 3.0 * sizeof(double)};

    // Per-block minima in index slots, folded in owned order below
    // (min is exact, so this is the running per-block minimum).
    double dt = fallback_dt / config_.cfl;
    const auto& owned = mesh.ownedBlocks();
    std::vector<double> block_dt(owned.size(), dt);
    parForBlocks(ctx, owned, [&](int b, MeshBlock& block) {
        const BlockGeometry& g = block.geom();
        parReduceAt(ctx, "EstimateTimestep", block.rank(), "EstTimeMesh",
                    costs, ReduceOp::Min, block_dt[b], s.ks(), s.ke(),
                    s.js(), s.je(), s.is(), s.ie(),
                    [&](int, int, int, double& acc) {
                        constexpr double tiny = 1e-12;
                        double cell_dt =
                            g.dx1 / (std::fabs(config_.vx) + tiny);
                        if (s.ndim >= 2)
                            cell_dt = std::min(
                                cell_dt,
                                g.dx2 / (std::fabs(config_.vy) + tiny));
                        if (s.ndim >= 3)
                            cell_dt = std::min(
                                cell_dt,
                                g.dx3 / (std::fabs(config_.vz) + tiny));
                        acc = std::min(acc, cell_dt);
                    });
        recordSerialAt(ctx, "EstimateTimestep", block.rank(), "dt_reduce",
                       1.0);
    });
    for (double value : block_dt)
        dt = std::min(dt, value);
    // Global min across ranks: exact under any combination order, so
    // the collective dt is bitwise the 1-rank dt.
    dt = world.allReduceValue(mesh.collectiveRank(), dt, CollOp::Min,
                              sizeof(double));
    recordSerial(ctx, "collective", 1.0);
    return config_.cfl * dt;
}

double
AdvectionPackage::estimateTimestepPack(Mesh& mesh, MeshBlockPack& pack,
                                       RankWorld& world,
                                       double fallback_dt) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "EstimateTimestep");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{10.0, 3.0 * sizeof(double)};
    const int nb = pack.numBlocks();

    double dt = fallback_dt / config_.cfl;
    parReducePack(
        ctx, "EstimateTimestep", "EstTimeMesh", costs, ReduceOp::Min,
        dt, pack.ranks(), nb, s.ks(), s.ke(), s.js(), s.je(), s.is(),
        s.ie(), [&](int b, int, int, double& acc) {
            BlockPackView& v = pack.view(b);
            for (int i = s.is(); i <= s.ie(); ++i) {
                constexpr double tiny = 1e-12;
                double cell_dt =
                    v.dx1 / (std::fabs(config_.vx) + tiny);
                if (s.ndim >= 2)
                    cell_dt = std::min(
                        cell_dt,
                        v.dx2 / (std::fabs(config_.vy) + tiny));
                if (s.ndim >= 3)
                    cell_dt = std::min(
                        cell_dt,
                        v.dx3 / (std::fabs(config_.vz) + tiny));
                acc = std::min(acc, cell_dt);
            }
        });
    for (int b = 0; b < nb; ++b)
        recordSerialAt(ctx, "EstimateTimestep", pack.ranks()[b],
                       "dt_reduce", 1.0);
    dt = world.allReduceValue(mesh.collectiveRank(), dt, CollOp::Min,
                              sizeof(double));
    recordSerial(ctx, "collective", 1.0);
    return config_.cfl * dt;
}

double
AdvectionPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "other");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{2.0, 1.0 * sizeof(double)};

    // Gid-ordered per-block fold: bitwise independent of the rank
    // decomposition (see foldBlockPartials).
    std::vector<BlockPartial> partials(mesh.ownedBlocks().size());
    parForBlocks(ctx, mesh.ownedBlocks(), [&](int b, MeshBlock& block) {
        RealArray4& cons = block.cons();
        const double vol = block.geom().cellVolume();
        partials[b].gid = block.gid();
        parReduceAt(ctx, "other", block.rank(), "MassHistory", costs,
                    ReduceOp::Sum, partials[b].value, s.ks(), s.ke(),
                    s.js(), s.je(), s.is(), s.ie(),
                    [&](int k, int j, int i, double& acc) {
                        acc += cons(0, k, j, i) * vol;
                    });
    });
    const double mass =
        foldBlockPartials(mesh, world, std::move(partials));
    recordSerial(ctx, "collective", 1.0);
    return mass;
}

RefinementFlag
AdvectionPackage::tagBlock(const MeshBlock& block,
                           const ExecContext& ctx) const
{
    require(block.hasData(),
            "gradient tagging requires numeric mode; use an analytic "
            "tagger in counting mode");
    const BlockShape& s = block.shape();
    const KernelCosts costs{120.0, 1.0 * sizeof(double)};
    double max_jump = 0.0;
    const RealArray4& cons = block.cons();
    parReduceAt(ctx, "Refinement::Tag", block.rank(), "FirstDerivative",
                costs, ReduceOp::Max, max_jump, s.ks(), s.ke(), s.js(),
                s.je(), s.is(), s.ie(),
                [&](int k, int j, int i, double& acc) {
                    const double gx = 0.5 * (cons(0, k, j, i + 1) -
                                             cons(0, k, j, i - 1));
                    double gy = 0.0, gz = 0.0;
                    if (s.ndim >= 2)
                        gy = 0.5 * (cons(0, k, j + 1, i) -
                                    cons(0, k, j - 1, i));
                    if (s.ndim >= 3)
                        gz = 0.5 * (cons(0, k + 1, j, i) -
                                    cons(0, k - 1, j, i));
                    acc = std::max(
                        acc, std::sqrt(gx * gx + gy * gy + gz * gz));
                });
    // Weight the gradient by the transport speed: how fast the
    // feature sweeps through this block, the characteristic-speed
    // criterion of this package.
    const double indicator = config_.maxSpeed(s.ndim) * max_jump;
    if (indicator > config_.refineTol)
        return RefinementFlag::Refine;
    if (indicator < config_.derefineTol)
        return RefinementFlag::Derefine;
    return RefinementFlag::None;
}

} // namespace vibe
