#include "pkg/burgers_package.hpp"

#include <cmath>
#include <vector>

#include "exec/par_for.hpp"
#include "mesh/block_pack.hpp"
#include "pkg/fv_ops.hpp"
#include "solver/riemann.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

/**
 * WENO5/PLM + HLL fluxes for one (k, j) row of faces [fis, fie] in
 * direction d, in one pass: every component's left and right states
 * are reconstructed into `scratch` (component-major, 2 * ncomp * nface
 * doubles — a few KB, so it stays in L1), then the HLL pencil solves
 * the row one component at a time into flux(m, k, j, fis..fie). Shared
 * by the per-block and pack launch bodies.
 */
inline void
hllFluxRow(const RealArray4& cons, RealArray4& flux, ReconMethod recon,
           int d, int ncomp, int k, int j, int fis, int fie,
           double* scratch)
{
    const int nface = fie - fis + 1;
    const std::ptrdiff_t stride = stencilStride(cons, d);
    double* const l = scratch;
    double* const r = scratch + static_cast<std::ptrdiff_t>(ncomp) * nface;
    for (int n = 0; n < ncomp; ++n) {
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(n) * nface;
        reconPencil(&cons(n, k, j, fis), stride, nface, recon, l + off,
                    r + off);
    }
    hllPencil(l, r, nface, d, ncomp, &flux(0, k, j, fis),
              componentStride(flux));
}

/**
 * Per-chunk pencil scratch for one flux launch: one 2 * ncomp * nface
 * slice per execution-space chunk, sized once at launch setup
 * (grow-only, so steady state allocates nothing); the row body indexes
 * it by chunk id. Concurrent per-block flux tasks each run on their
 * own thread and so get their own buffer; chunks of a top-level launch
 * index disjoint slices of the launching thread's buffer, which
 * outlives the synchronous launch. Returned as a plain pointer:
 * thread_locals are not captured by lambdas, so a pool worker running
 * a chunk would otherwise resolve the buffer to its own (unsized)
 * instance.
 */
double*
pencilScratch(const ExecContext& ctx, std::size_t per_chunk)
{
    static thread_local std::vector<double> scratch;
    const std::size_t need =
        static_cast<std::size_t>(ctx.space().concurrency()) * per_chunk;
    if (scratch.size() < need)
        scratch.resize(need);
    return scratch.data();
}

/** Per-cell costs of the Burgers CalculateFluxes kernel. */
KernelCosts
hllFluxCosts(ReconMethod recon, int ndim, int ncomp)
{
    const double recon_flops =
        recon == ReconMethod::Weno5 ? kWeno5Flops : kPlmFlops;
    // Per interior cell: for each direction, ~1 face: two reconstructed
    // states and one HLL flux per component.
    return {ndim * ncomp * (2 * recon_flops + kHllFlopsPerComp),
            // Effective DRAM traffic: state read + recon write x2 + flux
            // write per direction (stencil reuse hits cache).
            ndim * ncomp * 4.0 * sizeof(double)};
}

} // namespace

BurgersConfig
BurgersConfig::fromParams(const ParameterInput& pin)
{
    BurgersConfig config;
    config.numScalars = pin.getInt("burgers", "num_scalars", 8);
    config.cfl = pin.getReal("burgers", "cfl", 0.4);
    config.recon =
        reconMethodFromName(pin.getString("burgers", "recon", "weno5"));
    config.refineTol = pin.getReal("burgers", "refine_tol", 0.08);
    config.derefineTol = pin.getReal("burgers", "derefine_tol", 0.02);
    config.ic =
        initialConditionFromName(pin.getString("burgers", "ic", "ripple"));
    return config;
}

const std::string&
BurgersPackage::name() const
{
    static const std::string package_name = "burgers";
    return package_name;
}

VariableRegistry
makeBurgersRegistry(int num_scalars)
{
    require(num_scalars >= 1,
            "Burgers benchmark requires at least one passive scalar");
    VariableRegistry registry;
    registry.add({"u", 3, kIndependent | kFillGhost | kWithFluxes});
    registry.add({"q", num_scalars, kIndependent | kFillGhost |
                                        kWithFluxes});
    registry.add({"d", 1, kDerived});
    return registry;
}

InitialCondition
initialConditionFromName(const std::string& name)
{
    if (name == "gaussian_blob")
        return InitialCondition::GaussianBlob;
    if (name == "sine")
        return InitialCondition::Sine;
    if (name == "ripple")
        return InitialCondition::Ripple;
    fatal("unknown initial condition '", name, "'");
}

void
BurgersPackage::initialize(Mesh& mesh, InitialCondition ic) const
{
    for (MeshBlock* block : mesh.ownedBlocks())
        initializeBlock(mesh.ctx(), *block, ic);
}

void
BurgersPackage::initializeBlock(const ExecContext& ctx, MeshBlock& block,
                                InitialCondition ic) const
{
    if (!block.hasData())
        return;
    const BlockShape& s = block.shape();
    const BlockGeometry& g = block.geom();
    const int ncomp = block.registry().ncompConserved();
    RealArray4& cons = block.cons();
    constexpr double two_pi = 6.283185307179586;

    // Fill interior AND ghosts so the first exchange starts consistent.
    // Elementwise and unaccounted in the seed, so dispatching on the
    // execution space changes neither results nor profiler totals.
    parForExec(
        ctx, 0, s.nk() - 1, 0, s.nj() - 1, 0, s.ni() - 1,
        [&](int k, int j, int i) {
                const double x = g.x1c(i - s.is());
                const double y = s.ndim >= 2 ? g.x2c(j - s.js()) : 0.5;
                const double z = s.ndim >= 3 ? g.x3c(k - s.ks()) : 0.5;
                const double dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
                const double r2 = dx * dx + dy * dy + dz * dz;
                const double r = std::sqrt(r2);

                double u1 = 0, u2 = 0, u3 = 0, q = 1e-3;
                switch (ic) {
                  case InitialCondition::GaussianBlob: {
                    const double amp = std::exp(-r2 / (2 * 0.08 * 0.08));
                    u1 = amp;
                    u2 = 0.5 * amp;
                    u3 = 0.25 * amp;
                    q = amp + 1e-3;
                    break;
                  }
                  case InitialCondition::Sine: {
                    u1 = 0.2 * std::sin(two_pi * x);
                    u2 = s.ndim >= 2 ? 0.2 * std::sin(two_pi * y) : 0.0;
                    u3 = s.ndim >= 3 ? 0.2 * std::sin(two_pi * z) : 0.0;
                    q = 1.0 + 0.5 * std::sin(two_pi * (x + y + z));
                    break;
                  }
                  case InitialCondition::Ripple: {
                    // Outward radial pulse centered on a thin shell.
                    const double shell = 0.12;
                    const double amp = std::exp(
                        -(r - shell) * (r - shell) / (2 * 0.03 * 0.03));
                    const double inv_r = r > 1e-12 ? 1.0 / r : 0.0;
                    u1 = amp * dx * inv_r;
                    u2 = s.ndim >= 2 ? amp * dy * inv_r : 0.0;
                    u3 = s.ndim >= 3 ? amp * dz * inv_r : 0.0;
                    q = amp + 1e-3;
                    break;
                  }
                }
                cons(0, k, j, i) = u1;
                cons(1, k, j, i) = u2;
                cons(2, k, j, i) = u3;
                for (int m = 3; m < ncomp; ++m)
                    cons(m, k, j, i) = q / (1.0 + 0.1 * (m - 3));
        });
}

void
BurgersPackage::calculateFluxesBlock(Mesh& mesh, MeshBlock& block) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    recordKernelAt(ctx, "CalculateFluxes", block.rank(),
                   "CalculateFluxes",
                   static_cast<double>(s.interiorCells()),
                   hllFluxCosts(config_.recon, s.ndim, ncomp),
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    // The widest pencil is the x sweep's nx1 + 1 faces.
    const std::size_t per_chunk =
        2 * static_cast<std::size_t>(ncomp) * (s.nx1 + 1);
    double* const scratch_base = pencilScratch(ctx, per_chunk);
    const RealArray4& cons = block.cons();
    for (int d = 0; d < s.ndim; ++d) {
        RealArray4& flux = block.flux(d);
        // Interior faces of dim d, interior cells in transverse dims.
        const int fis = s.is(), fie = s.ie() + (d == 0);
        const int fjs = s.js(), fje = s.je() + (d == 1);
        const int fks = s.ks(), fke = s.ke() + (d == 2);
        parForExecRows(
            ctx, fks, fke, fjs, fje, [&](int chunk, int k, int j) {
                hllFluxRow(cons, flux, config_.recon, d, ncomp, k, j, fis,
                           fie, scratch_base + chunk * per_chunk);
            });
    }
}

void
BurgersPackage::calculateFluxesPack(Mesh& mesh, MeshBlockPack& pack) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int nb = pack.numBlocks();
    recordPackKernel(ctx, "CalculateFluxes", "CalculateFluxes",
                     hllFluxCosts(config_.recon, s.ndim, ncomp),
                     pack.ranks(), nb,
                     static_cast<double>(s.interiorCells()),
                     static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    const std::size_t per_chunk =
        2 * static_cast<std::size_t>(ncomp) * (s.nx1 + 1);
    double* const scratch_base = pencilScratch(ctx, per_chunk);
    for (int d = 0; d < s.ndim; ++d) {
        const int fis = s.is(), fie = s.ie() + (d == 0);
        const int fjs = s.js(), fje = s.je() + (d == 1);
        const int fks = s.ks(), fke = s.ke() + (d == 2);
        // One fused launch over (b, k, j) face rows, running the same
        // row kernel as the per-block path.
        parForPackExec(ctx, nb, 0, 0, fks, fke, fjs, fje,
                       [&](int chunk, int b, int, int k, int j) {
                           BlockPackView& v = pack.view(b);
                           hllFluxRow(*v.cons, *v.flux[d], config_.recon,
                                      d, ncomp, k, j, fis, fie,
                                      scratch_base + chunk * per_chunk);
                       });
    }
}

void
BurgersPackage::fluxDivergenceBlock(Mesh& mesh, MeshBlock& block) const
{
    fvFluxDivergenceBlock(mesh, block);
}

void
BurgersPackage::fluxDivergencePack(Mesh& mesh, MeshBlockPack& pack) const
{
    fvFluxDivergencePack(mesh, pack);
}

void
BurgersPackage::fillDerived(Mesh& mesh) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "FillDerived");
    const BlockShape s = mesh.config().blockShape();
    // d = 0.5 q0 (u.u): 5 reads, 1 write, ~6 flops per cell.
    const KernelCosts costs{6.0, 6.0 * sizeof(double)};

    const double lookups =
        static_cast<double>(mesh.registry().all().size());
    parForBlocks(ctx, mesh.ownedBlocks(), [&](int, MeshBlock& block) {
        // String-based variable extraction (GetVariablesByFlag) is the
        // serial overhead the paper highlights (§VIII-A).
        recordSerialAt(ctx, "FillDerived", block.rank(), "string_lookup",
                       lookups);
        RealArray4& cons = block.cons();
        RealArray4& derived = block.derived();
        parForAt(ctx, "FillDerived", block.rank(), "CalculateDerived",
                 costs, s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
                 [&](int k, int j, int i) {
                     const double u1 = cons(0, k, j, i);
                     const double u2 = cons(1, k, j, i);
                     const double u3 = cons(2, k, j, i);
                     const double q0 = cons(3, k, j, i);
                     derived(0, k, j, i) =
                         0.5 * q0 * (u1 * u1 + u2 * u2 + u3 * u3);
                 });
    });
}

void
BurgersPackage::fillDerivedPack(Mesh& mesh, MeshBlockPack& pack) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "FillDerived");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{6.0, 6.0 * sizeof(double)};
    const int nb = pack.numBlocks();

    // The string-keyed variable extraction happens once per block
    // regardless of launch fusion (§VIII-A serial overhead).
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
                       const double u1 = cons(0, k, j, i);
                       const double u2 = cons(1, k, j, i);
                       const double u3 = cons(2, k, j, i);
                       const double q0 = cons(3, k, j, i);
                       derived(0, k, j, i) =
                           0.5 * q0 * (u1 * u1 + u2 * u2 + u3 * u3);
                   }
               });
}

double
BurgersPackage::estimateTimestep(Mesh& mesh, RankWorld& world,
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
        RealArray4& cons = block.cons();
        const BlockGeometry& g = block.geom();
        parReduceAt(
            ctx, "EstimateTimestep", block.rank(), "EstTimeMesh", costs,
            ReduceOp::Min, block_dt[b], s.ks(), s.ke(), s.js(), s.je(),
            s.is(), s.ie(), [&](int k, int j, int i, double& acc) {
                constexpr double tiny = 1e-12;
                double cell_dt =
                    g.dx1 / (std::fabs(cons(0, k, j, i)) + tiny);
                if (s.ndim >= 2)
                    cell_dt = std::min(
                        cell_dt,
                        g.dx2 / (std::fabs(cons(1, k, j, i)) + tiny));
                if (s.ndim >= 3)
                    cell_dt = std::min(
                        cell_dt,
                        g.dx3 / (std::fabs(cons(2, k, j, i)) + tiny));
                acc = std::min(acc, cell_dt);
            });
        recordSerialAt(ctx, "EstimateTimestep", block.rank(), "dt_reduce",
                       1.0);
    });
    for (double value : block_dt)
        dt = std::min(dt, value);
    // Global min across ranks: a real rendezvous on a rank team (min
    // is exact under any combination order, so the collective dt is
    // bitwise the 1-rank dt), accounting-only on the classic path.
    dt = world.allReduceValue(mesh.collectiveRank(), dt, CollOp::Min,
                              sizeof(double));
    recordSerial(ctx, "collective", 1.0);
    return config_.cfl * dt;
}

double
BurgersPackage::estimateTimestepPack(Mesh& mesh, MeshBlockPack& pack,
                                     RankWorld& world,
                                     double fallback_dt) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "EstimateTimestep");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{10.0, 3.0 * sizeof(double)};
    const int nb = pack.numBlocks();

    // Single chunk-ordered min over the packed cell domain: exact
    // under any chunking, so the dt matches the per-block reduction
    // sequence bit for bit.
    double dt = fallback_dt / config_.cfl;
    parReducePack(
        ctx, "EstimateTimestep", "EstTimeMesh", costs, ReduceOp::Min,
        dt, pack.ranks(), nb, s.ks(), s.ke(), s.js(), s.je(), s.is(),
        s.ie(), [&](int b, int k, int j, double& acc) {
            BlockPackView& v = pack.view(b);
            const RealArray4& cons = *v.cons;
            for (int i = s.is(); i <= s.ie(); ++i) {
                constexpr double tiny = 1e-12;
                double cell_dt =
                    v.dx1 / (std::fabs(cons(0, k, j, i)) + tiny);
                if (s.ndim >= 2)
                    cell_dt = std::min(
                        cell_dt,
                        v.dx2 / (std::fabs(cons(1, k, j, i)) + tiny));
                if (s.ndim >= 3)
                    cell_dt = std::min(
                        cell_dt,
                        v.dx3 / (std::fabs(cons(2, k, j, i)) + tiny));
                acc = std::min(acc, cell_dt);
            }
        });
    for (int b = 0; b < nb; ++b)
        recordSerialAt(ctx, "EstimateTimestep", pack.ranks()[b],
                       "dt_reduce", 1.0);
    // Global min across ranks (exact; see estimateTimestep).
    dt = world.allReduceValue(mesh.collectiveRank(), dt, CollOp::Min,
                              sizeof(double));
    recordSerial(ctx, "collective", 1.0);
    return config_.cfl * dt;
}

double
BurgersPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "other");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{2.0, 1.0 * sizeof(double)};

    // Per-block partials folded in global gid order (foldBlockPartials)
    // so the sum is bitwise independent of how blocks shard over ranks
    // — plain running accumulation would entangle the fold with the
    // decomposition.
    std::vector<BlockPartial> partials(mesh.ownedBlocks().size());
    parForBlocks(ctx, mesh.ownedBlocks(), [&](int b, MeshBlock& block) {
        RealArray4& cons = block.cons();
        const double vol = block.geom().cellVolume();
        partials[b].gid = block.gid();
        parReduceAt(ctx, "other", block.rank(), "MassHistory", costs,
                    ReduceOp::Sum, partials[b].value, s.ks(), s.ke(),
                    s.js(), s.je(), s.is(), s.ie(),
                    [&](int k, int j, int i, double& acc) {
                        acc += cons(3, k, j, i) * vol;
                    });
    });
    const double mass =
        foldBlockPartials(mesh, world, std::move(partials));
    recordSerial(ctx, "collective", 1.0);
    return mass;
}

RefinementFlag
BurgersPackage::tagBlock(const MeshBlock& block,
                         const ExecContext& ctx) const
{
    require(block.hasData(),
            "gradient tagging requires numeric mode; use an analytic "
            "tagger in counting mode");
    const BlockShape& s = block.shape();
    // First-derivative indicator (the VIBE tagging kernel): maximum
    // index-space velocity jump over interior cells.
    const KernelCosts costs{120.0, 1.0 * sizeof(double)};
    double max_jump = 0.0;
    const RealArray4& cons = block.cons();
    parReduceAt(ctx, "Refinement::Tag", block.rank(), "FirstDerivative",
                costs, ReduceOp::Max, max_jump, s.ks(), s.ke(), s.js(),
                s.je(), s.is(), s.ie(),
                [&](int k, int j, int i, double& acc) {
                    double jump2 = 0.0;
                    for (int m = 0; m < 3; ++m) {
                        const double gx = 0.5 * (cons(m, k, j, i + 1) -
                                                 cons(m, k, j, i - 1));
                        double gy = 0.0, gz = 0.0;
                        if (s.ndim >= 2)
                            gy = 0.5 * (cons(m, k, j + 1, i) -
                                        cons(m, k, j - 1, i));
                        if (s.ndim >= 3)
                            gz = 0.5 * (cons(m, k + 1, j, i) -
                                        cons(m, k - 1, j, i));
                        jump2 += gx * gx + gy * gy + gz * gz;
                    }
                    acc = std::max(acc, std::sqrt(jump2));
                });
    if (max_jump > config_.refineTol)
        return RefinementFlag::Refine;
    if (max_jump < config_.derefineTol)
        return RefinementFlag::Derefine;
    return RefinementFlag::None;
}

} // namespace vibe
