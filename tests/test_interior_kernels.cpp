/**
 * @file test_interior_kernels.cpp
 * Bitwise oracle for the pencil interior kernels.
 *
 * The oracle below is the scalar formulation the pencils replaced:
 * a lambda-per-point `reconRow` over out-of-line `weno5Face`/`plmFace`
 * writing full-block left/right arrays, a per-face `hllFlux` that
 * gathers every component of a face, the upwind `upwindRow`, and the
 * unfused stage: a component-inner flux divergence into a full dudt
 * array, the reaction source added cell by cell, then the RK2
 * weighted sum. The pencil kernels and the fused row-by-row stage
 * update must reproduce it bit for bit — signed zeros included — for
 * every package, dimensionality and reconstruction, through the
 * per-block launch, serial and threaded.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "pkg/advection_package.hpp"
#include "pkg/burgers_package.hpp"
#include "pkg/fv_ops.hpp"
#include "pkg/reaction_package.hpp"
#include "solver/reconstruct.hpp"
#include "solver/riemann.hpp"
#include "solver/rk2.hpp"

namespace vibe {
namespace {

// --- Scalar oracle ----------------------------------------------------

namespace oracle {

[[gnu::noinline]] double
weno5Face(double m2, double m1, double c, double p1, double p2)
{
    constexpr double eps = 1e-6;
    constexpr double thirteen_twelfths = 13.0 / 12.0;

    const double b0 = thirteen_twelfths * (m2 - 2 * m1 + c) *
                          (m2 - 2 * m1 + c) +
                      0.25 * (m2 - 4 * m1 + 3 * c) * (m2 - 4 * m1 + 3 * c);
    const double b1 = thirteen_twelfths * (m1 - 2 * c + p1) *
                          (m1 - 2 * c + p1) +
                      0.25 * (m1 - p1) * (m1 - p1);
    const double b2 = thirteen_twelfths * (c - 2 * p1 + p2) *
                          (c - 2 * p1 + p2) +
                      0.25 * (3 * c - 4 * p1 + p2) * (3 * c - 4 * p1 + p2);

    const double a0 = 0.1 / ((eps + b0) * (eps + b0));
    const double a1 = 0.6 / ((eps + b1) * (eps + b1));
    const double a2 = 0.3 / ((eps + b2) * (eps + b2));
    const double inv_sum = 1.0 / (a0 + a1 + a2);

    const double s0 = (2 * m2 - 7 * m1 + 11 * c) / 6.0;
    const double s1 = (-m1 + 5 * c + 2 * p1) / 6.0;
    const double s2 = (2 * c + 5 * p1 - p2) / 6.0;

    return (a0 * s0 + a1 * s1 + a2 * s2) * inv_sum;
}

[[gnu::noinline]] double
plmFace(double m1, double c, double p1)
{
    const double dp = p1 - c;
    const double dm = c - m1;
    double slope = 0.0;
    if (dp * dm > 0.0)
        slope = std::fabs(dp) < std::fabs(dm) ? dp : dm;
    return c + 0.5 * slope;
}

void
reconRow(const RealArray4& cons, RealArray4& rl, RealArray4& rr,
         ReconMethod recon, int n, int k, int j, int fis, int fie, int di,
         int dj, int dk)
{
    for (int i = fis; i <= fie; ++i) {
        auto c = [&](int shift) {
            return cons(n, k + shift * dk, j + shift * dj,
                        i + shift * di);
        };
        double left, right;
        if (recon == ReconMethod::Weno5) {
            left = weno5Face(c(-3), c(-2), c(-1), c(0), c(1));
            right = weno5Face(c(2), c(1), c(0), c(-1), c(-2));
        } else {
            left = plmFace(c(-2), c(-1), c(0));
            right = plmFace(c(1), c(0), c(-1));
        }
        rl(n, k, j, i) = left;
        rr(n, k, j, i) = right;
    }
}

void
hllFlux(const double* ul, const double* ur, int dvel, int ncomp,
        double* flux)
{
    const double vl = ul[dvel];
    const double vr = ur[dvel];
    const double sl = std::min({vl, vr, 0.0});
    const double sr = std::max({vl, vr, 0.0});
    const double denom = sr - sl;

    for (int m = 0; m < ncomp; ++m) {
        const bool is_vel = m < 3;
        const double fl = is_vel ? 0.5 * vl * ul[m] : vl * ul[m];
        const double fr = is_vel ? 0.5 * vr * ur[m] : vr * ur[m];
        if (denom <= 0.0) {
            flux[m] = 0.5 * (fl + fr);
        } else {
            flux[m] =
                (sr * fl - sl * fr + sl * sr * (ur[m] - ul[m])) / denom;
        }
    }
}

void
upwindRow(const RealArray4& rl, const RealArray4& rr, RealArray4& flux,
          double vel, int ncomp, int k, int j, int fis, int fie)
{
    for (int i = fis; i <= fie; ++i)
        for (int n = 0; n < ncomp; ++n)
            flux(n, k, j, i) = vel >= 0.0 ? vel * rl(n, k, j, i)
                                          : vel * rr(n, k, j, i);
}

enum class Riemann { Hll, Upwind };

/** Fluxes of one block in direction d: reconstruct the face domain
 *  into full-block arrays, then solve face by face. */
void
fluxes(const RealArray4& cons, RealArray4& flux, const BlockShape& s,
       int d, ReconMethod recon, Riemann riemann, double vel)
{
    const int ncomp = cons.nvar();
    RealArray4 rl(ncomp, s.nk(), s.nj(), s.ni());
    RealArray4 rr(ncomp, s.nk(), s.nj(), s.ni());
    const int di = d == 0 ? 1 : 0;
    const int dj = d == 1 ? 1 : 0;
    const int dk = d == 2 ? 1 : 0;
    const int fis = s.is(), fie = s.ie() + di;
    const int fjs = s.js(), fje = s.je() + dj;
    const int fks = s.ks(), fke = s.ke() + dk;
    for (int n = 0; n < ncomp; ++n)
        for (int k = fks; k <= fke; ++k)
            for (int j = fjs; j <= fje; ++j)
                reconRow(cons, rl, rr, recon, n, k, j, fis, fie, di, dj,
                         dk);
    std::vector<double> ul(ncomp), ur(ncomp), f(ncomp);
    for (int k = fks; k <= fke; ++k)
        for (int j = fjs; j <= fje; ++j) {
            if (riemann == Riemann::Upwind) {
                upwindRow(rl, rr, flux, vel, ncomp, k, j, fis, fie);
                continue;
            }
            for (int i = fis; i <= fie; ++i) {
                for (int n = 0; n < ncomp; ++n) {
                    ul[n] = rl(n, k, j, i);
                    ur[n] = rr(n, k, j, i);
                }
                hllFlux(ul.data(), ur.data(), d, ncomp, f.data());
                for (int n = 0; n < ncomp; ++n)
                    flux(n, k, j, i) = f[n];
            }
        }
}

void
divergence(const RealArray4* const flux[3], RealArray4& dudt,
           const double (&inv_dx)[3], const BlockShape& s, int ncomp)
{
    for (int k = s.ks(); k <= s.ke(); ++k)
        for (int j = s.js(); j <= s.je(); ++j)
            for (int i = s.is(); i <= s.ie(); ++i)
                for (int n = 0; n < ncomp; ++n) {
                    double div = ((*flux[0])(n, k, j, i + 1) -
                                  (*flux[0])(n, k, j, i)) *
                                 inv_dx[0];
                    if (s.ndim >= 2)
                        div += ((*flux[1])(n, k, j + 1, i) -
                                (*flux[1])(n, k, j, i)) *
                               inv_dx[1];
                    if (s.ndim >= 3)
                        div += ((*flux[2])(n, k + 1, j, i) -
                                (*flux[2])(n, k, j, i)) *
                               inv_dx[2];
                    dudt(n, k, j, i) = -div;
                }
}

/** The reaction source, cell by cell, on a full dudt array. */
void
reactionSource(const ReactionPackage& package, const RealArray4& cons,
               RealArray4& dudt, const BlockShape& s)
{
    for (int k = s.ks(); k <= s.ke(); ++k)
        for (int j = s.js(); j <= s.je(); ++j)
            for (int i = s.is(); i <= s.ie(); ++i) {
                const double a = cons(0, k, j, i);
                const double transfer =
                    package.config().rate * (a - package.equilibrium(a));
                dudt(0, k, j, i) -= transfer;
                dudt(1, k, j, i) += transfer;
            }
}

void
weightedSum(RealArray4& cons, const RealArray4& cons0,
            const RealArray4& dudt, double wa, double wb, double wc,
            double dt, const BlockShape& s, int ncomp)
{
    for (int k = s.ks(); k <= s.ke(); ++k)
        for (int j = s.js(); j <= s.je(); ++j)
            for (int i = s.is(); i <= s.ie(); ++i)
                for (int n = 0; n < ncomp; ++n)
                    cons(n, k, j, i) = wa * cons0(n, k, j, i) +
                                       wb * cons(n, k, j, i) +
                                       wc * dt * dudt(n, k, j, i);
}

void
saveState(const RealArray4& cons, RealArray4& cons0, const BlockShape& s,
          int ncomp)
{
    for (int k = s.ks(); k <= s.ke(); ++k)
        for (int j = s.js(); j <= s.je(); ++j)
            for (int i = s.is(); i <= s.ie(); ++i)
                for (int n = 0; n < ncomp; ++n)
                    cons0(n, k, j, i) = cons(n, k, j, i);
}

} // namespace oracle

// --- Harness ----------------------------------------------------------

enum class Pkg { Burgers, Advection, Reaction };

const char*
pkgName(Pkg pkg)
{
    switch (pkg) {
      case Pkg::Burgers:
        return "burgers";
      case Pkg::Advection:
        return "advection";
      case Pkg::Reaction:
        return "reaction";
    }
    return "?";
}

std::unique_ptr<PackageDescriptor>
makePackage(Pkg pkg, ReconMethod recon, const double (&vel)[3])
{
    switch (pkg) {
      case Pkg::Burgers: {
        BurgersConfig config;
        config.numScalars = 3;
        config.recon = recon;
        return std::make_unique<BurgersPackage>(config);
      }
      case Pkg::Advection: {
        AdvectionConfig config;
        config.recon = recon;
        config.vx = vel[0];
        config.vy = vel[1];
        config.vz = vel[2];
        return std::make_unique<AdvectionPackage>(config);
      }
      case Pkg::Reaction: {
        ReactionConfig config;
        config.recon = recon;
        config.vx = vel[0];
        config.vy = vel[1];
        config.vz = vel[2];
        return std::make_unique<ReactionPackage>(config);
      }
    }
    return nullptr;
}

/** Two blocks per dimension, non-cubic blocks, so any stride taken
 *  from the wrong array or dimension lands on the wrong cell. */
MeshConfig
kernelMeshConfig(int ndim)
{
    MeshConfig config;
    config.ndim = ndim;
    config.nx1 = 16;
    config.nx2 = 12;
    config.nx3 = 8;
    config.blockNx1 = 8;
    config.blockNx2 = 6;
    config.blockNx3 = 4;
    config.amrLevels = 1;
    return config;
}

/** One uniform mesh on its own execution space. */
struct KernelMesh
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry;
    ExecContext ctx;
    Mesh mesh;

    KernelMesh(const PackageDescriptor& package, int ndim, int threads)
        : registry(package.buildRegistry()),
          ctx(ExecMode::Execute, &profiler, &tracker,
              makeExecutionSpace(threads)),
          mesh(kernelMeshConfig(ndim), registry, ctx)
    {}
};

/**
 * A value from a small exact set — signed zeros included — half the
 * time, else uniform in [-1, 1): whole stencils of exact zeros make
 * stagnant faces and signed-zero ties; the rest is generic.
 */
double
drawValue(std::mt19937_64& rng)
{
    static constexpr double exact[] = {-1.0, -0.0, 0.0, 0.0, -0.0, 0.5};
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    if (rng() % 2 == 0)
        return exact[rng() % 6];
    return u(rng);
}

void
fillRandom(RealArray4& a, std::mt19937_64& rng)
{
    double* p = a.data();
    for (std::size_t e = 0; e < a.size(); ++e)
        p[e] = drawValue(rng);
}

/** Random state; for Burgers the low-i half of every block has only
 *  signed-zero velocities, so its faces are stagnant (vl == vr == 0). */
void
fillState(Mesh& mesh, Pkg pkg, std::mt19937_64& rng)
{
    for (MeshBlock* block : mesh.ownedBlocks()) {
        RealArray4& cons = block->cons();
        fillRandom(cons, rng);
        if (pkg != Pkg::Burgers)
            continue;
        for (int m = 0; m < 3; ++m)
            for (int k = 0; k < cons.nk(); ++k)
                for (int j = 0; j < cons.nj(); ++j)
                    for (int i = 0; i < cons.ni() / 2; ++i)
                        cons(m, k, j, i) = rng() % 2 ? 0.0 : -0.0;
    }
}

/** "" when `got` and `want` are bitwise equal, else the first
 *  differing element. */
std::string
firstMismatch(const RealArray4& got, const RealArray4& want)
{
    if (got.nvar() != want.nvar() || got.nk() != want.nk() ||
        got.nj() != want.nj() || got.ni() != want.ni())
        return "shape mismatch";
    for (int n = 0; n < got.nvar(); ++n)
        for (int k = 0; k < got.nk(); ++k)
            for (int j = 0; j < got.nj(); ++j)
                for (int i = 0; i < got.ni(); ++i)
                    if (std::memcmp(&got(n, k, j, i), &want(n, k, j, i),
                                    sizeof(double)) != 0)
                        return "(" + std::to_string(n) + ", " +
                               std::to_string(k) + ", " +
                               std::to_string(j) + ", " +
                               std::to_string(i) + "): got " +
                               std::to_string(got(n, k, j, i)) +
                               " want " + std::to_string(want(n, k, j, i));
    return "";
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** NaN-filled face fluxes for one block (empty in inactive dims). */
FaceFluxes
nanFluxes(const BlockShape& s, int ncomp)
{
    FaceFluxes flux;
    flux[0] = RealArray4(ncomp, s.nk(), s.nj(), s.ni() + 1);
    if (s.ndim >= 2)
        flux[1] = RealArray4(ncomp, s.nk(), s.nj() + 1, s.ni());
    if (s.ndim >= 3)
        flux[2] = RealArray4(ncomp, s.nk() + 1, s.nj(), s.ni());
    for (RealArray4& f : flux)
        f.fill(kNaN);
    return flux;
}

/** Upwind velocity triples: both signs, and signed zeros (-0.0 >= 0
 *  picks the left state like +0.0, with a -0.0 product). */
constexpr double kVelocities[2][3] = {{0.7, -0.3, -0.0},
                                      {-0.0, 0.0, -1.2}};

// --- Tests ------------------------------------------------------------

TEST(InteriorKernelOracle, HllPencilMatchesScalarOnSignedZeroTies)
{
    // Every combination of face states from {-1, -0, +0, 0.5} for the
    // normal velocity, a transverse velocity and a scalar, solved as
    // one pencil and face by face by the scalar solver. Ties between
    // zeros of either sign are where a reordered min/max select
    // changes the sign of the flux.
    const double vals[] = {-1.0, -0.0, 0.0, 0.5};
    constexpr int ncomp = 4;
    for (int dvel = 0; dvel < 3; ++dvel) {
        std::vector<double> l, r;
        std::vector<std::vector<double>> faces_l, faces_r;
        for (double vl : vals)
            for (double vr : vals)
                for (double tl : vals)
                    for (double tr : vals)
                        for (double ql : vals)
                            for (double qr : vals) {
                                std::vector<double> fl(ncomp, 0.25),
                                    fr(ncomp, 0.25);
                                fl[dvel] = vl;
                                fr[dvel] = vr;
                                fl[(dvel + 1) % 3] = tl;
                                fr[(dvel + 1) % 3] = tr;
                                fl[3] = ql;
                                fr[3] = qr;
                                faces_l.push_back(fl);
                                faces_r.push_back(fr);
                            }
        const int nface = static_cast<int>(faces_l.size());
        l.assign(static_cast<std::size_t>(ncomp) * nface, 0.0);
        r.assign(l.size(), 0.0);
        for (int f = 0; f < nface; ++f)
            for (int m = 0; m < ncomp; ++m) {
                l[m * nface + f] = faces_l[f][m];
                r[m * nface + f] = faces_r[f][m];
            }
        std::vector<double> pencil(l.size(), kNaN);
        hllPencil(l.data(), r.data(), nface, dvel, ncomp, pencil.data(),
                  nface);
        for (int f = 0; f < nface; ++f) {
            double want[ncomp];
            oracle::hllFlux(faces_l[f].data(), faces_r[f].data(), dvel,
                            ncomp, want);
            for (int m = 0; m < ncomp; ++m)
                ASSERT_EQ(std::memcmp(&pencil[m * nface + f], &want[m],
                                      sizeof(double)),
                          0)
                    << "dvel " << dvel << " face " << f << " comp " << m
                    << ": got " << pencil[m * nface + f] << " want "
                    << want[m];
        }
    }
}

TEST(InteriorKernelOracle, FluxesMatchScalarBitwise)
{
    for (Pkg pkg : {Pkg::Burgers, Pkg::Advection, Pkg::Reaction})
        for (int ndim = 1; ndim <= 3; ++ndim)
            for (ReconMethod recon : {ReconMethod::Weno5, ReconMethod::Plm})
                for (int v = 0; v < (pkg == Pkg::Burgers ? 1 : 2); ++v)
                    for (int threads : {1, 4}) {
                        const std::string what =
                            std::string(pkgName(pkg)) + " " +
                            std::to_string(ndim) + "D " +
                            (recon == ReconMethod::Weno5 ? "weno5"
                                                         : "plm") +
                            " vel#" + std::to_string(v) + " @" +
                            std::to_string(threads) + " threads";
                        const auto package =
                            makePackage(pkg, recon, kVelocities[v]);
                        KernelMesh km(*package, ndim, threads);
                        std::mt19937_64 rng(
                            ndim * 131 + static_cast<int>(pkg) * 17 +
                            static_cast<int>(recon) * 7 + v);
                        fillState(km.mesh, pkg, rng);
                        const BlockShape s =
                            km.mesh.config().blockShape();

                        // Oracle into NaN-filled copies, kernels
                        // into NaN-filled arrays: whole-array
                        // equality also rules out stray writes.
                        const int ncomp = km.registry.ncompConserved();
                        std::vector<FaceFluxes> got;
                        std::vector<std::vector<RealArray4>> want;
                        for (MeshBlock* block : km.mesh.ownedBlocks()) {
                            got.push_back(nanFluxes(s, ncomp));
                            want.emplace_back(got.back().begin(),
                                              got.back().end());
                            for (int d = 0; d < ndim; ++d)
                                oracle::fluxes(
                                    block->cons(), want.back()[d], s,
                                    d, recon,
                                    pkg == Pkg::Burgers
                                        ? oracle::Riemann::Hll
                                        : oracle::Riemann::Upwind,
                                    kVelocities[v][d]);
                        }

                        std::size_t b = 0;
                        for (MeshBlock* block : km.mesh.ownedBlocks())
                            package->calculateFluxesBlock(km.mesh, *block,
                                                          got[b++]);

                        for (b = 0; b < got.size(); ++b) {
                            for (int d = 0; d < 3; ++d)
                                ASSERT_EQ(firstMismatch(got[b][d],
                                                        want[b][d]),
                                          "")
                                    << what << ", block " << b
                                    << ", flux(" << d << ")";
                        }
                    }
}

TEST(InteriorKernelOracle, FusedStageUpdateMatchesScalarBitwise)
{
    const double unit_vel[3] = {1.0, 1.0, 1.0};
    for (Pkg pkg : {Pkg::Burgers, Pkg::Advection, Pkg::Reaction})
        for (int ndim = 1; ndim <= 3; ++ndim)
            for (int threads : {1, 4}) {
                const std::string what =
                    std::string(pkgName(pkg)) + " " +
                    std::to_string(ndim) + "D @" +
                    std::to_string(threads) + " threads";
                const auto package =
                    makePackage(pkg, ReconMethod::Weno5, unit_vel);
                const RowSource* source = package->rowSource();
                ASSERT_EQ(source != nullptr, pkg == Pkg::Reaction) << what;
                KernelMesh km(*package, ndim, threads);
                std::mt19937_64 rng(ndim * 977 +
                                    static_cast<int>(pkg) * 3 +
                                    threads);
                const BlockShape s = km.mesh.config().blockShape();
                const int ncomp = km.registry.ncompConserved();

                // Save first.
                std::vector<RealArray4> want_cons, want_cons0;
                for (MeshBlock* block : km.mesh.ownedBlocks()) {
                    fillRandom(block->cons(), rng);
                    fillRandom(block->cons0(), rng);
                    want_cons.push_back(block->cons());
                    want_cons0.push_back(block->cons0());
                    oracle::saveState(want_cons.back(),
                                      want_cons0.back(), s, ncomp);
                }
                saveState(km.mesh);
                std::size_t b = 0;
                for (MeshBlock* block : km.mesh.ownedBlocks()) {
                    ASSERT_EQ(firstMismatch(block->cons0(),
                                            want_cons0[b]),
                              "")
                        << what << ", saveState of block " << b;
                    // Desynchronize u from u0 so stage 2 reads two
                    // different registers.
                    fillRandom(block->cons(), rng);
                    want_cons[b] = block->cons();
                    ++b;
                }

                // Both RK2 stages over fresh random fluxes: the oracle
                // divergence into a full dudt array, the source on the
                // pre-update state, then the weighted sum.
                const double dt = 0.37;
                for (int stage : {1, 2}) {
                    const double wa = stage == 1 ? 1.0 : 0.5;
                    const double wb = stage == 1 ? 0.0 : 0.5;
                    const double wc = stage == 1 ? 1.0 : 0.5;
                    std::vector<FaceFluxes> fluxes;
                    b = 0;
                    for (MeshBlock* block : km.mesh.ownedBlocks()) {
                        fluxes.push_back(nanFluxes(s, ncomp));
                        for (int d = 0; d < ndim; ++d)
                            fillRandom(fluxes.back()[d], rng);
                        const BlockGeometry& g = block->geom();
                        const double inv_dx[3] = {1.0 / g.dx1,
                                                  1.0 / g.dx2,
                                                  1.0 / g.dx3};
                        const RealArray4* flux[3] = {&fluxes.back()[0],
                                                     &fluxes.back()[1],
                                                     &fluxes.back()[2]};
                        RealArray4 dudt(ncomp, s.nk(), s.nj(), s.ni());
                        oracle::divergence(flux, dudt, inv_dx, s, ncomp);
                        if (pkg == Pkg::Reaction)
                            oracle::reactionSource(
                                static_cast<const ReactionPackage&>(
                                    *package),
                                want_cons[b], dudt, s);
                        oracle::weightedSum(want_cons[b], block->cons0(),
                                            dudt, wa, wb, wc, dt, s,
                                            ncomp);
                        ++b;
                    }
                    b = 0;
                    for (MeshBlock* block : km.mesh.ownedBlocks())
                        stageUpdateBlock(km.mesh, *block, fluxes[b++],
                                         stage, dt, source);
                    b = 0;
                    for (MeshBlock* block : km.mesh.ownedBlocks()) {
                        ASSERT_EQ(firstMismatch(block->cons(),
                                                want_cons[b]),
                                  "")
                            << what << ", stage " << stage
                            << " of block " << b;
                        ++b;
                    }
                }
            }
}

} // namespace
} // namespace vibe
