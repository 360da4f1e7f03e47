#include "driver/tagger.hpp"

#include <algorithm>
#include <cmath>

#include "exec/par_for.hpp"

namespace vibe {

void
GradientTagger::tagAll(Mesh& mesh, double /*time*/,
                       std::int64_t /*cycle*/)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "Refinement::Tag");
    parForBlocks(ctx, mesh.ownedBlocks(), [&](int, MeshBlock& block) {
        block.setTag(package_->tagBlock(block, ctx));
        // CheckAllRefinement walks every package with scalar heuristics
        // (§VIII-A "Refinement Tagging via Scalar Loops").
        recordSerialAt(ctx, "Refinement::Tag", block.rank(),
                       "refine_check", 1.0);
    });
}

double
SphericalWaveTagger::radiusAt(double time) const
{
    const double span = params_.rMax - params_.rMin;
    if (span <= 0.0)
        return params_.rMin;
    const double phase = std::fmod(params_.speed * time, 2.0 * span);
    const double tri = phase < span ? phase : 2.0 * span - phase;
    return params_.rMin + tri;
}

void
SphericalWaveTagger::tagAll(Mesh& mesh, double time,
                            std::int64_t /*cycle*/)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "Refinement::Tag");
    const double r = radiusAt(time);
    const BlockShape shape = mesh.config().blockShape();
    // Same kernel work the gradient criterion would launch per block.
    const KernelCosts tag_costs{120.0, 1.0 * sizeof(double)};

    parForBlocks(ctx, mesh.ownedBlocks(), [&](int, MeshBlock& block) {
        recordKernelAt(ctx, "Refinement::Tag", block.rank(),
                       "FirstDerivative",
                       static_cast<double>(shape.interiorCells()),
                       tag_costs, static_cast<double>(shape.nx1));
        recordSerialAt(ctx, "Refinement::Tag", block.rank(),
                       "refine_check", 1.0);

        const BlockGeometry& g = block.geom();
        // Distance band from the shell center to the block's AABB.
        const double lo[3] = {g.x1min, g.x2min, g.x3min};
        const double hi[3] = {g.x1max, g.x2max, g.x3max};
        const double c[3] = {params_.cx, params_.cy, params_.cz};
        double dmin2 = 0.0, dmax2 = 0.0;
        const int ndim = shape.ndim;
        for (int d = 0; d < ndim; ++d) {
            const double below = lo[d] - c[d];
            const double above = c[d] - hi[d];
            const double outside = std::max({below, above, 0.0});
            dmin2 += outside * outside;
            const double far =
                std::max(std::fabs(c[d] - lo[d]), std::fabs(hi[d] - c[d]));
            dmax2 += far * far;
        }
        const double dmin = std::sqrt(dmin2);
        const double dmax = std::sqrt(dmax2);

        const double halo = params_.haloCells * g.dx1;
        const double w = params_.width + halo;
        bool intersects, far_away;
        if (params_.solid) {
            intersects = dmin <= r + w;
            far_away = dmin > params_.derefineFactor * (r + w);
        } else {
            intersects = dmin <= r + w && dmax >= r - w;
            far_away = dmin > r + params_.derefineFactor * w ||
                       dmax < r - params_.derefineFactor * w;
        }

        if (intersects)
            block.setTag(RefinementFlag::Refine);
        else if (far_away)
            block.setTag(RefinementFlag::Derefine);
        else
            block.setTag(RefinementFlag::None);
    });
}

} // namespace vibe
