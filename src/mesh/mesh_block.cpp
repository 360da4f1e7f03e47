#include "mesh/mesh_block.hpp"

#include "exec/memory_tracker.hpp"
#include "mesh/block_memory_pool.hpp"
#include "util/logging.hpp"

namespace vibe {

FaceFluxes&
workerFaceFluxes(const BlockShape& shape, int ncomp)
{
    static thread_local FaceFluxes flux;
    const int ni = shape.ni(), nj = shape.nj(), nk = shape.nk();
    const RealArray4& fx = flux[0];
    if (fx.nvar() != ncomp || fx.nk() != nk || fx.nj() != nj ||
        fx.ni() != ni + 1) {
        flux[0] = RealArray4(ncomp, nk, nj, ni + 1);
        flux[1] = shape.ndim >= 2 ? RealArray4(ncomp, nk, nj + 1, ni)
                                  : RealArray4();
        flux[2] = shape.ndim >= 3 ? RealArray4(ncomp, nk + 1, nj, ni)
                                  : RealArray4();
    }
    return flux;
}

MeshBlock::MeshBlock(const LogicalLocation& loc, const BlockShape& shape,
                     const BlockGeometry& geom,
                     const VariableRegistry& registry,
                     const ExecContext& ctx, bool per_block_recon,
                     BlockMemoryPool* pool, bool shadow)
    : loc_(loc), shape_(shape), geom_(geom), registry_(&registry),
      tracker_(ctx.tracker()), pool_(pool),
      mode_(shadow ? DataMode::Shadow
                   : (ctx.executing() ? DataMode::Real
                                      : DataMode::Virtual)),
      per_block_recon_(per_block_recon)
{
    cost_ = static_cast<double>(shape_.interiorCells());
    if (mode_ == DataMode::Shadow) {
        // Structure only: compute the canonical byte footprint (load
        // balancing and the memory model need it on every replica) but
        // allocate nothing and register nothing.
        const int ncons = registry_->ncompConserved();
        const int nder = registry_->ncompDerived();
        const int ni = shape_.ni(), nj = shape_.nj(), nk = shape_.nk();
        const auto cell_bytes = [&](int nvar, int dk, int dj, int di) {
            return static_cast<std::size_t>(nvar) * (nk + dk) *
                   (nj + dj) * (ni + di) * sizeof(double);
        };
        data_bytes_ = 3 * cell_bytes(ncons, 0, 0, 0) +
                      cell_bytes(nder, 0, 0, 0) +
                      cell_bytes(ncons, 0, 0, 1);
        if (shape_.ndim >= 2)
            data_bytes_ += cell_bytes(ncons, 0, 1, 0);
        if (shape_.ndim >= 3)
            data_bytes_ += cell_bytes(ncons, 1, 0, 0);
        if (per_block_recon_)
            data_bytes_ += static_cast<std::size_t>(2 * shape_.ndim) *
                           cell_bytes(ncons, 0, 0, 0);
        return;
    }
    allocateAll(ctx);
}

MeshBlock::~MeshBlock()
{
    releaseAll();
}

void
MeshBlock::releaseAll()
{
    if (pool_ && mode_ == DataMode::Real) {
        pool_->release(cons_.releaseStorage());
        pool_->release(cons0_.releaseStorage());
        pool_->release(derived_.releaseStorage());
    }
    if (mode_ == DataMode::Real)
        releaseFluxes();
    if (tracker_)
        for (const auto& [label, bytes] : registered_)
            tracker_->deallocate(label, bytes);
    registered_.clear();
}

RealArray4
MeshBlock::makeArray(int nvar, int dk, int dj, int di, bool zero)
{
    const int nk = shape_.nk() + dk;
    const int nj = shape_.nj() + dj;
    const int ni = shape_.ni() + di;
    if (pool_)
        return RealArray4(nvar, nk, nj, ni,
                          pool_->acquire(static_cast<std::size_t>(nvar) *
                                         nk * nj * ni),
                          zero);
    return RealArray4(nvar, nk, nj, ni);
}

void
MeshBlock::acquireFluxes()
{
    // Every flux is written before it is read, so a recycled buffer
    // skips the clearing pass.
    const int ncons = registry_->ncompConserved();
    flux_[0] = makeArray(ncons, 0, 0, 1, false);
    if (shape_.ndim >= 2)
        flux_[1] = makeArray(ncons, 0, 1, 0, false);
    if (shape_.ndim >= 3)
        flux_[2] = makeArray(ncons, 1, 0, 0, false);
}

void
MeshBlock::releaseFluxes()
{
    for (RealArray4& flux : flux_) {
        if (pool_)
            pool_->release(flux.releaseStorage());
        else
            flux = RealArray4();
    }
}

void
MeshBlock::setFluxCorrection(bool participant)
{
    if (participant == flux_correction_)
        return;
    flux_correction_ = participant;
    if (mode_ != DataMode::Real)
        return;
    if (participant)
        acquireFluxes();
    else
        releaseFluxes();
}

void
MeshBlock::materialize(const ExecContext& ctx, BlockMemoryPool* pool)
{
    if (mode_ != DataMode::Shadow)
        panic("materialize() requires a Shadow block: ", loc_.str());
    pool_ = pool;
    tracker_ = ctx.tracker();
    mode_ = ctx.executing() ? DataMode::Real : DataMode::Virtual;
    data_bytes_ = 0; // allocateAll re-accumulates the identical total
    allocateAll(ctx);
}

void
MeshBlock::dematerialize()
{
    if (mode_ == DataMode::Shadow)
        panic("dematerialize() on an already-shadow block: ", loc_.str());
    releaseAll();
    if (mode_ == DataMode::Real) {
        // Unpooled arrays (or a Virtual block's nothing) still need
        // their extents cleared so any stale view faults loudly.
        cons_ = RealArray4();
        cons0_ = RealArray4();
        derived_ = RealArray4();
    }
    mode_ = DataMode::Shadow;
}

std::size_t
MeshBlock::serializedStateCount() const
{
    const std::size_t cells = static_cast<std::size_t>(shape_.ni()) *
                              shape_.nj() * shape_.nk();
    return cells * (static_cast<std::size_t>(
                        registry_->ncompConserved()) +
                    registry_->ncompDerived());
}

std::vector<double>
MeshBlock::serializeState() const
{
    if (mode_ != DataMode::Real)
        panic("serializeState() requires materialized data: ", loc_.str());
    std::vector<double> payload;
    payload.reserve(serializedStateCount());
    payload.insert(payload.end(), cons_.data(),
                   cons_.data() + cons_.size());
    payload.insert(payload.end(), derived_.data(),
                   derived_.data() + derived_.size());
    return payload;
}

void
MeshBlock::deserializeState(const std::vector<double>& payload)
{
    if (mode_ != DataMode::Real)
        panic("deserializeState() requires materialized storage: ",
              loc_.str());
    if (payload.size() != cons_.size() + derived_.size())
        panic("migrated block payload size mismatch for ", loc_.str(),
              ": got ", payload.size(), ", expected ",
              cons_.size() + derived_.size());
    std::copy(payload.begin(),
              payload.begin() + static_cast<std::ptrdiff_t>(cons_.size()),
              cons_.data());
    std::copy(payload.begin() + static_cast<std::ptrdiff_t>(cons_.size()),
              payload.end(), derived_.data());
}

void
MeshBlock::registerAllocation(const ExecContext& ctx,
                              const std::string& label, std::size_t bytes)
{
    data_bytes_ += bytes;
    if (ctx.tracker()) {
        ctx.tracker()->allocate(label, bytes);
        registered_.emplace_back(label, bytes);
    }
}

void
MeshBlock::allocateAll(const ExecContext& ctx)
{
    const int ncons = registry_->ncompConserved();
    const int nder = registry_->ncompDerived();
    const int ni = shape_.ni();
    const int nj = shape_.nj();
    const int nk = shape_.nk();
    const auto cell_bytes = [&](int nvar, int dk, int dj, int di) {
        return static_cast<std::size_t>(nvar) * (nk + dk) * (nj + dj) *
               (ni + di) * sizeof(double);
    };

    if (mode_ == DataMode::Real) {
        // State-carrying arrays are zeroed in a single assign, so a
        // recycled buffer is bit-identical to a fresh one. Only a
        // flux-correction participant stores fluxes.
        cons_ = makeArray(ncons, 0, 0, 0, true);
        cons0_ = makeArray(ncons, 0, 0, 0, true);
        derived_ = makeArray(nder, 0, 0, 0, true);
        if (flux_correction_)
            acquireFluxes();
    }

    // The Kokkos footprint the paper counts: every block holds a dudt
    // register and three flux arrays there. Here they are model terms:
    // the update fuses the divergence row by row, and fluxes live in
    // worker scratch unless the block takes part in flux correction.
    registerAllocation(ctx, "mesh/cons", cell_bytes(ncons, 0, 0, 0));
    registerAllocation(ctx, "mesh/cons0", cell_bytes(ncons, 0, 0, 0));
    registerAllocation(ctx, "mesh/dudt", cell_bytes(ncons, 0, 0, 0));
    registerAllocation(ctx, "mesh/derived", cell_bytes(nder, 0, 0, 0));
    registerAllocation(ctx, "mesh/flux", cell_bytes(ncons, 0, 0, 1));
    if (shape_.ndim >= 2)
        registerAllocation(ctx, "mesh/flux", cell_bytes(ncons, 0, 1, 0));
    if (shape_.ndim >= 3)
        registerAllocation(ctx, "mesh/flux", cell_bytes(ncons, 1, 0, 0));
    if (per_block_recon_) {
        // The paper's auxiliary-variable term (§VIII-B): two face states
        // per direction at full block resolution. A model term only:
        // the flux kernels reconstruct in per-chunk pencil scratch, so
        // no storage backs it.
        registerAllocation(
            ctx, "mesh/recon",
            static_cast<std::size_t>(2 * shape_.ndim) *
                cell_bytes(ncons, 0, 0, 0));
    }
}

} // namespace vibe
