#include "comm/boundary_buffers.hpp"

#include <algorithm>
#include <cstdlib>
#include <tuple>

#include "exec/par_for.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

/** Per-dimension shape accessors in array form. */
struct DimShape
{
    int nx[3];
    int start[3];
    int end[3];
    int ng;
    int ndim;

    explicit DimShape(const BlockShape& s)
        : nx{s.nx1, s.ndim >= 2 ? s.nx2 : 1, s.ndim >= 3 ? s.nx3 : 1},
          start{s.is(), s.js(), s.ks()}, end{s.ie(), s.je(), s.ke()},
          ng(s.ng), ndim(s.ndim)
    {
    }

    bool active(int d) const { return d < ndim; }
};

std::int64_t
locIndex(const LogicalLocation& loc, int d)
{
    return d == 0 ? loc.lx1 : d == 1 ? loc.lx2 : loc.lx3;
}

int
offsetOfDim(const NeighborBlock& nb, int d)
{
    return d == 0 ? nb.ox1 : d == 1 ? nb.ox2 : nb.ox3;
}

IndexRange*
rangeOfDim(Region3& region, int d)
{
    return d == 0 ? &region.i : d == 1 ? &region.j : &region.k;
}

} // namespace

BoundaryBufferCache::BoundaryBufferCache(Mesh& mesh, bool randomize_keys,
                                         std::uint64_t seed)
    : mesh_(&mesh), randomize_keys_(randomize_keys), rng_(seed)
{
    rebuild();
}

BoundsChannel
BoundaryBufferCache::makeBoundsChannel(MeshBlock& receiver,
                                       const NeighborBlock& nb) const
{
    const DimShape s(mesh_->config().blockShape());
    BoundsChannel ch;
    ch.sender = nb.block;
    ch.receiver = &receiver;
    ch.o1 = nb.ox1;
    ch.o2 = nb.ox2;
    ch.o3 = nb.ox3;
    ch.levelDiff = nb.levelDiff;
    ch.id = {nb.block->loc(), receiver.loc(),
             static_cast<std::int8_t>(nb.ox1),
             static_cast<std::int8_t>(nb.ox2),
             static_cast<std::int8_t>(nb.ox3), ChannelKind::Bounds};

    for (int d = 0; d < 3; ++d) {
        IndexRange* recv = rangeOfDim(ch.recv, d);
        IndexRange* send = rangeOfDim(ch.send, d);
        if (!s.active(d)) {
            *recv = {0, 0};
            *send = {0, 0};
            continue;
        }
        const int o = offsetOfDim(nb, d);
        const int nx = s.nx[d];
        const int lo = s.start[d];
        const int hi = s.end[d];

        // --- Receiver target region ---
        if (o == 1) {
            // Fine-to-coarse ghost depth is limited by the fine
            // neighbor's interior (only relevant for nx < 2*ng).
            const int depth =
                ch.levelDiff == 1 ? std::min(s.ng, nx / 2) : s.ng;
            *recv = {hi + 1, hi + depth};
        } else if (o == -1) {
            const int depth =
                ch.levelDiff == 1 ? std::min(s.ng, nx / 2) : s.ng;
            *recv = {lo - depth, lo - 1};
        } else if (ch.levelDiff == 1) {
            // Transverse: the fine sender covers one half of us.
            const int half =
                static_cast<int>(locIndex(ch.sender->loc(), d) & 1);
            *recv = {lo + half * nx / 2, lo + (half + 1) * nx / 2 - 1};
        } else {
            *recv = {lo, hi};
        }

        // --- Sender source region and alignment constants ---
        if (ch.levelDiff == 0) {
            if (o == 1)
                *send = {lo, lo + s.ng - 1};
            else if (o == -1)
                *send = {hi - s.ng + 1, hi};
            else
                *send = {lo, hi};
        } else if (ch.levelDiff == 1) {
            // Fine sender; wire carries restricted (coarse) cells of
            // the recv region. base2 maps recv coarse cell C to fine
            // start 2C - base2 (interior-relative).
            if (o == 1) {
                ch.base2[d] = 2 * nx;
                *send = {lo, lo + 2 * recv->count() - 1};
            } else if (o == -1) {
                ch.base2[d] = -nx;
                *send = {hi - 2 * recv->count() + 1, hi};
            } else {
                const int half =
                    static_cast<int>(locIndex(ch.sender->loc(), d) & 1);
                ch.base2[d] = half * nx;
                *send = {lo, hi};
            }
        } else {
            // Coarse sender; wire carries a padded coarse slab. base
            // maps receiver fine cell F to coarse cell (F - base) >> 1
            // (interior-relative).
            if (o == 1)
                ch.base[d] = nx;
            else if (o == -1)
                ch.base[d] = -2 * nx;
            else
                ch.base[d] = -static_cast<int>(
                                 locIndex(ch.receiver->loc(), d) & 1) *
                             nx;
            const int f_lo = recv->lo - lo;
            const int f_hi = recv->hi - lo;
            const int c_lo = (f_lo - ch.base[d]) >> 1;
            const int c_hi = (f_hi - ch.base[d]) >> 1;
            require(c_lo >= -1 && c_hi <= nx,
                    "coarse slab out of range in dim ", d);
            const int padded_lo = std::max(0, c_lo - 1);
            const int padded_hi = std::min(nx - 1, c_hi + 1);
            *send = {lo + padded_lo, lo + padded_hi};
        }
    }
    return ch;
}

FluxChannel
BoundaryBufferCache::makeFluxChannel(MeshBlock& receiver,
                                     const NeighborBlock& nb) const
{
    const DimShape s(mesh_->config().blockShape());
    FluxChannel ch;
    ch.sender = nb.block;
    ch.receiver = &receiver;
    ch.id = {nb.block->loc(), receiver.loc(),
             static_cast<std::int8_t>(nb.ox1),
             static_cast<std::int8_t>(nb.ox2),
             static_cast<std::int8_t>(nb.ox3), ChannelKind::Flux};
    ch.dir = nb.ox1 != 0 ? 0 : nb.ox2 != 0 ? 1 : 2;
    ch.side = offsetOfDim(nb, ch.dir);

    for (int d = 0; d < 3; ++d) {
        IndexRange* faces = rangeOfDim(ch.recvFaces, d);
        if (!s.active(d)) {
            *faces = {0, 0};
            continue;
        }
        const int nx = s.nx[d];
        const int lo = s.start[d];
        const int hi = s.end[d];
        if (d == ch.dir) {
            ch.recvFaceIdx = ch.side == 1 ? hi + 1 : lo;
            ch.sendFaceIdx = ch.side == 1 ? lo : hi + 1;
            *faces = {ch.recvFaceIdx, ch.recvFaceIdx};
        } else {
            const int half =
                static_cast<int>(locIndex(ch.sender->loc(), d) & 1);
            ch.base2[d] = half * nx;
            *faces = {lo + half * nx / 2, lo + (half + 1) * nx / 2 - 1};
        }
    }
    return ch;
}

void
BoundaryBufferCache::rebuild()
{
    ++rebuild_count_;
    bounds_.clear();
    flux_.clear();

    for (const auto& block : mesh_->blocks()) {
        for (const auto& nb : mesh_->neighbors(block->gid())) {
            bounds_.push_back(makeBoundsChannel(*block, nb));
            const bool is_face =
                std::abs(nb.ox1) + std::abs(nb.ox2) + std::abs(nb.ox3) ==
                1;
            if (nb.levelDiff == 1 && is_face)
                flux_.push_back(makeFluxChannel(*block, nb));
        }
    }

    // InitializeBufferCache: sort boundary keys deterministically,
    // then optionally randomize their order (§VIII-A). Both passes are
    // recorded as serial work for the host-cost model.
    auto key_of = [](const ChannelId& id) {
        return std::make_tuple(id.receiver.level, id.receiver.lx3,
                               id.receiver.lx2, id.receiver.lx1,
                               id.sender.level, id.sender.lx3,
                               id.sender.lx2, id.sender.lx1, id.o1, id.o2,
                               id.o3);
    };
    std::sort(bounds_.begin(), bounds_.end(),
              [&](const BoundsChannel& a, const BoundsChannel& b) {
                  return key_of(a.id) < key_of(b.id);
              });
    std::sort(flux_.begin(), flux_.end(),
              [&](const FluxChannel& a, const FluxChannel& b) {
                  return key_of(a.id) < key_of(b.id);
              });
    if (randomize_keys_) {
        for (std::size_t i = bounds_.size(); i > 1; --i)
            std::swap(bounds_[i - 1], bounds_[rng_.uniformInt(i)]);
    }

    // Serial cost drivers: one key per channel for the sort/shuffle,
    // one metadata record per channel for the ViewOfViews fill +
    // host-to-device copy (§VIII-A "Metadata Filling").
    recordSerial(mesh_->ctx(), "buffer_cache_keys",
                 static_cast<double>(bounds_.size()));
    recordSerial(mesh_->ctx(), "buffer_cache_metadata",
                 static_cast<double>(bounds_.size() + flux_.size()));

    LockGuard lock(hook_mutex_);
    if (rebuild_hook_)
        rebuild_hook_();
}

std::int64_t
BoundaryBufferCache::totalWireCells() const
{
    std::int64_t cells = 0;
    for (const auto& ch : bounds_)
        cells += ch.wireCells();
    return cells;
}

std::int64_t
BoundaryBufferCache::totalWireFaces() const
{
    std::int64_t faces = 0;
    for (const auto& ch : flux_)
        faces += ch.wireFaces();
    return faces;
}

std::int64_t
BoundaryBufferCache::totalWireFacesFor(int rank) const
{
    std::int64_t faces = 0;
    for (const auto& ch : flux_)
        if (ch.sender->rank() == rank)
            faces += ch.wireFaces();
    return faces;
}

std::size_t
BoundaryBufferCache::remoteChannelCount() const
{
    std::size_t count = 0;
    for (const auto& ch : bounds_)
        if (ch.sender->rank() != ch.receiver->rank())
            ++count;
    for (const auto& ch : flux_)
        if (ch.sender->rank() != ch.receiver->rank())
            ++count;
    return count;
}

double
BoundaryBufferCache::remoteWireBytes() const
{
    const int ncomp = mesh_->registry().ncompConserved();
    double bytes = 0;
    for (const auto& ch : bounds_)
        if (ch.sender->rank() != ch.receiver->rank())
            bytes += static_cast<double>(ch.wireCells()) * ncomp *
                     sizeof(double);
    for (const auto& ch : flux_)
        if (ch.sender->rank() != ch.receiver->rank())
            bytes += static_cast<double>(ch.wireFaces()) * ncomp *
                     sizeof(double);
    return bytes;
}

} // namespace vibe
