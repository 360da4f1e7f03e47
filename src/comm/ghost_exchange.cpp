#include "comm/ghost_exchange.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "exec/par_for.hpp"
#include "mesh/prolong_restrict.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

int
rangeStart(const Region3& r, int d)
{
    return d == 0 ? r.i.lo : d == 1 ? r.j.lo : r.k.lo;
}

int
rangeCount(const Region3& r, int d)
{
    return d == 0 ? r.i.count() : d == 1 ? r.j.count() : r.k.count();
}

/** Per-thread scratch of the ghost prolongation's coarse box. */
struct ProlongScratch
{
    std::vector<double> value;
    std::vector<unsigned char> ok;
    /** Center and x/y/z slopes per inner coarse cell. */
    std::vector<double> coef;
};

ProlongScratch&
prolongScratch()
{
    thread_local ProlongScratch scratch;
    return scratch;
}

} // namespace

GhostExchange::GhostExchange(Mesh& mesh, RankWorld& world,
                             BoundaryBufferCache& cache)
    : mesh_(&mesh), world_(&world), cache_(&cache),
      plan_(mesh, cache, world)
{
    const MeshConfig& config = mesh.config();
    if (mesh.ctx().executing() && config.amrLevels > 1) {
        const BlockShape shape = config.blockShape();
        const int min_nx = std::min(
            {shape.nx1, shape.ndim >= 2 ? shape.nx2 : shape.nx1,
             shape.ndim >= 3 ? shape.nx3 : shape.nx1});
        if (min_nx < 2 * shape.ng)
            fatal("numeric AMR runs require MeshBlockSize >= 2*num_ghost "
                  "(got ",
                  min_nx, " < ", 2 * shape.ng,
                  "); use counting mode for smaller blocks");
        if (shape.ng % 2 != 0)
            fatal("AMR requires an even ghost count, got ", shape.ng);
    }
}

void
GhostExchange::exchangeBounds()
{
    // Monolithic (non-graph) path: initialization and direct tests.
    // In-cycle exchanges run as task graphs and get per-task spans.
    TraceSpan span("ExchangeBounds", TraceCat::Comm,
                   mesh_->collectiveRank());
    // Monolithic callers (driver initialization, direct tests) are
    // serial points, so the lazy rebuild may happen right here.
    plan_.ensureBuilt();
    startReceiveBoundBufs();
    sendFusedPhase(PlanPhase::Bounds);
    receiveBoundBufs();
    setFusedPhase(PlanPhase::Bounds);
}

void
GhostExchange::discardStaleDeliveries()
{
    // Classic single-driver world: any pending delivery at the top of
    // a cycle is stale garbage from an aborted cycle. With concurrent
    // rank drivers this sweep would be wrong: a neighbor rank may
    // legitimately run up to one stage ahead, and its early sends
    // queue in FIFO order until this rank's matching receive — exactly
    // MPI's eager-message semantics. Every rank pair's coalesced ids
    // are swept, constructed directly: the plan may be stale or unbuilt
    // here.
    std::size_t stale = 0;
    const int nranks = world_->nranks();
    for (int src = 0; src < nranks; ++src)
        for (int dst = 0; dst < nranks; ++dst) {
            stale += world_->discardPending(coalescedChannelId(
                src, dst, ChannelKind::CoalescedBounds));
            stale += world_->discardPending(coalescedChannelId(
                src, dst, ChannelKind::CoalescedFlux));
        }
    if (stale > 0)
        warn("ghost exchange discarded ", stale,
             " stale buffers left by an aborted cycle");
}

void
GhostExchange::packBoundsChannel(const BoundsChannel& ch,
                                 double* out) const
{
    require(ch.sender->hasData(), "pack from a storage-less block ",
            ch.sender->loc().str(),
            " (sender not owned by this rank?)");
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    const RealArray4& cons = ch.sender->cons();
    std::size_t idx = 0;
    if (ch.levelDiff == 1) {
        // Restrict on send: iterate the receiver's coarse target
        // region; average the covering fine cells.
        const int lo[3] = {shape.is(), shape.js(), shape.ks()};
        const double inv = 1.0 / (1 << ndim);
        for (int n = 0; n < ncomp; ++n)
            for (int K = ch.recv.k.lo; K <= ch.recv.k.hi; ++K)
                for (int J = ch.recv.j.lo; J <= ch.recv.j.hi; ++J)
                    for (int I = ch.recv.i.lo; I <= ch.recv.i.hi;
                         ++I) {
                        const int fi =
                            lo[0] + 2 * (I - lo[0]) - ch.base2[0];
                        const int fj =
                            ndim >= 2
                                ? lo[1] + 2 * (J - lo[1]) - ch.base2[1]
                                : 0;
                        const int fk =
                            ndim >= 3
                                ? lo[2] + 2 * (K - lo[2]) - ch.base2[2]
                                : 0;
                        double sum = 0.0;
                        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0);
                             ++dk)
                            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0);
                                 ++dj)
                                for (int di = 0; di <= 1; ++di)
                                    sum += cons(n, fk + dk, fj + dj,
                                                fi + di);
                        out[idx++] = sum * inv;
                    }
    } else {
        // Same level or coarse slab: straight copy of the send box.
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.send.k.lo; k <= ch.send.k.hi; ++k)
                for (int j = ch.send.j.lo; j <= ch.send.j.hi; ++j)
                    for (int i = ch.send.i.lo; i <= ch.send.i.hi; ++i)
                        out[idx++] = cons(n, k, j, i);
    }
}

void
GhostExchange::countSend(double bytes)
{
    last_messages_.fetch_add(1);
    last_send_bytes_.fetch_add(static_cast<std::int64_t>(bytes));
}

void
GhostExchange::unpackBoundsChannel(const BoundsChannel& ch,
                                   const double* payload,
                                   std::size_t count) const
{
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    RealArray4& cons = ch.receiver->cons();

    if (ch.levelDiff >= 0) {
        // Same level or pre-restricted: straight copy into recv box.
        // One size check up front, then unchecked indexing in the
        // per-cell loop (matching the slab branch below).
        require(count ==
                    static_cast<std::size_t>(ch.recv.cells()) * ncomp,
                "bounds payload size mismatch");
        std::size_t idx = 0;
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
                for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j)
                    for (int i = ch.recv.i.lo; i <= ch.recv.i.hi; ++i)
                        cons(n, k, j, i) = payload[idx++];
        return;
    }

    // Coarse slab -> fine ghosts: slope-limited prolongation around a
    // per-channel coarse box, the role of Parthenon's receiver-side
    // coarse buffer. The box spans the coarse cells under the recv
    // region plus a one-cell halo in each active dimension. A box cell
    // takes its value from the slab where the slab covers it; where
    // it instead lies on the *receiver's* side of the interface (the
    // inward neighbor of the innermost ghost layer), it is restricted
    // on the fly from the receiver's own fine interior; elsewhere it
    // is unavailable and a slope reaching for it clamps to zero.
    // Values are filled once per component and slopes once per coarse
    // cell; the fine loop then adds center + sum_d +-0.25 slope_d in
    // d order, exactly the arithmetic of a per-fine-cell evaluation.
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nx[3] = {shape.nx1, ndim >= 2 ? shape.nx2 : 1,
                       ndim >= 3 ? shape.nx3 : 1};
    const int slab_lo[3] = {rangeStart(ch.send, 0), rangeStart(ch.send, 1),
                            rangeStart(ch.send, 2)};
    const int sc[3] = {rangeCount(ch.send, 0), rangeCount(ch.send, 1),
                       rangeCount(ch.send, 2)};
    const std::size_t slab_stride_n =
        static_cast<std::size_t>(sc[2]) * sc[1] * sc[0];
    require(count == slab_stride_n * ncomp,
            "slab payload size mismatch");

    // Coarse value at sender-local interior-relative index c_rel[3]
    // for one component; false if unobtainable from the slab or by
    // restriction of the receiver's interior.
    auto coarse_at = [&](const double* slab, const Slice3<double>& u,
                         const int c_rel[3], double* out) {
        int s_idx[3];
        bool in_slab = true;
        for (int d = 0; d < 3; ++d) {
            s_idx[d] = c_rel[d] + lo[d] - slab_lo[d];
            if (s_idx[d] < 0 || s_idx[d] >= sc[d])
                in_slab = false;
        }
        if (in_slab) {
            *out = slab[(static_cast<std::size_t>(s_idx[2]) * sc[1] +
                         s_idx[1]) *
                            sc[0] +
                        s_idx[0]];
            return true;
        }
        int f0[3] = {0, 0, 0};
        for (int d = 0; d < ndim; ++d) {
            f0[d] = ch.base[d] + 2 * c_rel[d];
            if (f0[d] < 0 || f0[d] + 1 >= nx[d])
                return false;
        }
        double sum = 0.0;
        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                for (int di = 0; di <= 1; ++di)
                    sum += u(lo[2] * (ndim >= 3) + f0[2] + dk,
                             lo[1] * (ndim >= 2) + f0[1] + dj,
                             lo[0] + f0[0] + di);
        *out = sum / (1 << ndim);
        return true;
    };

    // Coarse range [c_lo, c_hi] under the recv region; fine index F
    // lies in coarse cell (F - lo - base) >> 1, which is monotone in F,
    // so checking the region's low corner covers every cell.
    const int f_lo[3] = {ch.recv.i.lo, ch.recv.j.lo, ch.recv.k.lo};
    const int f_hi[3] = {ch.recv.i.hi, ch.recv.j.hi, ch.recv.k.hi};
    int c_lo[3] = {0, 0, 0}, c_hi[3] = {0, 0, 0}, halo[3] = {0, 0, 0};
    for (int d = 0; d < ndim; ++d) {
        const int t = f_lo[d] - lo[d] - ch.base[d];
        require(t >= 0, "negative alignment offset");
        c_lo[d] = t >> 1;
        c_hi[d] = (f_hi[d] - lo[d] - ch.base[d]) >> 1;
        halo[d] = 1;
    }
    const int cn[3] = {c_hi[0] - c_lo[0] + 1, c_hi[1] - c_lo[1] + 1,
                       c_hi[2] - c_lo[2] + 1};
    const int bn[3] = {cn[0] + 2 * halo[0], cn[1] + 2 * halo[1],
                       cn[2] + 2 * halo[2]};
    const std::size_t stride[3] = {
        1, static_cast<std::size_t>(bn[0]),
        static_cast<std::size_t>(bn[0]) * bn[1]};
    ProlongScratch& scratch = prolongScratch();
    scratch.value.resize(stride[2] * bn[2]);
    scratch.ok.resize(stride[2] * bn[2]);
    scratch.coef.resize(4 * static_cast<std::size_t>(cn[0]) * cn[1] *
                        cn[2]);
    double* value = scratch.value.data();
    unsigned char* ok = scratch.ok.data();
    double* coef = scratch.coef.data();

    for (int n = 0; n < ncomp; ++n) {
        const double* slab = payload + n * slab_stride_n;
        Slice3<double> u = cons.slice(n);

        // Box values. Cells off the inner range in two or more
        // dimensions are never read: slopes step along one axis.
        std::size_t b = 0;
        for (int bk = 0; bk < bn[2]; ++bk)
            for (int bj = 0; bj < bn[1]; ++bj)
                for (int bi = 0; bi < bn[0]; ++bi, ++b) {
                    const int c_rel[3] = {c_lo[0] - halo[0] + bi,
                                          c_lo[1] - halo[1] + bj,
                                          c_lo[2] - halo[2] + bk};
                    int outside = 0;
                    for (int d = 0; d < 3; ++d)
                        outside +=
                            c_rel[d] < c_lo[d] || c_rel[d] > c_hi[d];
                    if (outside > 1) {
                        ok[b] = 0;
                        continue;
                    }
                    ok[b] = coarse_at(slab, u, c_rel, &value[b]);
                    if (outside == 0)
                        require(ok[b], "ghost prolongation center missing");
                }

        // Center and limited slopes per inner coarse cell.
        double* cf = coef;
        for (int ck = 0; ck < cn[2]; ++ck)
            for (int cj = 0; cj < cn[1]; ++cj)
                for (int ci = 0; ci < cn[0]; ++ci, cf += 4) {
                    const std::size_t c = (ck + halo[2]) * stride[2] +
                                          (cj + halo[1]) * stride[1] +
                                          (ci + halo[0]);
                    const double center = value[c];
                    cf[0] = center;
                    for (int d = 0; d < ndim; ++d) {
                        double slope = 0.0;
                        if (ok[c - stride[d]] && ok[c + stride[d]])
                            slope = minmod(value[c + stride[d]] - center,
                                           center - value[c - stride[d]]);
                        cf[1 + d] = slope;
                    }
                }

        // Fine ghosts: parity picks the sign of each slope term.
        for (int k = f_lo[2]; k <= f_hi[2]; ++k) {
            const int tk = ndim >= 3 ? k - lo[2] - ch.base[2] : 0;
            const double wk = (tk & 1) ? 0.25 : -0.25;
            for (int j = f_lo[1]; j <= f_hi[1]; ++j) {
                const int tj = ndim >= 2 ? j - lo[1] - ch.base[1] : 0;
                const double wj = (tj & 1) ? 0.25 : -0.25;
                const double* row =
                    coef + 4 * ((static_cast<std::size_t>(
                                     (tk >> 1) - c_lo[2]) *
                                     cn[1] +
                                 ((tj >> 1) - c_lo[1])) *
                                cn[0]);
                for (int i = f_lo[0]; i <= f_hi[0]; ++i) {
                    const int ti = i - lo[0] - ch.base[0];
                    const double* q = row + 4 * ((ti >> 1) - c_lo[0]);
                    double v = q[0];
                    v += ((ti & 1) ? 0.25 : -0.25) * q[1];
                    if (ndim >= 2)
                        v += wj * q[2];
                    if (ndim >= 3)
                        v += wk * q[3];
                    u(k, j, i) = v;
                }
            }
        }
    }
}

void
GhostExchange::exchangeFluxCorrections()
{
    TraceSpan span("ExchangeFluxCorrections", TraceCat::Comm,
                   mesh_->collectiveRank());
    // Serial point for monolithic callers; see exchangeBounds().
    plan_.ensureBuilt();
    sendFusedPhase(PlanPhase::Flux);
    receiveFluxCorrections();
    setFusedPhase(PlanPhase::Flux);
}

void
GhostExchange::packFluxChannel(const FluxChannel& ch, double* out) const
{
    require(ch.sender->hasData(), "flux pack from a storage-less block ",
            ch.sender->loc().str());
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    const RealArray4& flux = ch.sender->flux(ch.dir);
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nfine = 1 << (ndim - 1);
    const double inv = 1.0 / nfine;
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J)
                for (int I = ch.recvFaces.i.lo; I <= ch.recvFaces.i.hi;
                     ++I) {
                    const int cidx[3] = {I, J, K};
                    int f[3];
                    for (int d = 0; d < 3; ++d) {
                        if (d == ch.dir) {
                            f[d] = ch.sendFaceIdx;
                        } else if (d < ndim) {
                            f[d] = lo[d] + 2 * (cidx[d] - lo[d]) -
                                   ch.base2[d];
                        } else {
                            f[d] = 0;
                        }
                    }
                    double sum = 0.0;
                    for (int dk = 0;
                         dk <= (ndim >= 3 && ch.dir != 2 ? 1 : 0); ++dk)
                        for (int dj = 0;
                             dj <= (ndim >= 2 && ch.dir != 1 ? 1 : 0);
                             ++dj)
                            for (int di = 0; di <= (ch.dir != 0 ? 1 : 0);
                                 ++di)
                                sum += flux(n, f[2] + dk, f[1] + dj,
                                            f[0] + di);
                    out[idx++] = sum * inv;
                }
}

void
GhostExchange::unpackFluxChannel(const FluxChannel& ch,
                                 const double* payload,
                                 std::size_t count) const
{
    const int ncomp = mesh_->registry().ncompConserved();
    // One size check up front, then unchecked indexing in the per-face
    // loop, as in the bounds unpack.
    require(count == static_cast<std::size_t>(ch.wireFaces()) * ncomp,
            "flux-correction payload size mismatch");
    RealArray4& flux = ch.receiver->flux(ch.dir);
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J)
                for (int I = ch.recvFaces.i.lo; I <= ch.recvFaces.i.hi;
                     ++I)
                    flux(n, K, J, I) = payload[idx++];
}

void
GhostExchange::applyPhysicalBoundaries()
{
    for (MeshBlock* block : mesh_->ownedBlocks())
        applyPhysicalBoundariesBlock(*block);
}

void
GhostExchange::applyPhysicalBoundariesBlock(MeshBlock& block)
{
    const ExecContext& ctx = mesh_->ctx();
    if (mesh_->config().periodic || !ctx.executing())
        return;
    const BlockShape shape = mesh_->config().blockShape();
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockTree& tree = mesh_->tree();

    // Outflow (zero-gradient): clamp every ghost index to the
    // interior for directions without a neighbor.
    const auto& loc = block.loc();
    auto at_boundary = [&](int d, int side) {
        LogicalLocation probe = loc;
        std::int64_t* lx = d == 0   ? &probe.lx1
                           : d == 1 ? &probe.lx2
                                    : &probe.lx3;
        *lx += side;
        return !tree.validIndex(probe);
    };
    RealArray4& cons = block.cons();
    const int is = shape.is(), ie = shape.ie();
    const int js = shape.js(), je = shape.je();
    const int ks = shape.ks(), ke = shape.ke();
    auto clamp_fill = [&](int kl, int ku, int jl, int ju, int il,
                          int iu) {
        for (int n = 0; n < ncomp; ++n)
            for (int k = kl; k <= ku; ++k)
                for (int j = jl; j <= ju; ++j)
                    for (int i = il; i <= iu; ++i)
                        cons(n, k, j, i) =
                            cons(n, std::clamp(k, ks, ke),
                                 std::clamp(j, js, je),
                                 std::clamp(i, is, ie));
    };
    const int nk = shape.nk(), nj = shape.nj(), ni = shape.ni();
    if (at_boundary(0, -1))
        clamp_fill(0, nk - 1, 0, nj - 1, 0, is - 1);
    if (at_boundary(0, +1))
        clamp_fill(0, nk - 1, 0, nj - 1, ie + 1, ni - 1);
    if (shape.ndim >= 2 && at_boundary(1, -1))
        clamp_fill(0, nk - 1, 0, js - 1, 0, ni - 1);
    if (shape.ndim >= 2 && at_boundary(1, +1))
        clamp_fill(0, nk - 1, je + 1, nj - 1, 0, ni - 1);
    if (shape.ndim >= 3 && at_boundary(2, -1))
        clamp_fill(0, ks - 1, 0, nj - 1, 0, ni - 1);
    if (shape.ndim >= 3 && at_boundary(2, +1))
        clamp_fill(ke + 1, nk - 1, 0, nj - 1, 0, ni - 1);
}

// ---------------------------------------------------------------------
// Fused BoundaryPlan phases.
//
// Every function below requires a current plan: the driver's graph
// builders (and the monolithic exchange entry points) call
// plan_.ensureBuilt() at a serial point first, and the accessors
// themselves panic on a stale generation. ensureBuilt() is NEVER
// called from in here — a rebuild racing a fused launch would be a
// data race on the plan tables.
// ---------------------------------------------------------------------

std::vector<int>
GhostExchange::fusedSendIds(PlanPhase phase) const
{
    if (mesh_->sharded())
        return plan_.sendIds(phase, mesh_->shardRank());
    // A classic mesh steps every block, so it plays all ranks' parts.
    std::vector<int> ids(plan_.messages(phase).size());
    for (std::size_t m = 0; m < ids.size(); ++m)
        ids[m] = static_cast<int>(m);
    return ids;
}

std::vector<int>
GhostExchange::fusedRecvIds(PlanPhase phase) const
{
    if (mesh_->sharded())
        return plan_.recvIds(phase, mesh_->shardRank());
    std::vector<int> ids(plan_.messages(phase).size());
    for (std::size_t m = 0; m < ids.size(); ++m)
        ids[m] = static_cast<int>(m);
    return ids;
}

void
GhostExchange::startReceiveBoundBufs()
{
    // Per-cycle state reset lives here, at the top of the cycle, so an
    // exchange that threw mid-cycle cannot leak wire counts or stale
    // mailbox deliveries into the next one.
    last_wire_cells_.store(0);
    last_messages_.store(0);
    last_send_bytes_.store(0);
    if (!world_->concurrent())
        discardStaleDeliveries();
    const std::vector<int> inbound = fusedRecvIds(PlanPhase::Bounds);
    // One coalesced buffer to prepare per inbound rank pair — this is
    // the point of the plan: O(ranks) bookkeeping, not O(faces).
    recordSerialAt(mesh_->ctx(), "StartReceiveBoundBufs",
                   mesh_->collectiveRank(), "recv_buf_prepare",
                   static_cast<double>(inbound.size()));
}

void
GhostExchange::beginFusedSend(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const bool bounds = phase == PlanPhase::Bounds;
    const auto& msgs = plan_.messages(phase);
    FusedRows& fr = fused_send_[static_cast<int>(phase)];
    fr = FusedRows{};
    fr.ids = fusedSendIds(phase);

    // One row per plan entry; each row writes its disjoint payload
    // slice, so the partitions are race-free by construction.
    std::size_t nentries = 0;
    for (int id : fr.ids)
        nentries += msgs[static_cast<std::size_t>(id)].entries.size();
    fr.payloads.resize(fr.ids.size());
    fr.ranks.reserve(nentries);
    fr.items.reserve(nentries);
    if (ctx.executing())
        fr.rows.reserve(nentries);
    // Outbound payloads reuse the vectors the last set of this phase
    // consumed; on an unchanged plan the resize keeps their storage.
    // Stale contents never leak: the rows tile each payload exactly.
    std::vector<std::vector<double>>& spare =
        spare_payloads_[static_cast<int>(phase)];
    for (std::size_t s = 0; s < fr.ids.size(); ++s) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(fr.ids[s])];
        if (ctx.executing()) {
            if (s < spare.size())
                fr.payloads[s] = std::move(spare[s]);
            fr.payloads[s].resize(m.doubles);
        }
        for (const PlanEntry& e : m.entries) {
            fr.ranks.push_back(m.src);
            fr.items.push_back(static_cast<double>(e.count));
            if (bounds) {
                const BoundsChannel& ch = cache_->bounds()[e.channel];
                fr.innermost += rangeCount(
                    ch.levelDiff == 1 ? ch.recv : ch.send, 0);
            } else {
                fr.innermost +=
                    cache_->flux()[e.channel].recvFaces.i.count();
            }
            if (ctx.executing())
                fr.rows.push_back({e.channel,
                                   fr.payloads[s].data() + e.offset,
                                   e.count});
        }
    }
    fr.split();
}

void
GhostExchange::packFusedPartition(PlanPhase phase, int part)
{
    const bool bounds = phase == PlanPhase::Bounds;
    const FusedRows& fr = fused_send_[static_cast<int>(phase)];
    for (int r = fr.partStart[part]; r < fr.partStart[part + 1]; ++r) {
        const FusedRows::Row& row = fr.rows[static_cast<std::size_t>(r)];
        if (bounds)
            packBoundsChannel(cache_->bounds()[row.channel], row.payload);
        else
            packFluxChannel(cache_->flux()[row.channel], row.payload);
    }
}

void
GhostExchange::endFusedSend(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const auto& msgs = plan_.messages(phase);
    FusedRows& fr = fused_send_[static_cast<int>(phase)];
    if (fr.ids.empty())
        return;
    // The partitions together are ONE fused pack (and restrict) kernel
    // over every outbound channel of the phase.
    recordPackKernelItems(
        ctx, "SendBoundBufs", "SendBoundBufs", {1.0, 2.0 * sizeof(double)},
        fr.ranks.data(), fr.items.data(),
        static_cast<int>(fr.ranks.size()),
        fr.innermost / static_cast<double>(fr.ranks.size()));

    for (std::size_t s = 0; s < fr.ids.size(); ++s) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(fr.ids[s])];
        const bool remote = m.src != m.dst;
        recordSerialAt(ctx, "SendBoundBufs", m.src,
                       remote ? "msg_remote" : "msg_local", 1.0);
        recordSerialAt(ctx, "SendBoundBufs", m.src,
                       remote ? "msg_remote_bytes" : "msg_local_bytes",
                       m.bytes);
        // Directory bookkeeping is one item per entry, but it is paid
        // once per rank pair, not once per block.
        recordSerialAt(ctx, "SendBoundBufs", m.src, "bound_buf_metadata",
                       static_cast<double>(m.entries.size()));
        if (phase == PlanPhase::Bounds)
            last_wire_cells_.fetch_add(m.wireUnits);
        countSend(m.bytes);
        world_->isend(m.id, m.src, m.dst, std::move(fr.payloads[s]),
                      m.bytes);
    }
    fr = FusedRows{};
}

void
GhostExchange::sendFusedPhase(PlanPhase phase)
{
    beginFusedSend(phase);
    parForExecRows(mesh_->ctx(), 0, kFusedPartitions - 1, 0, 0,
                   [&](int, int part, int) {
                       packFusedPartition(phase, part);
                   });
    endFusedSend(phase);
}

bool
GhostExchange::pollFusedMessage(const PlanMessage& msg)
{
    if (!world_->iprobe(msg.id))
        return false;
    // One probe per rank pair, recorded on completion.
    recordSerialAt(mesh_->ctx(), "ReceiveBoundBufs", msg.dst,
                   "recv_poll", 1.0);
    return true;
}

void
GhostExchange::receiveFusedPhase(PlanPhase phase)
{
    const auto& msgs = plan_.messages(phase);
    const std::vector<int> ids = fusedRecvIds(phase);
    if (mesh_->sharded()) {
        // Concurrent peers: poll with a deadline, as an Iprobe
        // progress loop does.
        // vibe-lint: allow(obs-isolation) peer-wait deadline bounding
        // the Iprobe progress loop, not timing instrumentation.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(kPeerWaitSeconds);
        for (int id : ids) {
            const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
            while (!world_->iprobe(m.id)) {
                require(!world_->failed(),
                        "fused ghost exchange aborted: a peer rank "
                        "failed");
                require(std::chrono::steady_clock::now() < deadline,
                        "fused ghost exchange timed out waiting for "
                        "the coalesced ",
                        planPhaseName(phase), " message from rank ",
                        m.src, " on rank ", m.dst);
                std::this_thread::yield();
            }
        }
    } else {
        for (int id : ids)
            require(world_->iprobe(
                        msgs[static_cast<std::size_t>(id)].id),
                    "fused ghost exchange lost a coalesced ",
                    planPhaseName(phase), " message");
    }
    recordSerialAt(mesh_->ctx(), "ReceiveBoundBufs",
                   mesh_->collectiveRank(), "recv_poll",
                   static_cast<double>(ids.size()));
}

void
GhostExchange::receiveBoundBufs()
{
    receiveFusedPhase(PlanPhase::Bounds);
}

void
GhostExchange::receiveFluxCorrections()
{
    receiveFusedPhase(PlanPhase::Flux);
}

void
GhostExchange::beginFusedSet(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const bool bounds = phase == PlanPhase::Bounds;
    const int ncomp = mesh_->registry().ncompConserved();
    const auto& msgs = plan_.messages(phase);
    FusedRows& fr = fused_set_[static_cast<int>(phase)];
    fr = FusedRows{};
    fr.ids = fusedRecvIds(phase);

    // Reserve up front: rows hold pointers into received payloads, and
    // a Message move keeps its payload's heap buffer stable.
    fr.received.reserve(fr.ids.size());
    for (int id : fr.ids) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
        auto msg = world_->receive(m.id);
        require(msg.has_value(), "missing coalesced ",
                planPhaseName(phase), " message ", m.src, " -> ",
                m.dst);
        require(msg->src == m.src && msg->dst == m.dst,
                "coalesced ", planPhaseName(phase),
                " message rank mismatch: carried ", msg->src, " -> ",
                msg->dst, ", expected ", m.src, " -> ", m.dst);
        require(!ctx.executing() || msg->payload.size() == m.doubles,
                "coalesced ", planPhaseName(phase),
                " payload size mismatch: ", msg->payload.size(),
                " doubles, directory says ", m.doubles);
        fr.received.push_back(std::move(*msg));
        Message& stored = fr.received.back();
        for (const PlanEntry& e : m.entries) {
            fr.ranks.push_back(m.dst);
            if (bounds) {
                const BoundsChannel& ch = cache_->bounds()[e.channel];
                fr.items.push_back(static_cast<double>(ch.recv.cells()) *
                                   ncomp);
                fr.innermost += ch.recv.i.count();
            } else {
                const FluxChannel& ch = cache_->flux()[e.channel];
                fr.items.push_back(static_cast<double>(ch.wireFaces()) *
                                   ncomp);
                fr.innermost += ch.recvFaces.i.count();
            }
            if (ctx.executing())
                fr.rows.push_back({e.channel,
                                   stored.payload.data() + e.offset,
                                   e.count});
        }
    }
    fr.split();
}

void
GhostExchange::unpackFusedPartition(PlanPhase phase, int part)
{
    // Each entry writes only its receiver's ghost region (or its own
    // flux faces), and prolongation's interior fallback reads cells no
    // unpack writes, so rows (and therefore partitions) are
    // independent.
    const bool bounds = phase == PlanPhase::Bounds;
    const FusedRows& fr = fused_set_[static_cast<int>(phase)];
    for (int r = fr.partStart[part]; r < fr.partStart[part + 1]; ++r) {
        const FusedRows::Row& row = fr.rows[static_cast<std::size_t>(r)];
        if (bounds)
            unpackBoundsChannel(cache_->bounds()[row.channel],
                                row.payload, row.count);
        else
            unpackFluxChannel(cache_->flux()[row.channel], row.payload,
                              row.count);
    }
}

void
GhostExchange::endFusedSet(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const bool bounds = phase == PlanPhase::Bounds;
    const auto& msgs = plan_.messages(phase);
    FusedRows& fr = fused_set_[static_cast<int>(phase)];
    if (fr.ids.empty())
        return;
    // One fused unpack (and prolongate) kernel over every inbound
    // entry, however many partitions ran it.
    const KernelCosts costs =
        bounds ? KernelCosts{1.0, 2.0 * sizeof(double)}
               : KernelCosts{0.0, 2.0 * sizeof(double)};
    recordPackKernelItems(ctx, "SetBounds", "SetBounds", costs,
                          fr.ranks.data(), fr.items.data(),
                          static_cast<int>(fr.ranks.size()),
                          fr.innermost /
                              static_cast<double>(fr.ranks.size()));
    if (bounds) {
        for (int id : fr.ids) {
            const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
            recordSerialAt(ctx, "SetBounds", m.dst,
                           "bound_buf_metadata",
                           static_cast<double>(m.entries.size()));
        }
    }
    // Hand the consumed payloads to the next send of this phase.
    std::vector<std::vector<double>>& spare =
        spare_payloads_[static_cast<int>(phase)];
    spare.clear();
    for (Message& msg : fr.received)
        spare.push_back(std::move(msg.payload));
    fr = FusedRows{};
}

void
GhostExchange::setFusedPhase(PlanPhase phase)
{
    beginFusedSet(phase);
    parForExecRows(mesh_->ctx(), 0, kFusedPartitions - 1, 0, 0,
                   [&](int, int part, int) {
                       unpackFusedPartition(phase, part);
                   });
    endFusedSet(phase);
}

void
GhostExchange::FusedRows::split()
{
    // Contiguous row ranges of near-equal item cost: row r joins the
    // partition its cost midpoint falls in. The split depends only on
    // the plan (never on the thread count), so the task graph, and
    // every traced event count, is the same at any concurrency.
    const int n = static_cast<int>(rows.size());
    partStart.assign(kFusedPartitions + 1, n);
    partStart[0] = 0;
    double total = 0;
    for (int r = 0; r < n; ++r)
        total += items[static_cast<std::size_t>(r)];
    if (total <= 0)
        return;
    double prefix = 0;
    int part = 0;
    for (int r = 0; r < n; ++r) {
        const double cost = items[static_cast<std::size_t>(r)];
        const int p = std::min(
            kFusedPartitions - 1,
            static_cast<int>(kFusedPartitions * (prefix + 0.5 * cost) /
                             total));
        while (part < p)
            partStart[++part] = r;
        prefix += cost;
    }
}

} // namespace vibe
