/**
 * @file boundary_buffers.hpp
 * Boundary-buffer cache: the directed communication channels between
 * neighboring MeshBlocks, with exact region calculus for same-level,
 * fine-to-coarse (restricted) and coarse-to-fine (prolongated)
 * exchanges, plus flux-correction channels at fine-coarse faces.
 *
 * Channels are enumerated from the receiver's perspective (one channel
 * per neighbor-list entry), mirroring Parthenon's tag map, and stored
 * in canonical key order (see canonicalLess). A rank-sharded replica
 * holds only the channels with an owned endpoint. The cache is rebuilt
 * after every mesh restructure and load-balance move; the serial cost
 * the paper highlights in InitializeBufferCache (§VIII-A: key sort,
 * metadata fill) is recorded as model terms.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"

namespace vibe {

/** Inclusive index range. */
struct IndexRange
{
    int lo = 0;
    int hi = -1;

    int count() const { return hi >= lo ? hi - lo + 1 : 0; }
};

/** Inclusive 3-D index box (array-index space, ghosts included). */
struct Region3
{
    IndexRange i, j, k;

    std::int64_t cells() const
    {
        return std::int64_t{i.count()} * j.count() * k.count();
    }
};

/**
 * A directed ghost-cell channel. Geometry fields describe the
 * receiver-side target region and, where levels differ, the alignment
 * constants mapping receiver indices to sender indices:
 *
 * - levelDiff = 0: `send` and `recv` are congruent boxes.
 * - levelDiff = +1 (sender finer): receiving coarse cell C in dim d
 *   covers sender fine cells [2C - base2[d], 2C - base2[d] + 1]
 *   (interior-relative indices); the sender restricts on pack.
 * - levelDiff = -1 (sender coarser): receiver fine cell F in dim d lies
 *   in sender coarse cell (F - base[d]) >> 1 with intra-cell parity
 *   (F - base[d]) & 1; the wire carries the padded coarse slab `send`
 *   and the receiver prolongates on unpack.
 */
struct BoundsChannel
{
    ChannelId id;
    MeshBlock* sender = nullptr;
    MeshBlock* receiver = nullptr;
    int o1 = 0, o2 = 0, o3 = 0; ///< Direction from the receiver.
    int levelDiff = 0;          ///< sender level - receiver level.
    Region3 recv;               ///< Receiver target cells.
    Region3 send;               ///< Sender source cells (wire content).
    int base[3] = {0, 0, 0};    ///< Coarse->fine alignment (ld = -1).
    int base2[3] = {0, 0, 0};   ///< Fine->coarse alignment (ld = +1).

    /** Cells on the wire (the paper's "communicated cells" unit). */
    std::int64_t wireCells() const
    {
        return levelDiff == 1 ? recv.cells() : send.cells();
    }
};

/** A fine-to-coarse flux-correction channel across one shared face. */
struct FluxChannel
{
    ChannelId id;
    MeshBlock* sender = nullptr;   ///< Fine block.
    MeshBlock* receiver = nullptr; ///< Coarse block.
    int dir = 0;          ///< Face-normal dimension (0 = x1).
    int side = 1;         ///< +1: fine block on receiver's + side.
    int recvFaceIdx = 0;  ///< Receiver flux-array index along `dir`.
    int sendFaceIdx = 0;  ///< Sender flux-array index along `dir`.
    Region3 recvFaces;    ///< Receiver coarse faces (dir range is one).
    int base2[3] = {0, 0, 0}; ///< Transverse fine alignment.

    std::int64_t wireFaces() const { return recvFaces.cells(); }
};

/**
 * The canonical channel order: receiver (level, lx3, lx2, lx1), then
 * sender (level, lx3, lx2, lx1), then direction (o1, o2, o3). The
 * cache stores its channels in this order, so independently built
 * sender and receiver replicas list them identically.
 */
inline bool
canonicalLess(const ChannelId& a, const ChannelId& b)
{
    const LogicalLocation &ar = a.receiver, &as = a.sender;
    const LogicalLocation &br = b.receiver, &bs = b.sender;
    return std::tie(ar.level, ar.lx3, ar.lx2, ar.lx1, as.level, as.lx3,
                    as.lx2, as.lx1, a.o1, a.o2, a.o3) <
           std::tie(br.level, br.lx3, br.lx2, br.lx1, bs.level, bs.lx3,
                    bs.lx2, bs.lx1, b.o1, b.o2, b.o3);
}

/**
 * The cache of the channels for the current mesh structure. The
 * BoundaryPlan flattens it into the exchange's buffer table; the
 * driver rebuilds it after every restructure.
 */
class BoundaryBufferCache
{
  public:
    explicit BoundaryBufferCache(Mesh& mesh);

    /**
     * Rebuild the channels from the mesh (RebuildBufferCache), in
     * canonical order: bounds() and flux() are strictly increasing
     * under canonicalLess. A classic mesh gets every channel; a
     * rank-sharded replica only those with an owned sender or
     * receiver, i.e. every channel of the rank pairs it belongs to.
     */
    void rebuild();

    const std::vector<BoundsChannel>& bounds() const { return bounds_; }
    const std::vector<FluxChannel>& flux() const { return flux_; }

    /** Ghost cells on the wire for one full exchange. */
    std::int64_t totalWireCells() const;
    /** Flux-correction faces on the wire for one full exchange. */
    std::int64_t totalWireFaces() const;
    /**
     * Flux-correction faces sent by blocks owned by `rank` in one
     * exchange (sender-attributed, so per-rank counts sum to
     * totalWireFaces across a team).
     */
    std::int64_t totalWireFacesFor(int rank) const;
    /** Channels whose endpoints live on different ranks. */
    std::size_t remoteChannelCount() const;
    /**
     * Wire bytes crossing ranks in one exchange (all components), over
     * the channels this cache holds (a sharded replica's pairs only).
     * With `sender_rank` >= 0, only those sent by that rank's blocks
     * (a replica's own sends), so per-rank values sum to the team's
     * total.
     */
    double remoteWireBytes(int sender_rank = -1) const;

    /** Number of cache rebuilds performed (serial-cost driver). */
    std::uint64_t rebuildCount() const { return rebuild_count_; }

    /**
     * Invoked at the end of every rebuild(). The cache is rebuilt on
     * exactly the events that invalidate per-mesh block tables
     * (restructure, load-balance moves), so dependents — the driver's
     * BoundaryPlan — hook here to invalidate in lockstep instead of
     * tracking remesh events themselves.
     */
    void setRebuildHook(std::function<void()> hook)
    {
        LockGuard lock(hook_mutex_);
        rebuild_hook_ = std::move(hook);
    }

  private:
    Mesh* mesh_;
    std::vector<BoundsChannel> bounds_;
    std::vector<FluxChannel> flux_;
    std::uint64_t rebuild_count_ = 0;
    /**
     * Guards hook (re)registration against the rebuild path invoking
     * it: the driver installs the plan-invalidation hook after
     * construction, and under rank sharding each replica's cache lives
     * on its own rank thread — the mutex makes installation safe even
     * if a future caller registers from outside that thread. The hook
     * itself runs under the lock; hooks must not call back into the
     * cache.
     */
    Mutex hook_mutex_;
    std::function<void()> rebuild_hook_ VIBE_GUARDED_BY(hook_mutex_);
};

} // namespace vibe
