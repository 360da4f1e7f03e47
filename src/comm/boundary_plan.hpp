/**
 * @file boundary_plan.hpp
 * BoundaryPlan: a persistent, phase-indexed plan of all boundary work
 * for the current mesh structure.
 *
 * The plan flattens every per-face BoundsChannel/FluxChannel of the
 * BoundaryBufferCache (on a rank shard: the channels of its own rank
 * pairs) into row tables, split by where the two ends of
 * an entry live:
 *
 *  - Cross-rank entries (sender and receiver owned by different
 *    ranks) are coalesced per (src rank, dst rank) pair and phase into
 *    ONE combined RankWorld mailbox message whose payload is the
 *    offset-directory concatenation of the per-channel payloads
 *    (Parthenon's bvals_cc_in_one / AthenaK combined-buffer strategy).
 *    The exchange packs them (restricting fine data), sends, polls and
 *    unpacks them (prolongating coarse slabs).
 *  - Same-rank entries are direct rows, AMReX's local copy tags: each
 *    row reads the sender's interior (or fine face fluxes) and writes
 *    the receiver's ghosts (or coarse face fluxes) in one pass. They
 *    have no payload, no ChannelId and no mailbox entry, so
 *    messageFor(phase, r, r) is always nullptr.
 *
 * Both kinds of table are split into kPlanPartitions cost-balanced row
 * ranges that the rank's workers run concurrently (the analogue of
 * Parthenon's partitioned MeshBlockPacks). The direct tables are split
 * here, once per rebuild; the cross-rank rows point into per-stage
 * payloads, so the exchange splits those at each begin step.
 *
 * Message format (cross-rank only): the payload is a flat array of
 * doubles; entry e of messageFor(phase, src, dst) occupies
 * [offset, offset + count) and carries exactly the doubles
 * GhostExchange's per-channel pack writes for entry e's channel, in
 * that pack's order. Entries follow the cache's storage order, which
 * is canonical (canonicalLess; the rebuild checks it), so
 * independently built sender and receiver replicas agree on the
 * directory byte for byte; direct tables use the same order. Rank
 * pairs with no adjacent blocks get no PlanMessage at all — the empty
 * message is elided, never sent.
 *
 * Ordering contract: a direct row reads its sender's live interior, and
 * no payload snapshot sits in between. So no stage update of a block
 * (WeightedSumData, or the one-task FluxesAndUpdate of a block outside
 * flux correction) may start until every direct row that reads that
 * block has run, and no update of a flux-correction participant (its
 * fused divergence reads its corrected faces) may start until every
 * direct flux row that writes its faces has run. The driver's stage
 * graph provides both edges (see buildStageGraph).
 *
 * Model terms: a PlanDirect keeps the modeled size of the self-pair
 * message its rows replace (doubles, bytes, wire units, kernel items),
 * so the exchange's counting-mode records stay those of Parthenon,
 * which sends same-rank buffers too.
 *
 * Lifecycle: the plan is generation-stamped against
 * BoundaryBufferCache::rebuildCount(). The driver chains invalidate()
 * into the cache's rebuild hook (which fires on every restructure and
 * load-balance move); ensureBuilt() lazily rebuilds at a serial point
 * before graph construction. Every accessor asserts the generation
 * still matches, so a stale plan is structurally unusable rather than
 * quietly wrong.
 *
 * Thread safety: the rebuild state (built_/generation_/counters) is
 * guarded by mutex_ and annotated for clang's thread-safety analysis.
 * The tables themselves are written only inside
 * ensureBuilt()/invalidate() — called at serial points on the owning
 * rank's driver thread — and are read lock-free by the fused phase
 * steps.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

/** The two boundary phases the plan indexes. */
enum class PlanPhase
{
    Bounds = 0, ///< Ghost-cell exchange.
    Flux = 1,   ///< Flux correction at fine-coarse faces.
};

inline constexpr int kNumPlanPhases = 2;

/** Human-readable phase name (task labels, stall reports). */
const char* planPhaseName(PlanPhase phase);

/**
 * Row partitions per fused phase. A plan constant, not a knob: it must
 * not depend on the thread count, so task graphs and traced event
 * counts stay identical at every concurrency. Partitions may be empty.
 */
inline constexpr int kPlanPartitions = 8;

/**
 * Split rows into kPlanPartitions contiguous ranges of near-equal
 * cost: returns kPlanPartitions + 1 starts, partition p being rows
 * [start[p], start[p + 1]).
 */
std::vector<int> splitRowsByCost(const std::vector<double>& costs);

/** One per-face channel's slice of a coalesced payload. */
struct PlanEntry
{
    /** Index into cache bounds() (Bounds phase) or flux() (Flux). */
    int channel = 0;
    /** First double of this entry within the combined payload. */
    std::size_t offset = 0;
    /** Payload doubles (wire cells/faces x conserved components). */
    std::size_t count = 0;
};

/**
 * The modeled kernel terms of one entry: items and innermost extent of
 * its pack (restrict) row and of its unpack (prolongate) row, as the
 * fused SendBoundBufs/SetBounds kernel records count them.
 */
struct EntryModel
{
    double packItems = 0;
    double packInnermost = 0;
    double unpackItems = 0;
    double unpackInnermost = 0;
};

/** One coalesced (src rank -> dst rank) message for one phase. */
struct PlanMessage
{
    int src = 0, dst = 0;
    /** Rank-pair mailbox channel (CoalescedBounds/CoalescedFlux). */
    ChannelId id;
    /** Total payload doubles (sum of entry counts). */
    std::size_t doubles = 0;
    /** Modeled wire bytes — equals the sum over its channels. */
    double bytes = 0;
    /** Wire cells (Bounds) or faces (Flux) carried, for accounting. */
    std::int64_t wireUnits = 0;
    /** Offset directory, sorted by canonical channel key. */
    std::vector<PlanEntry> entries;
};

/**
 * The same-rank entries of one rank for one phase: direct rows, never
 * sent. The model terms describe the self-pair message these rows
 * replace; only the exchange's accounting reads them.
 */
struct PlanDirect
{
    /** Entries sorted by canonical channel key (modeled offsets). */
    std::vector<PlanEntry> entries;
    /** Rows of partition p: [partStart[p], partStart[p + 1]). */
    std::vector<int> partStart = std::vector<int>(kPlanPartitions + 1, 0);

    /** Modeled payload doubles and bytes of the self-pair message. */
    std::size_t doubles = 0;
    double bytes = 0;
    /** Wire cells (Bounds) or faces (Flux) of the entries. */
    std::int64_t wireUnits = 0;
    /** Sums of the entries' EntryModel terms. */
    EntryModel model;
};

/**
 * The plan. Owned by GhostExchange alongside the BoundaryBufferCache
 * it is derived from; the cache must outlive the plan.
 */
class BoundaryPlan
{
  public:
    /**
     * `world` supplies the rank-pair universe: block owner ranks are
     * assigned by load balancing over the world's rank count, which
     * may exceed the mesh config's (a classic mesh modeling several
     * ranks under one driver). All three must outlive the plan.
     */
    BoundaryPlan(Mesh& mesh, const BoundaryBufferCache& cache,
                 const RankWorld& world);

    /**
     * Mark the plan stale. Chained into the cache's rebuild hook by
     * the driver, so it fires exactly once per cache rebuild
     * (restructure, migration); must not call back into the cache
     * (the hook runs under the cache's hook lock).
     */
    void invalidate();

    /**
     * Rebuild if stale. Must be called from the owning rank's driver
     * thread at a serial point (no fused phase step in flight) — the
     * driver does so while constructing each stage's task graph.
     */
    void ensureBuilt();

    /** True when the plan matches the cache's current structure. */
    bool current() const;

    /** invalidate() calls so far (lifecycle tests). */
    std::uint64_t invalidateCount() const;
    /** Rebuilds actually performed (lazy: <= invalidateCount + 1). */
    std::uint64_t buildCount() const;

    /** All cross-rank messages for `phase`, sorted by (src, dst). */
    const std::vector<PlanMessage>& messages(PlanPhase phase) const;

    /** Indices into messages(phase) with src == rank. */
    const std::vector<int>& sendIds(PlanPhase phase, int rank) const;

    /** Indices into messages(phase) with dst == rank. */
    const std::vector<int>& recvIds(PlanPhase phase, int rank) const;

    /**
     * The coalesced message for a rank pair, or nullptr when the pair
     * shares no boundary (the message is elided, not sent empty) or
     * src == dst (same-rank entries are direct rows).
     */
    const PlanMessage* messageFor(PlanPhase phase, int src,
                                  int dst) const;

    /** The direct rows of `rank` for `phase` (possibly empty). */
    const PlanDirect& direct(PlanPhase phase, int rank) const;

    /** Kernel-model terms of one channel of `phase`. */
    EntryModel entryModel(PlanPhase phase, int channel) const;

  private:
    void rebuild() VIBE_REQUIRES(mutex_);
    /** Panic unless built against the cache's current generation. */
    void requireCurrent() const;

    Mesh* mesh_;
    const BoundaryBufferCache* cache_;
    const RankWorld* world_;
    /** Conserved components (payload doubles per wire cell). */
    int ncomp_;

    /** Guards the rebuild state; see file comment for the discipline. */
    mutable Mutex mutex_;
    bool built_ VIBE_GUARDED_BY(mutex_) = false;
    /** cache_->rebuildCount() the tables were built against. */
    std::uint64_t generation_ VIBE_GUARDED_BY(mutex_) = 0;
    std::uint64_t invalidate_count_ VIBE_GUARDED_BY(mutex_) = 0;
    std::uint64_t build_count_ VIBE_GUARDED_BY(mutex_) = 0;

    /** Per-phase tables; written only under mutex_ at serial points. */
    std::vector<PlanMessage> messages_[kNumPlanPhases];
    std::vector<std::vector<int>> send_ids_[kNumPlanPhases];
    std::vector<std::vector<int>> recv_ids_[kNumPlanPhases];
    /** Direct rows per rank. */
    std::vector<PlanDirect> direct_[kNumPlanPhases];
};

} // namespace vibe
