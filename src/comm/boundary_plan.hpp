/**
 * @file boundary_plan.hpp
 * BoundaryPlan: a persistent, phase-indexed plan of all boundary work
 * for the current mesh structure.
 *
 * The plan is the communication analogue of Parthenon's MeshBlockPack:
 * where a pack flattens per-block interior kernels into one fused
 * launch, the plan flattens every per-face BoundsChannel/FluxChannel of the
 * BoundaryBufferCache into a buffer table so that
 *
 *  - all pack/unpack (plus restrict-on-pack / prolong-on-unpack) work
 *    for a phase runs over table rows as a serial begin step (row
 *    table, payload sizing or message receipt), a fixed number of
 *    row-partition steps that the rank's workers run concurrently
 *    (GhostExchange::kFusedPartitions, the analogue of Parthenon's
 *    partitioned MeshBlockPacks), and a serial end step (accounting,
 *    sends), and
 *  - all traffic between one (src rank, dst rank) pair per phase is
 *    coalesced into ONE combined RankWorld mailbox message whose
 *    payload is the offset-directory concatenation of the
 *    per-channel payloads (Parthenon's bvals_cc_in_one / AthenaK combined-buffer
 *    strategy).
 *
 * Message format: the payload is a flat array of doubles; entry e of
 * messageFor(phase, src, dst) occupies [offset, offset + count) and
 * carries exactly the doubles GhostExchange's per-channel pack writes
 * for entry e's channel, in that pack's order. Entries are sorted by
 * the cache's canonical channel key (not the cache's possibly
 * shuffled storage order), so independently built sender and receiver
 * replicas agree on the directory byte for byte. Rank pairs with no
 * adjacent blocks get no PlanMessage at all — the empty message is
 * elided, never sent.
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
 * The message tables themselves are written only inside
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

    /** All messages for `phase`, sorted by (src, dst). */
    const std::vector<PlanMessage>& messages(PlanPhase phase) const;

    /** Indices into messages(phase) with src == rank. */
    const std::vector<int>& sendIds(PlanPhase phase, int rank) const;

    /** Indices into messages(phase) with dst == rank. */
    const std::vector<int>& recvIds(PlanPhase phase, int rank) const;

    /**
     * The coalesced message for a rank pair, or nullptr when the pair
     * shares no boundary (the message is elided, not sent empty).
     */
    const PlanMessage* messageFor(PlanPhase phase, int src,
                                  int dst) const;

  private:
    void rebuild() VIBE_REQUIRES(mutex_);
    /** Panic unless built against the cache's current generation. */
    void requireCurrent() const;

    Mesh* mesh_;
    const BoundaryBufferCache* cache_;
    const RankWorld* world_;

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
};

} // namespace vibe
