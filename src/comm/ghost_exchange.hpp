/**
 * @file ghost_exchange.hpp
 * The four-function ghost-cell communication cycle (paper §II-D) and
 * the flux-correction exchange at fine-coarse faces.
 *
 * - StartReceiveBoundBufs: post/prepare receive bookkeeping.
 * - SendBoundBufs: restrict fine data destined for coarser neighbors
 *   (GPU-offloaded), pack variable data, and start non-blocking sends
 *   or local copies.
 * - ReceiveBoundBufs: poll with Iprobe/Test until every expected buffer
 *   has arrived.
 * - SetBounds: unpack buffers into ghost zones, prolongating coarse
 *   slabs into fine ghosts (GPU-offloaded), and mark buffers stale.
 *
 * Flux correction reuses the same machinery on flux fields only
 * (§II-C), replacing the coarse face flux with the restricted sum of
 * the fine fluxes so conservation holds across levels.
 *
 * Each phase is available in two granularities:
 *
 * - The monolithic phase functions (exchangeBounds() and friends) run
 *   a whole phase over every block, as the seed did. They are used by
 *   driver initialization and by direct tests.
 * - The per-block task factories (sendBlockBounds, pollBlockBounds,
 *   setBlockBounds, and the flux-correction trio) are the graph nodes
 *   the task-graph driver schedules, so boundary polling interleaves
 *   with interior compute (§II-C). They are safe to run concurrently
 *   for distinct blocks: every send reads only the sender's interior,
 *   every unpack writes only the receiver's ghosts (or its own flux
 *   faces), and all profiler records carry explicit phase/rank
 *   attribution instead of touching shared ambient state.
 *
 * Per-cycle state (pending-receive count, wire-cell counter, stale
 * mailbox entries from a cycle that threw) is reset at the top of
 * startReceiveBoundBufs(), so an exchange aborted mid-cycle can never
 * leave the next one waiting on phantom messages.
 *
 * A third granularity sits on top of both (<exec> fused_boundaries,
 * default on): the BoundaryPlan path. All traffic per (src rank, dst
 * rank) pair per phase travels as ONE coalesced mailbox message, and
 * each send or set phase runs in three steps over the plan's buffer
 * table:
 *
 * - a serial begin step builds the row table (one row per plan entry)
 *   and sizes the outbound payloads or receives the coalesced inbound
 *   messages;
 * - kFusedPartitions row partitions, contiguous row ranges of
 *   near-equal cost, run the pack (restrict) or unpack (prolongate)
 *   arithmetic; the driver schedules each partition as its own task,
 *   so every worker of the rank shares the phase;
 * - a serial end step records the phase as one fused kernel plus its
 *   serial bookkeeping and isends the coalesced messages (send), or
 *   leaves the physical-boundary fill to the caller (set).
 *
 * The per-channel pack/unpack arithmetic is shared verbatim with the
 * per-face path (packBoundsChannel and friends), every row writes a
 * disjoint payload slice or receiver region, and prolongation's
 * interior fallback reads cells no unpack writes, so the fused path is
 * bitwise identical to the per-face path at any thread or rank count.
 * The partition count is a plan constant, never the thread count, so
 * the task graph is the same at every concurrency. The plan must be
 * current (BoundaryPlan::ensureBuilt() at a serial point; the driver's
 * graph builders do this) before any fused phase function runs.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/boundary_plan.hpp"
#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"

namespace vibe {

/** Drives ghost and flux-correction exchanges over a RankWorld. */
class GhostExchange
{
  public:
    GhostExchange(Mesh& mesh, RankWorld& world,
                  BoundaryBufferCache& cache);

    /** Run one complete ghost exchange (the four phases, in order). */
    void exchangeBounds();

    void startReceiveBoundBufs();
    void sendBoundBufs();
    void receiveBoundBufs();
    void setBounds();

    // --- Per-block task factories (bounds cycle) ---

    /** Pack and isend every channel whose sender is `block`. */
    void sendBlockBounds(const MeshBlock& block);
    /**
     * Probe the channels into `block`; true when every expected buffer
     * is present (polling cost recorded once, on completion).
     */
    bool pollBlockBounds(const MeshBlock& block);
    /** Receive and unpack every channel into `block`. */
    void setBlockBounds(MeshBlock& block);

    /**
     * Run one flux-correction exchange. Must be called after fluxes are
     * computed and before FluxDivergence consumes them.
     */
    void exchangeFluxCorrections();

    // --- Per-block task factories (flux-correction cycle) ---

    /** Restrict-pack and isend the corrections `block` sends. */
    void sendBlockFluxCorrections(const MeshBlock& block);
    /** Probe the flux channels into `block`; true when all present. */
    bool pollBlockFluxCorrections(const MeshBlock& block);
    /** Receive and apply the corrections destined for `block`. */
    void setBlockFluxCorrections(MeshBlock& block);

    /**
     * Fill ghost zones at non-periodic physical boundaries with
     * zero-gradient (outflow) data. No-op for periodic domains.
     */
    void applyPhysicalBoundaries();
    /** Physical-boundary fill for one block (task-graph node). */
    void applyPhysicalBoundariesBlock(MeshBlock& block);

    // --- Fused BoundaryPlan path (<exec> fused_boundaries) -----------

    /** True when this run routes boundaries through the plan. */
    bool fused() const { return mesh_->config().fusedBoundaries; }

    /** The plan (lazily rebuilt; see BoundaryPlan's lifecycle). */
    BoundaryPlan& plan() { return plan_; }
    const BoundaryPlan& plan() const { return plan_; }

    /**
     * Coalesced messages this replica sends / expects for `phase`:
     * the shard rank's pairs on a sharded replica, every pair on a
     * classic mesh (which steps all blocks). Plan must be current.
     */
    std::vector<int> fusedSendIds(PlanPhase phase) const;
    std::vector<int> fusedRecvIds(PlanPhase phase) const;

    /** Fused counterpart of startReceiveBoundBufs(). */
    void startReceiveBoundBufsFused();
    /**
     * Probe one coalesced message (task-graph poll node); records the
     * polling cost on success.
     */
    bool pollFusedMessage(const PlanMessage& msg);
    /** Blocking poll for every inbound bounds message (monolithic). */
    void receiveBoundBufsFused();
    /** Blocking poll for every inbound flux message (monolithic). */
    void receiveFluxCorrectionsFused();

    /**
     * Row partitions per fused send or set phase. A plan constant, not
     * a knob: it must not depend on the thread count, so task graphs
     * and traced event counts stay identical at every concurrency.
     * Partitions may be empty.
     */
    static constexpr int kFusedPartitions = 8;

    /**
     * Begin a fused send of `phase`: build the row table over every
     * outbound entry, size the coalesced payloads, split the rows
     * into kFusedPartitions partitions.
     */
    void beginFusedSend(PlanPhase phase);
    /** Pack (and restrict) the rows of partition `part`. */
    void packFusedPartition(PlanPhase phase, int part);
    /**
     * Finish a fused send: record the partitions as one pack kernel
     * plus per-pair serial bookkeeping, and isend each coalesced
     * message.
     */
    void endFusedSend(PlanPhase phase);
    /**
     * Begin a fused set of `phase`: receive every inbound coalesced
     * message, build the row table, split it into partitions.
     */
    void beginFusedSet(PlanPhase phase);
    /** Unpack (and prolongate) the rows of partition `part`. */
    void unpackFusedPartition(PlanPhase phase, int part);
    /** Finish a fused set: one unpack kernel record, bookkeeping. */
    void endFusedSet(PlanPhase phase);

    /**
     * Unpack one bounds channel's payload into its receiver's ghosts,
     * prolongating coarse slabs (the per-channel arithmetic both
     * boundary paths share). Public for the prolongation oracle test.
     */
    void unpackBoundsChannel(const BoundsChannel& ch,
                             const double* payload,
                             std::size_t count) const;

    /** Ghost cells moved in the most recent exchange cycle. */
    std::int64_t lastWireCells() const { return last_wire_cells_.load(); }

    /**
     * Boundary messages sent / modeled bytes since the last
     * startReceiveBoundBufs (bounds + flux, both paths). The driver
     * folds these into CycleStats so benches can report the per-face
     * vs fused coalescing win per cycle.
     */
    std::uint64_t lastBoundaryMessages() const
    {
        return last_messages_.load();
    }
    double lastBoundaryBytes() const
    {
        return static_cast<double>(last_send_bytes_.load());
    }

  private:
    void packAndSend(const BoundsChannel& ch);
    void unpack(const BoundsChannel& ch, const Message& msg);
    void packAndSendFlux(const FluxChannel& ch);
    void unpackFlux(const FluxChannel& ch, const Message& msg);

    /** Payload doubles for one bounds / flux channel. */
    std::size_t boundsPayloadCount(const BoundsChannel& ch) const;
    std::size_t fluxPayloadCount(const FluxChannel& ch) const;

    // Shared per-channel payload arithmetic: the per-face and fused
    // paths both call these, so their payloads agree bit for bit.
    void packBoundsChannel(const BoundsChannel& ch, double* out) const;
    void packFluxChannel(const FluxChannel& ch, double* out) const;
    void unpackFluxChannel(const FluxChannel& ch, const double* payload,
                           std::size_t count) const;

    /**
     * Monolithic fused send / set: begin, every partition spread over
     * the space with parForExecRows, end.
     */
    void sendFusedPhase(PlanPhase phase);
    void setFusedPhase(PlanPhase phase);
    /** Shared body of the two fused receive-poll phases. */
    void receiveFusedPhase(PlanPhase phase);

    /**
     * One fused phase's row table, live from its begin step to its end
     * step. Partition tasks only read it; each row writes a disjoint
     * payload slice (send) or receiver region (set).
     */
    struct FusedRows
    {
        struct Row
        {
            int channel;
            /** The row's payload slice: written (send) or read (set). */
            double* payload;
            std::size_t count;
        };
        /** Plan message ids this replica sends or receives. */
        std::vector<int> ids;
        /** One row per entry; numeric mode only. */
        std::vector<Row> rows;
        /** Rows of partition p: [partStart[p], partStart[p + 1]). */
        std::vector<int> partStart;
        /** Per-entry rank and item count, for the kernel record. */
        std::vector<int> ranks;
        std::vector<double> items;
        double innermost = 0;
        /** Outbound payloads (send). */
        std::vector<std::vector<double>> payloads;
        /** Inbound messages the rows point into (set). */
        std::vector<Message> received;

        /** Split rows into kFusedPartitions ranges by item cost. */
        void split();
    };

    /** Account one boundary send against the per-cycle counters. */
    void countSend(double bytes);

    /**
     * Discard stale mailbox deliveries from an aborted cycle (both
     * per-face and coalesced formats). Classic worlds only — see the
     * body for why the sweep is wrong with concurrent rank drivers.
     */
    void discardStaleDeliveries();

    Mesh* mesh_;
    RankWorld* world_;
    BoundaryBufferCache* cache_;
    BoundaryPlan plan_;
    FusedRows fused_send_[kNumPlanPhases];
    FusedRows fused_set_[kNumPlanPhases];
    std::atomic<std::int64_t> last_wire_cells_{0};
    std::atomic<std::uint64_t> pending_receives_{0};
    std::atomic<std::uint64_t> last_messages_{0};
    /** Modeled bytes are integral (cells x components x 8). */
    std::atomic<std::int64_t> last_send_bytes_{0};
};

} // namespace vibe
