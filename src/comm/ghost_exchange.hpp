/**
 * @file ghost_exchange.hpp
 * The four-function ghost-cell communication cycle (paper §II-D) and
 * the flux-correction exchange at fine-coarse faces, both run over the
 * BoundaryPlan's buffer table.
 *
 * - StartReceiveBoundBufs: reset the per-cycle state and prepare one
 *   receive per inbound coalesced message.
 * - SendBoundBufs: restrict fine data destined for coarser neighbors
 *   (GPU-offloaded), pack every outbound channel into its slice of a
 *   coalesced payload, and isend one message per (src rank, dst rank)
 *   pair.
 * - ReceiveBoundBufs: poll with Iprobe until every expected coalesced
 *   message has arrived.
 * - SetBounds: unpack each channel's slice into ghost zones,
 *   prolongating coarse slabs into fine ghosts (GPU-offloaded).
 *
 * Flux correction reuses the same machinery on flux fields only
 * (§II-C), replacing the coarse face flux with the restricted sum of
 * the fine fluxes so conservation holds across levels.
 *
 * Each send or set phase runs in three steps:
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
 * The monolithic entry points (exchangeBounds() and
 * exchangeFluxCorrections()) run the same steps back to back; driver
 * initialization and direct tests use them.
 *
 * Outbound payloads are recycled: the set's end step keeps the
 * payload vectors it consumed, and the next send of the phase resizes
 * them instead of allocating, so on a steady mesh no phase allocates
 * a payload-sized buffer.
 *
 * Every row writes a disjoint payload slice or receiver region, and
 * prolongation's interior fallback reads cells no unpack writes, so
 * the result is bitwise identical to packing and unpacking each
 * channel on its own, at any thread or rank count. The partition count
 * is a plan constant, never the thread count, so the task graph is the
 * same at every concurrency. Per-cycle state (wire-cell and message
 * counters, stale mailbox entries from a cycle that threw) is reset at
 * the top of startReceiveBoundBufs(). The plan must be current
 * (BoundaryPlan::ensureBuilt() at a serial point; the driver's graph
 * builders and the monolithic entry points do this) before any phase
 * function runs.
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

    /**
     * Run one flux-correction exchange. Must be called after fluxes are
     * computed and before FluxDivergence consumes them.
     */
    void exchangeFluxCorrections();

    /**
     * Fill ghost zones at non-periodic physical boundaries with
     * zero-gradient (outflow) data. No-op for periodic domains.
     */
    void applyPhysicalBoundaries();
    /** Physical-boundary fill for one block (task-graph node). */
    void applyPhysicalBoundariesBlock(MeshBlock& block);

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

    /**
     * Reset the per-cycle state and prepare the bounds receives; the
     * first step of every exchange cycle.
     */
    void startReceiveBoundBufs();
    /**
     * Probe one coalesced message (task-graph poll node); records the
     * polling cost on success.
     */
    bool pollFusedMessage(const PlanMessage& msg);
    /** Blocking poll for every inbound bounds message (monolithic). */
    void receiveBoundBufs();
    /** Blocking poll for every inbound flux message (monolithic). */
    void receiveFluxCorrections();

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

    // Per-channel payload arithmetic the partitions run. Public for
    // the oracle tests, which pack and unpack each channel on its own.

    /** Pack (restricting fine data) one bounds channel into `out`. */
    void packBoundsChannel(const BoundsChannel& ch, double* out) const;
    /**
     * Unpack one bounds channel's payload into its receiver's ghosts,
     * prolongating coarse slabs.
     */
    void unpackBoundsChannel(const BoundsChannel& ch,
                             const double* payload,
                             std::size_t count) const;
    /** Restrict-pack one flux-correction channel into `out`. */
    void packFluxChannel(const FluxChannel& ch, double* out) const;
    /** Overwrite the receiver's coarse face fluxes with the payload. */
    void unpackFluxChannel(const FluxChannel& ch, const double* payload,
                           std::size_t count) const;

    /** Ghost cells moved in the most recent exchange cycle. */
    std::int64_t lastWireCells() const { return last_wire_cells_.load(); }

    /**
     * Boundary messages sent / modeled bytes since the last
     * startReceiveBoundBufs (bounds + flux). The driver folds these
     * into CycleStats so benches can report messages and bytes per
     * cycle.
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
     * Discard stale coalesced deliveries from an aborted cycle.
     * Classic worlds only — see the body for why the sweep is wrong
     * with concurrent rank drivers.
     */
    void discardStaleDeliveries();

    Mesh* mesh_;
    RankWorld* world_;
    BoundaryBufferCache* cache_;
    BoundaryPlan plan_;
    FusedRows fused_send_[kNumPlanPhases];
    FusedRows fused_set_[kNumPlanPhases];
    /**
     * Payload vectors of the messages the last set of each phase
     * consumed, recycled as the next send's outbound payloads so a
     * steady mesh exchanges without allocating. Touched only by the
     * serial begin/end steps.
     */
    std::vector<std::vector<double>> spare_payloads_[kNumPlanPhases];
    std::atomic<std::int64_t> last_wire_cells_{0};
    std::atomic<std::uint64_t> last_messages_{0};
    /** Modeled bytes are integral (cells x components x 8). */
    std::atomic<std::int64_t> last_send_bytes_{0};
};

} // namespace vibe
