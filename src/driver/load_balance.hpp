/**
 * @file load_balance.hpp
 * Cost-based block-to-rank assignment (part of
 * RedistributeAndRefineMeshBlocks, paper §II-E).
 *
 * Parthenon assigns contiguous runs of the Z-ordered block list to
 * ranks so per-rank cost is balanced; blocks whose rank changes are
 * shipped over MPI using the ghost-exchange machinery. We reproduce
 * the same greedy prefix partition (zPrefixPartition, which a sharded
 * Mesh also uses to place base blocks on their owners at birth, so
 * the first balance of a single-level mesh moves nothing). On the
 * classic (modeled) path the
 * shipped bytes are accounted only; on the rank-sharded path the move
 * is real — the source rank serializes the block's state through a
 * RankWorld mailbox, the destination rank materializes storage from
 * its own BlockMemoryPool and unpacks, and every replica relabels the
 * block's owner, so the partition stays replicated-deterministic.
 */
#pragma once

#include "comm/rank_world.hpp"
#include "driver/block_cost_model.hpp"
#include "mesh/mesh.hpp"

namespace vibe {

/** Tuning for one loadBalance() call. */
struct LoadBalanceOptions
{
    /**
     * Minimum projected improvement of the max/mean rank-cost
     * imbalance factor required to adopt a partition that moves
     * blocks (the `<amr> lb_imbalance_trigger` knob). 0 adopts every
     * change — the historical behavior. With measured (jittery) costs
     * a positive trigger keeps the SFC split from thrashing block
     * storage through the mailbox migration path for marginal gains.
     */
    double imbalanceTrigger = 0.0;
    /**
     * Cost source (the `<amr> lb_cost` knob). Uniform weighs every
     * block by its interior cell count — the historical behavior,
     * independent of the cost metadata riding the blocks. Measured
     * gathers the blocks' EMA-smoothed cost estimates and also syncs
     * every replica's cost metadata to the gathered map.
     */
    LbCostMode costMode = LbCostMode::Uniform;
};

/** Outcome of one load-balancing pass. */
struct LoadBalanceStats
{
    int movedBlocks = 0;      ///< Blocks whose owner rank changed.
    /** Modeled bytes for those moves (every array a block carries). */
    double movedBytes = 0;
    /**
     * Real payload serialized through RankWorld mailboxes (conserved +
     * derived state of migrated blocks). Zero on the classic path,
     * where moves only relabel; the gap between movedBytes and
     * migratedStorageBytes is exactly the scratch a migration never
     * ships because the receiver rebuilds it.
     */
    double migratedStorageBytes = 0;
    double maxRankCost = 0;   ///< Heaviest rank's total cost.
    double meanRankCost = 0;  ///< Average rank cost.
    /**
     * False when hysteresis rejected the proposed partition: nothing
     * moved and maxRankCost/meanRankCost describe the *kept* current
     * assignment (what the run actually pays), not the rejected one.
     */
    bool adopted = true;

    /** max/mean cost ratio; 1.0 is perfectly balanced. */
    double imbalance() const
    {
        return meanRankCost > 0 ? maxRankCost / meanRankCost : 1.0;
    }
};

/**
 * Greedy Z-order prefix partition of blocks over `world.nranks()`
 * ranks using per-block costs; re-homed blocks are shipped (really,
 * on a sharded replica; accounted, on the classic path) and the
 * serial partitioning work is recorded. In a rank team every rank
 * calls this collectively: the cost gather is the synchronization
 * point and each replica computes the identical partition (and, with
 * hysteresis, the identical adopt/skip decision).
 */
LoadBalanceStats loadBalance(Mesh& mesh, RankWorld& world,
                             const LoadBalanceOptions& options = {});

} // namespace vibe
