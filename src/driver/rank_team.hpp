/**
 * @file rank_team.hpp
 * Rank-sharded execution: one EvolutionDriver per simulated rank, each
 * on its own thread with its own thread team, over a disjoint shard of
 * blocks (paper §V, measured rather than modeled).
 *
 * The decomposition mirrors Parthenon/AMReX distributed AMR:
 *
 * - Every rank holds a full *replica* of the mesh structure (the
 *   BlockTree, gids, neighbor lists, channel geometry) but
 *   materializes block storage only for its owned shard; every other
 *   block is a storage-less Shadow, which makes direct cross-rank
 *   memory access structurally impossible.
 * - All cross-rank coupling flows through the shared RankWorld: ghost
 *   and flux-correction buffers as mailbox messages, dt / mass history
 *   as value-carrying AllReduces, refinement flags as AllGathers, and
 *   load-balance moves as serialized whole-block payloads drawn into
 *   the destination rank's BlockMemoryPool.
 * - Remesh is a replicated collective: tags are computed on owned
 *   blocks, all-gathered, and every rank rebuilds the identical tree
 *   deterministically (BlockTree::update sorts its inputs), so no rank
 *   ever needs another rank's structure.
 *
 * Each rank also owns private instrumentation (KernelProfiler,
 * MemoryTracker) so the hot paths stay lock-free; the team merges them
 * into run-wide tables afterwards. N-rank runs are bitwise identical
 * to the 1-rank driver for any package — the rank-equivalence tests
 * enforce this across remesh and migration events.
 */
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "driver/evolution_driver.hpp"
#include "driver/tagger.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

/** Launches and coordinates one driver per rank. */
class RankTeam
{
  public:
    /** Per-rank tagger factory (taggers may hold per-rank state). */
    using TaggerFactory =
        std::function<std::unique_ptr<RefinementTagger>(int rank)>;

    /**
     * @param mesh_config  Shared mesh configuration; numRanks (>= 1)
     *        selects the team size and numThreads the per-rank team.
     * @param registry     Variable declarations (outlives the team).
     * @param package      Physics package (stateless; shared by all
     *        ranks and outlives the team).
     * @param driver_config Loop controls, identical on every rank.
     * @param make_tagger  Builds each rank's refinement tagger.
     */
    RankTeam(const MeshConfig& mesh_config,
             const VariableRegistry& registry,
             const PackageDescriptor& package,
             const DriverConfig& driver_config,
             TaggerFactory make_tagger);
    ~RankTeam();

    RankTeam(const RankTeam&) = delete;
    RankTeam& operator=(const RankTeam&) = delete;

    /**
     * Initialize and evolve every rank concurrently; returns when all
     * rank threads finished. Each rank's state (mesh, driver,
     * instrumentation) is constructed on its own thread, so per-rank
     * profilers and trackers run their owner fast paths. Rethrows the
     * first rank failure after waking any peers blocked on the failed
     * rank. May be called once.
     */
    void run();

    int numRanks() const { return num_ranks_; }
    RankWorld& world() { return world_; }

    /**
     * Restore every rank from `image` instead of initializing fresh
     * (not owned; must outlive run()). The image may have been written
     * at any rank/thread count — each replica rebuilds the identical
     * structure and the restore's load balance re-shards storage.
     */
    void setRestoreImage(const CheckpointImage* image)
    {
        restore_image_ = image;
    }

    /**
     * Writer for periodic checkpoints (not owned; may be null).
     * Installed on rank 0's driver only — every rank still joins each
     * capture gather, keeping the collective symmetric.
     */
    void setCheckpointWriter(CheckpointWriter* writer)
    {
        checkpoint_writer_ = writer;
    }

    /** Fault injector installed on every rank (not owned; may be null). */
    void setFaultInjector(FaultInjector* injector)
    {
        fault_injector_ = injector;
    }

    /**
     * JSONL heartbeat writer (not owned; may be null). Installed on
     * rank 0's driver only, same discipline as the checkpoint writer:
     * one heartbeat stream per run, never one per rank.
     */
    void setMetricsWriter(MetricsWriter* writer)
    {
        metrics_writer_ = writer;
    }

    /** Per-rank state (valid after run()). */
    Mesh& mesh(int rank) { return *states_.at(rank)->mesh; }
    EvolutionDriver& driver(int rank)
    {
        return *states_.at(rank)->driver;
    }
    const KernelProfiler& profiler(int rank) const
    {
        return states_.at(rank)->profiler;
    }
    const MemoryTracker& tracker(int rank) const
    {
        return states_.at(rank)->tracker;
    }

    /**
     * The block at `loc` on its owner's replica (the copy that holds
     * real storage), or nullptr if `loc` is not a current leaf.
     */
    MeshBlock* ownedBlock(const LogicalLocation& loc);

    /** Wall seconds of run() (initialize + evolve, all ranks). */
    double wallSeconds() const { return wall_seconds_; }

    // --- Aggregated run-wide counters (valid after run()) -------------

    /** Zone-cycles of the whole mesh (identical on every rank). */
    std::int64_t zoneCycles() const;
    /** Ghost cells communicated, summed over ranks. */
    std::int64_t commCells() const;
    /** Flux-correction faces communicated, summed over ranks. */
    std::int64_t commFaces() const;
    /** Real state bytes migrated by load balancing over the run. */
    double migratedStorageBytes() const;

    /**
     * Rank 0's cycle history with the per-rank wire counters replaced
     * by team-wide sums (every other field is replicated by
     * construction: dt and mass are collective results, block counts
     * and remesh events are identical on all replicas).
     */
    std::vector<CycleStats> aggregatedHistory() const;

    /** Merge every rank's instrumentation into run-wide sinks. */
    void mergeInstrumentation(KernelProfiler* profiler,
                              MemoryTracker* tracker) const;

  private:
    struct RankState
    {
        KernelProfiler profiler;
        MemoryTracker tracker;
        std::unique_ptr<ExecContext> ctx;
        std::unique_ptr<Mesh> mesh;
        std::unique_ptr<RefinementTagger> tagger;
        std::unique_ptr<EvolutionDriver> driver;
    };

    void runRank(int rank);
    /**
     * Record this rank's failure (first exception wins) and wake every
     * peer blocked in a collective or poll loop, tagging the world
     * with the original error message so peers report the root cause.
     */
    void recordFailure(std::exception_ptr error,
                       const std::string& reason);

    MeshConfig mesh_config_;
    const VariableRegistry* registry_;
    const PackageDescriptor* package_;
    DriverConfig driver_config_;
    TaggerFactory make_tagger_;
    int num_ranks_;
    RankWorld world_;
    std::vector<std::unique_ptr<RankState>> states_;
    const CheckpointImage* restore_image_ = nullptr;
    CheckpointWriter* checkpoint_writer_ = nullptr;
    FaultInjector* fault_injector_ = nullptr;
    MetricsWriter* metrics_writer_ = nullptr;
    double wall_seconds_ = 0;
    bool ran_ = false;

    Mutex error_mutex_;
    std::exception_ptr first_error_ VIBE_GUARDED_BY(error_mutex_);
};

} // namespace vibe
