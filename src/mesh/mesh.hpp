/**
 * @file mesh.hpp
 * The Mesh: a 2:1-balanced forest of MeshBlocks tiling the domain.
 *
 * Owns the BlockTree, the Z-ordered block list, per-block neighbor
 * lists, and the block lifecycle across AMR updates (creation of
 * children on refinement, merging on derefinement). Data movement
 * between old and new blocks (prolongation/restriction) is performed by
 * the driver through the Restructure record returned from
 * applyTreeUpdate, keeping numerical operators out of the mesh layer.
 */
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "exec/exec_context.hpp"
#include "mesh/block_memory_pool.hpp"
#include "mesh/block_tree.hpp"
#include "mesh/mesh_block.hpp"
#include "mesh/variable.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

/** User-facing mesh configuration (paper §II-F parameters). */
struct MeshConfig
{
    int ndim = 3;
    int nx1 = 64, nx2 = 64, nx3 = 64;    ///< Base-level cells per dim.
    int blockNx1 = 16, blockNx2 = 16, blockNx3 = 16; ///< MeshBlockSize.
    int numGhost = 4;                     ///< 4 for WENO5 (§VIII-B).
    /**
     * The paper's "#AMR Levels": total mesh levels including the base,
     * so 1 means a uniform mesh and L allows L-1 refinement generations.
     */
    int amrLevels = 3;
    bool periodic = true;
    double x1min = 0.0, x1max = 1.0;      ///< Cubic domain extent.
    /** Use the §VIII-B shared reconstruction scratch layout. */
    bool optimizeAuxMemory = false;
    /**
     * Host threads for kernel execution (`<exec> num_threads` in the
     * input deck): 1 selects the serial fast path, >1 a persistent
     * thread pool. The config only carries the knob — whoever builds
     * the ExecContext must honor it by passing
     * makeExecutionSpace(config.numThreads), as Experiment::run does;
     * the Mesh itself runs on whatever space its context supplies.
     */
    int numThreads = 1;
    /**
     * Recycle block array storage through a size-bucketed free list
     * (`<mesh> use_memory_pool`, default on): refine/derefine draws
     * from and returns to the pool instead of hitting the allocator,
     * and fully-overwritten buffers skip zero-init. Numerically
     * invisible — state-carrying arrays are still cleared on adopt.
     */
    bool useMemoryPool = true;
    /**
     * Fuse interior compute into MeshBlockPack launches over all
     * blocks (`<exec> pack_interior`): one hierarchical kernel per
     * phase instead of one launch per block, the Parthenon
     * MeshBlockPack strategy (Grete et al. 2022). Results are bitwise
     * identical to per-block launches; the tradeoff is per-block
     * exchange/compute overlap versus per-block launch overhead, so
     * it wins exactly in the small-block regime of fig05.
     */
    bool packInterior = false;
    /**
     * Simulated MPI ranks executing concurrently (`<exec> num_ranks`):
     * 1 runs the classic single-driver loop; >1 selects rank-sharded
     * execution, where a RankTeam launches one driver per rank over a
     * disjoint shard of blocks and all cross-rank coupling flows
     * through RankWorld mailboxes and collectives (§V measured mode).
     * Requires numeric execution — counting-mode studies model rank
     * counts through the platform configuration instead.
     */
    int numRanks = 1;

    /** Read <mesh>/<meshblock>/<amr> sections of an input deck. */
    static MeshConfig fromParams(const ParameterInput& pin);

    /** Enforce the §II-F rules (divisibility, positive sizes, ...). */
    void validate() const;

    /** Tree description implied by this configuration. */
    TreeConfig treeConfig() const;

    /** Cell shape shared by every block. */
    BlockShape blockShape() const;

    /** Base-grid block counts per dimension. */
    std::int64_t nbx1() const { return nx1 / blockNx1; }
    std::int64_t nbx2() const { return ndim >= 2 ? nx2 / blockNx2 : 1; }
    std::int64_t nbx3() const { return ndim >= 3 ? nx3 / blockNx3 : 1; }
};

/** A neighbor entry in a block's neighbor list. */
struct NeighborBlock
{
    MeshBlock* block = nullptr;
    int ox1 = 0, ox2 = 0, ox3 = 0; ///< Direction from the owning block.
    int levelDiff = 0;             ///< neighbor level - own level (-1/0/1).
};

/**
 * The mesh. Blocks are stored in Z-order; gids are indices into that
 * order and are renumbered after every restructure, as in Parthenon.
 */
class Mesh
{
  public:
    /**
     * Build the base (level-0) mesh.
     *
     * @param registry Variable declarations; must outlive the mesh.
     * @param ctx      Execution context; must outlive the mesh.
     * @param shard_rank This replica's rank in a rank-sharded team, or
     *        -1 (the default) for the classic single-address-space
     *        mesh. A sharded replica holds the full replicated block
     *        *structure* but materializes storage only for blocks it
     *        owns; every other block is a Shadow. All blocks start on
     *        rank 0 (as in the classic path); the first load balance
     *        migrates real storage onto its owners.
     */
    Mesh(const MeshConfig& config, const VariableRegistry& registry,
         const ExecContext& ctx, int shard_rank = -1);

    const MeshConfig& config() const { return config_; }
    const VariableRegistry& registry() const { return *registry_; }
    const ExecContext& ctx() const { return *ctx_; }

    BlockTree& tree() { return tree_; }
    const BlockTree& tree() const { return tree_; }

    std::size_t numBlocks() const { return blocks_.size(); }
    MeshBlock& block(int gid) { return *blocks_.at(gid); }
    const MeshBlock& block(int gid) const { return *blocks_.at(gid); }
    const std::vector<std::unique_ptr<MeshBlock>>& blocks() const
    {
        return blocks_;
    }

    /** Block at a logical location, or nullptr if not a current leaf. */
    MeshBlock* find(const LogicalLocation& loc);

    // --- Rank-ownership view ------------------------------------------

    /** True when this mesh is one replica of a rank-sharded team. */
    bool sharded() const { return shard_rank_ >= 0; }
    /** This replica's rank (-1 for the classic mesh). */
    int shardRank() const { return shard_rank_; }
    /** Rank used for collective participation (0 on a classic mesh). */
    int collectiveRank() const { return shard_rank_ < 0 ? 0 : shard_rank_; }

    /**
     * Blocks this replica steps, in gid order: the owned shard of a
     * sharded mesh, or every block of a classic mesh. Valid until the
     * next restructure or ownership change.
     */
    const std::vector<MeshBlock*>& ownedBlocks() const
    {
        return owned_blocks_;
    }

    /** Blocks assigned to `rank`, in gid order (any replica's view). */
    std::vector<MeshBlock*> ownedBlocks(int rank) const;

    /**
     * Owner rank of the block at `loc`, or -1 if `loc` is not a
     * current leaf.
     */
    int ownerOf(const LogicalLocation& loc) const;

    /**
     * Rebuild the owned-block view after rank assignments changed
     * (load balance). Called automatically on every renumber.
     */
    void refreshOwnership();

    /** Neighbor list of block `gid` (valid until next restructure). */
    const std::vector<NeighborBlock>& neighbors(int gid) const
    {
        return neighbor_lists_.at(gid);
    }

    /** Physical geometry of a block at `loc`. */
    BlockGeometry geometryFor(const LogicalLocation& loc) const;

    /** Sum of interior cells over all blocks. */
    std::int64_t totalInteriorCells() const;

    /** Deepest level among current blocks. */
    int maxPresentLevel() const { return tree_.maxPresentLevel(); }

    /**
     * Run one tree update from refinement flags (UpdateMeshBlockTree).
     * Structure only; call applyTreeUpdate to realize block changes.
     */
    BlockTree::UpdateResult updateTree(const RefinementFlagMap& flags);

    /** Record of one restructure for data prolongation/restriction. */
    struct Restructure
    {
        struct Refined
        {
            /** The coarse block that was split (data still intact). */
            std::unique_ptr<MeshBlock> parent;
            /** Newly created children, in child-octant order. */
            std::vector<MeshBlock*> children;
        };
        struct Derefined
        {
            /** Newly created coarse block. */
            MeshBlock* parent = nullptr;
            /** The former children (data still intact). */
            std::vector<std::unique_ptr<MeshBlock>> children;
        };
        std::vector<Refined> refined;
        std::vector<Derefined> derefined;
    };

    /**
     * Realize a tree update on the block list: create children/parents,
     * retire old blocks, renumber gids in Z-order and rebuild neighbor
     * lists. Ranks are inherited (children from parent, parent from
     * first child) until the load balancer reassigns them.
     *
     * @param current_cycle Stamped on newly created blocks.
     */
    Restructure applyTreeUpdate(const BlockTree::UpdateResult& update,
                                std::int64_t current_cycle);

    /**
     * Rebuild all neighbor lists from the tree
     * (SetMeshBlockNeighbors); counted as serial work.
     */
    void rebuildNeighbors();

    /** Total neighbor-list entries (comm-graph size). */
    std::size_t totalNeighborLinks() const;

    /**
     * Block-storage recycling pool (null when disabled or in counting
     * mode, where no arrays are materialized).
     */
    BlockMemoryPool* memoryPool() { return pool_.get(); }
    const BlockMemoryPool* memoryPool() const { return pool_.get(); }

    /**
     * Materialize a sharded replica's block if this replica owns it
     * (rank just assigned by applyTreeUpdate or migration). No-op on a
     * classic mesh, whose blocks are born materialized.
     */
    void realizeBlock(MeshBlock& block);

  private:
    std::unique_ptr<MeshBlock> makeBlock(const LogicalLocation& loc);
    /** Sort blocks in Z-order, renumber gids, refresh the index. */
    void renumber();

    MeshConfig config_;
    const VariableRegistry* registry_;
    const ExecContext* ctx_;
    int shard_rank_ = -1;
    BlockTree tree_;
    /** Declared before blocks_ so every block dies before the pool. */
    std::unique_ptr<BlockMemoryPool> pool_;
    std::vector<std::unique_ptr<MeshBlock>> blocks_;
    std::vector<MeshBlock*> owned_blocks_;
    std::unordered_map<LogicalLocation, int, LogicalLocationHash>
        loc_to_gid_;
    std::vector<std::vector<NeighborBlock>> neighbor_lists_;

    /** Shared reconstruction scratch (§VIII-B layout), if enabled. */
    RealArray4 shared_recon_l_[3], shared_recon_r_[3];
    std::size_t recon_pool_bytes_ = 0;
};

} // namespace vibe
