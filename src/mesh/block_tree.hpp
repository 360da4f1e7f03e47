/**
 * @file block_tree.hpp
 * Tree-based AMR forest over a base grid of MeshBlocks.
 *
 * The computational domain is tiled by an `nbx1 x nbx2 x nbx3` base grid
 * of blocks at refinement level 0. Refinement replaces a leaf with its
 * 2/4/8 children (binary tree / quadtree / octree for 1/2/3-D);
 * derefinement merges a complete sibling set back into the parent. Every
 * spatial point is covered by exactly one leaf, and the 2:1 rule —
 * neighboring leaves differ by at most one level, including across edges
 * and corners — is enforced on every mutation (paper §II-B, §II-F).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mesh/logical_location.hpp"

namespace vibe {

/** Per-leaf AMR decision collected from refinement tagging. */
enum class RefinementFlag : int { Derefine = -1, None = 0, Refine = 1 };

/** Static description of the refinement forest. */
struct TreeConfig
{
    int ndim = 3;                 ///< Spatial dimensionality (1, 2 or 3).
    std::int64_t nbx1 = 1;        ///< Base-grid blocks in x1.
    std::int64_t nbx2 = 1;        ///< Base-grid blocks in x2 (1 if ndim < 2).
    std::int64_t nbx3 = 1;        ///< Base-grid blocks in x3 (1 if ndim < 3).
    int maxLevel = 0;             ///< Deepest refinement level allowed.
    bool periodic1 = true;        ///< Periodic domain boundary in x1.
    bool periodic2 = true;
    bool periodic3 = true;
};

/** Map from leaf location to its refinement flag. */
using RefinementFlagMap =
    std::unordered_map<LogicalLocation, RefinementFlag, LogicalLocationHash>;

/**
 * The AMR forest: leaf/internal node set with 2:1-balanced mutations.
 *
 * The tree is purely structural — it knows nothing about variables or
 * ranks. Mesh layers block objects on top of the leaf set.
 */
class BlockTree
{
  public:
    explicit BlockTree(const TreeConfig& config);

    const TreeConfig& config() const { return config_; }

    /** Number of leaf blocks. */
    std::size_t leafCount() const { return leaf_count_; }

    /** Deepest level at which any leaf currently exists. */
    int maxPresentLevel() const;

    /** True if `loc` is a current leaf. */
    bool isLeaf(const LogicalLocation& loc) const;

    /** True if `loc` is present as a leaf or an internal node. */
    bool exists(const LogicalLocation& loc) const;

    /**
     * All leaves in Z-order (Morton order at the finest reference level),
     * the canonical block-list order used for load balancing.
     */
    std::vector<LogicalLocation> leavesZOrder() const;

    /** Visit every leaf (unordered). */
    void forEachLeaf(
        const std::function<void(const LogicalLocation&)>& fn) const;

    /** A neighboring leaf as seen from a particular direction. */
    struct NeighborInfo
    {
        LogicalLocation loc;  ///< Neighboring leaf location.
        int ox1, ox2, ox3;    ///< Direction from the querying leaf, -1/0/1.
    };

    /**
     * Leaf neighbors of `loc` across every face, edge and corner.
     *
     * Finer neighbors appear once per touching child; a coarser neighbor
     * may appear under several directions (once per shared face/edge/
     * corner), matching the per-direction ghost-buffer geometry.
     */
    std::vector<NeighborInfo> neighbors(const LogicalLocation& loc) const;

    /**
     * The leaf covering `target` (which may name a finer or coarser
     * region), or nullopt if the region lies outside the domain.
     */
    std::optional<LogicalLocation>
    coveringLeaf(const LogicalLocation& target) const;

    /** True if `loc` indexes a block inside the domain at its level. */
    bool validIndex(const LogicalLocation& loc) const;

    /**
     * Refine leaf `loc`, recursively refining coarser neighbors first so
     * the 2:1 rule holds afterwards. No-op if `loc` is not a leaf or is
     * already at the maximum level.
     *
     * @param newly_refined If non-null, every leaf that was split (the
     *        requested one plus any 2:1 propagations) is appended.
     */
    void refine(const LogicalLocation& loc,
                std::vector<LogicalLocation>* newly_refined = nullptr);

    /**
     * Merge the children of `parent` back into a single leaf.
     *
     * @return false (leaving the tree unchanged) if any child is missing
     *         or internal, or if the merge would violate the 2:1 rule.
     */
    bool derefine(const LogicalLocation& parent);

    /** Result of one AMR update pass. */
    struct UpdateResult
    {
        /** Former leaves that were split into children. */
        std::vector<LogicalLocation> refined;
        /** Parents whose children were merged away. */
        std::vector<LogicalLocation> derefined;

        bool changed() const { return !refined.empty() ||
                                      !derefined.empty(); }
    };

    /**
     * Apply one cycle of refinement flags (Parthenon's
     * UpdateMeshBlockTree): refine every Refine-flagged leaf (with 2:1
     * propagation), then merge every sibling set whose members are all
     * flagged Derefine and whose merge keeps the tree balanced.
     */
    UpdateResult update(const RefinementFlagMap& flags);

    /**
     * Validate the 2:1 invariant and exact covering across the whole
     * forest. Used by tests and debug assertions.
     */
    bool checkBalance() const;

    /**
     * Logical-level offset of the single-tree view (Fig. 2): the number
     * of doublings needed for one root to cover the base grid.
     */
    int logicalLevelOffset() const;

    /** Reference level used for Z-order keys (maxLevel of the config). */
    int referenceLevel() const { return config_.maxLevel; }

  private:
    enum class Node : std::uint8_t { Leaf, Internal };

    /** Blocks per dimension `d` (1-based) at refinement level `level`. */
    std::int64_t extentAtLevel(int d, int level) const;

    /**
     * Neighbor index of `loc` displaced by (ox1,ox2,ox3) with periodic
     * wrapping; nullopt if outside a non-periodic boundary.
     */
    std::optional<LogicalLocation>
    displace(const LogicalLocation& loc, int ox1, int ox2, int ox3) const;

    /** Children of `loc` restricted to active dimensions. */
    std::vector<LogicalLocation> children(const LogicalLocation& loc) const;

    /**
     * Visit the children of `neighbor_region` (at level + 1) that touch
     * the boundary shared with a block in direction (-ox1,...), in
     * child-octant order.
     */
    template <typename Fn>
    void forEachTouchingChild(const LogicalLocation& neighbor_region,
                              int ox1, int ox2, int ox3, Fn&& fn) const;

    /** Visit every face/edge/corner direction of the active dims. */
    template <typename Fn>
    void forEachDirection(Fn&& fn) const;

    TreeConfig config_;
    std::unordered_map<LogicalLocation, Node, LogicalLocationHash> nodes_;
    std::size_t leaf_count_ = 0;
};

} // namespace vibe
