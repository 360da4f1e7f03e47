#include "mesh/mesh.hpp"

#include <algorithm>

#include "exec/memory_tracker.hpp"
#include "exec/par_for.hpp"
#include "util/logging.hpp"

namespace vibe {

MeshConfig
MeshConfig::fromParams(const ParameterInput& pin)
{
    MeshConfig config;
    config.ndim = pin.getInt("mesh", "ndim", 3);
    config.nx1 = pin.getInt("mesh", "nx1", 64);
    config.nx2 = pin.getInt("mesh", "nx2", config.nx1);
    config.nx3 = pin.getInt("mesh", "nx3", config.nx1);
    config.blockNx1 = pin.getInt("meshblock", "nx1", 16);
    config.blockNx2 = pin.getInt("meshblock", "nx2", config.blockNx1);
    config.blockNx3 = pin.getInt("meshblock", "nx3", config.blockNx1);
    config.numGhost = pin.getInt("mesh", "num_ghost", 4);
    config.amrLevels = pin.getInt("amr", "num_levels", 3);
    config.periodic = pin.getBool("mesh", "periodic", true);
    config.x1min = pin.getReal("mesh", "x1min", 0.0);
    config.x1max = pin.getReal("mesh", "x1max", 1.0);
    config.optimizeAuxMemory =
        pin.getBool("mesh", "optimize_aux_memory", false);
    config.numThreads = pin.getInt("exec", "num_threads", 1);
    config.useMemoryPool = pin.getBool("mesh", "use_memory_pool", true);
    config.packInterior = pin.getBool("exec", "pack_interior", false);
    config.numRanks = pin.getInt("exec", "num_ranks", 1);
    config.validate();
    return config;
}

void
MeshConfig::validate() const
{
    if (ndim < 1 || ndim > 3)
        fatal("mesh ndim must be 1, 2 or 3, got ", ndim);
    if (nx1 <= 0 || blockNx1 <= 0)
        fatal("mesh and block sizes must be positive");
    if (numGhost < 1)
        fatal("at least one ghost layer is required");
    if (amrLevels < 1)
        fatal("#AMR Levels must be at least 1 (1 = uniform mesh)");
    if (numThreads < 1)
        fatal("exec/num_threads must be at least 1, got ", numThreads);
    if (numRanks < 1)
        fatal("exec/num_ranks must be at least 1, got ", numRanks);
    // §II-F: the total mesh size in each dimension must be an exact
    // multiple of the corresponding MeshBlock size.
    if (nx1 % blockNx1 != 0)
        fatal("mesh nx1=", nx1, " is not a multiple of block nx1=",
              blockNx1);
    if (ndim >= 2 && nx2 % blockNx2 != 0)
        fatal("mesh nx2=", nx2, " is not a multiple of block nx2=",
              blockNx2);
    if (ndim >= 3 && nx3 % blockNx3 != 0)
        fatal("mesh nx3=", nx3, " is not a multiple of block nx3=",
              blockNx3);
    if (x1max <= x1min)
        fatal("domain extent must be positive");
    // Periodic ghost exchange requires at least two blocks per active
    // dimension (a block cannot be its own neighbor).
    if (periodic) {
        if (nx1 / blockNx1 < 2)
            fatal("periodic meshes need >= 2 blocks per dimension; "
                  "got nx1/block = ",
                  nx1 / blockNx1);
        if (ndim >= 2 && nx2 / blockNx2 < 2)
            fatal("periodic meshes need >= 2 blocks in x2");
        if (ndim >= 3 && nx3 / blockNx3 < 2)
            fatal("periodic meshes need >= 2 blocks in x3");
    }
}

TreeConfig
MeshConfig::treeConfig() const
{
    TreeConfig tree;
    tree.ndim = ndim;
    tree.nbx1 = nbx1();
    tree.nbx2 = nbx2();
    tree.nbx3 = nbx3();
    tree.maxLevel = amrLevels - 1;
    tree.periodic1 = tree.periodic2 = tree.periodic3 = periodic;
    return tree;
}

BlockShape
MeshConfig::blockShape() const
{
    BlockShape shape;
    shape.ndim = ndim;
    shape.nx1 = blockNx1;
    shape.nx2 = ndim >= 2 ? blockNx2 : 1;
    shape.nx3 = ndim >= 3 ? blockNx3 : 1;
    shape.ng = numGhost;
    return shape;
}

Mesh::Mesh(const MeshConfig& config, const VariableRegistry& registry,
           const ExecContext& ctx, int shard_rank)
    : config_(config), registry_(&registry), ctx_(&ctx),
      shard_rank_(shard_rank), tree_(config.treeConfig())
{
    config_.validate();
    if (shard_rank_ >= 0) {
        require(shard_rank_ < config_.numRanks,
                "shard rank ", shard_rank_, " out of range for ",
                config_.numRanks, " ranks");
        require(ctx_->executing(),
                "rank-sharded execution requires numeric mode; counting "
                "studies model rank counts through the platform config");
    }

    // Storage recycling only matters when arrays are materialized;
    // counting-mode blocks register byte counts without backing stores.
    if (config_.useMemoryPool && ctx_->executing())
        pool_ = std::make_unique<BlockMemoryPool>(ctx_->tracker());

    if (config_.optimizeAuxMemory) {
        // §VIII-B: one shared reconstruction scratch instead of
        // per-block copies. Physically we keep one full-block scratch;
        // the flux kernels reconstruct in per-chunk pencil scratch and
        // never touch it, so lending it to every block cannot race.
        // The modeled device footprint is the per-thread-block slab
        // formula.
        const BlockShape shape = config_.blockShape();
        const int ncons = registry_->ncompConserved();
        if (ctx_->executing()) {
            for (int d = 0; d < config_.ndim; ++d) {
                shared_recon_l_[d] =
                    RealArray4(ncons, shape.nk(), shape.nj(), shape.ni());
                shared_recon_r_[d] =
                    RealArray4(ncons, shape.nk(), shape.nj(), shape.ni());
            }
        }
        // Modeled footprint: #ThreadBlocks x B x 6 x (nx1+2ng)^2 x ncomp
        // (d = 2 post-optimization, paper §VIII-B).
        constexpr std::size_t kThreadBlocks = 1024; // typical for H100
        const std::size_t slab = static_cast<std::size_t>(shape.ni()) *
                                 shape.ni() * sizeof(double);
        recon_pool_bytes_ = kThreadBlocks * 6 * slab *
                            static_cast<std::size_t>(ncons);
        if (ctx_->tracker())
            ctx_->tracker()->allocate("mesh/recon_pool", recon_pool_bytes_);
    }

    for (const auto& loc : tree_.leavesZOrder())
        blocks_.push_back(makeBlock(loc));
    // Sharded replicas create Shadow blocks; every block starts on
    // rank 0 (the classic initial assignment), so replica 0 now
    // materializes the whole base grid and the first load balance
    // migrates the shards onto their owners.
    for (const auto& block : blocks_)
        realizeBlock(*block);
    renumber();
    rebuildNeighbors();
}

std::unique_ptr<MeshBlock>
Mesh::makeBlock(const LogicalLocation& loc)
{
    // In a sharded replica ownership is unknown until the caller
    // assigns a rank, so blocks are born Shadow and realizeBlock()
    // materializes the owned ones.
    auto block = std::make_unique<MeshBlock>(
        loc, config_.blockShape(), geometryFor(loc), *registry_, *ctx_,
        /*own_recon=*/!config_.optimizeAuxMemory, pool_.get(),
        /*shadow=*/sharded());
    if (!sharded() && config_.optimizeAuxMemory && ctx_->executing()) {
        RealArray4* l[3] = {&shared_recon_l_[0], &shared_recon_l_[1],
                            &shared_recon_l_[2]};
        RealArray4* r[3] = {&shared_recon_r_[0], &shared_recon_r_[1],
                            &shared_recon_r_[2]};
        block->lendRecon(l, r);
    }
    return block;
}

void
Mesh::realizeBlock(MeshBlock& block)
{
    if (!sharded() || block.rank() != shard_rank_ ||
        block.mode() != DataMode::Shadow)
        return;
    block.materialize(*ctx_, pool_.get());
    if (config_.optimizeAuxMemory && ctx_->executing()) {
        RealArray4* l[3] = {&shared_recon_l_[0], &shared_recon_l_[1],
                            &shared_recon_l_[2]};
        RealArray4* r[3] = {&shared_recon_r_[0], &shared_recon_r_[1],
                            &shared_recon_r_[2]};
        block.lendRecon(l, r);
    }
}

std::vector<MeshBlock*>
Mesh::ownedBlocks(int rank) const
{
    std::vector<MeshBlock*> owned;
    for (const auto& block : blocks_)
        if (block->rank() == rank)
            owned.push_back(block.get());
    return owned;
}

int
Mesh::ownerOf(const LogicalLocation& loc) const
{
    auto it = loc_to_gid_.find(loc);
    return it == loc_to_gid_.end() ? -1 : blocks_[it->second]->rank();
}

void
Mesh::refreshOwnership()
{
    owned_blocks_.clear();
    for (const auto& block : blocks_)
        if (!sharded() || block->rank() == shard_rank_)
            owned_blocks_.push_back(block.get());
}

MeshBlock*
Mesh::find(const LogicalLocation& loc)
{
    auto it = loc_to_gid_.find(loc);
    return it == loc_to_gid_.end() ? nullptr : blocks_[it->second].get();
}

BlockGeometry
Mesh::geometryFor(const LogicalLocation& loc) const
{
    const double extent = config_.x1max - config_.x1min;
    BlockGeometry geom;
    const std::int64_t n1 = config_.nbx1() << loc.level;
    const double w1 = extent / static_cast<double>(n1);
    geom.x1min = config_.x1min + w1 * static_cast<double>(loc.lx1);
    geom.x1max = geom.x1min + w1;
    geom.dx1 = w1 / config_.blockNx1;
    if (config_.ndim >= 2) {
        const std::int64_t n2 = config_.nbx2() << loc.level;
        const double w2 = extent / static_cast<double>(n2);
        geom.x2min = config_.x1min + w2 * static_cast<double>(loc.lx2);
        geom.x2max = geom.x2min + w2;
        geom.dx2 = w2 / config_.blockNx2;
    }
    if (config_.ndim >= 3) {
        const std::int64_t n3 = config_.nbx3() << loc.level;
        const double w3 = extent / static_cast<double>(n3);
        geom.x3min = config_.x1min + w3 * static_cast<double>(loc.lx3);
        geom.x3max = geom.x3min + w3;
        geom.dx3 = w3 / config_.blockNx3;
    }
    return geom;
}

std::int64_t
Mesh::totalInteriorCells() const
{
    return static_cast<std::int64_t>(blocks_.size()) *
           config_.blockShape().interiorCells();
}

BlockTree::UpdateResult
Mesh::updateTree(const RefinementFlagMap& flags)
{
    // Serial cost of aggregating flags and manipulating the tree
    // (§II-E second task): one item per leaf plus one per change.
    recordSerial(*ctx_, "tree_update_flags",
                 static_cast<double>(blocks_.size()));
    auto result = tree_.update(flags);
    recordSerial(*ctx_, "tree_update_changes",
                 static_cast<double>(result.refined.size() +
                                     result.derefined.size()));
    return result;
}

Mesh::Restructure
Mesh::applyTreeUpdate(const BlockTree::UpdateResult& update,
                      std::int64_t current_cycle)
{
    Restructure restructure;

    for (const auto& parent_loc : update.refined) {
        auto it = loc_to_gid_.find(parent_loc);
        require(it != loc_to_gid_.end(),
                "refined parent has no block: ", parent_loc.str());
        Restructure::Refined entry;
        entry.parent = std::move(blocks_[it->second]);
        // Children exist in the tree already; create their blocks.
        const int o2max = config_.ndim >= 2 ? 1 : 0;
        const int o3max = config_.ndim >= 3 ? 1 : 0;
        const int nchildren = 2 * (o2max + 1) * (o3max + 1);
        for (int o3 = 0; o3 <= o3max; ++o3)
            for (int o2 = 0; o2 <= o2max; ++o2)
                for (int o1 = 0; o1 <= 1; ++o1) {
                    auto child = makeBlock(parent_loc.child(o1, o2, o3));
                    child->setRank(entry.parent->rank());
                    // Split the parent's (possibly measured) cost
                    // evenly so the estimate survives remesh instead
                    // of resetting to the uniform default.
                    child->setCost(entry.parent->cost() / nchildren);
                    child->setCreatedCycle(current_cycle);
                    realizeBlock(*child);
                    entry.children.push_back(child.get());
                    blocks_.push_back(std::move(child));
                }
        restructure.refined.push_back(std::move(entry));
    }

    for (const auto& parent_loc : update.derefined) {
        Restructure::Derefined entry;
        const int o2max = config_.ndim >= 2 ? 1 : 0;
        const int o3max = config_.ndim >= 3 ? 1 : 0;
        for (int o3 = 0; o3 <= o3max; ++o3)
            for (int o2 = 0; o2 <= o2max; ++o2)
                for (int o1 = 0; o1 <= 1; ++o1) {
                    const LogicalLocation kid =
                        parent_loc.child(o1, o2, o3);
                    auto it = loc_to_gid_.find(kid);
                    require(it != loc_to_gid_.end(),
                            "derefined child has no block: ", kid.str());
                    entry.children.push_back(
                        std::move(blocks_[it->second]));
                }
        auto parent = makeBlock(parent_loc);
        parent->setRank(entry.children.front()->rank());
        // The merged block does all its children's work: sum their
        // cost estimates rather than restarting from the default.
        double children_cost = 0;
        for (const auto& child : entry.children)
            children_cost += child->cost();
        parent->setCost(children_cost);
        parent->setCreatedCycle(current_cycle);
        realizeBlock(*parent);
        entry.parent = parent.get();
        blocks_.push_back(std::move(parent));
        restructure.derefined.push_back(std::move(entry));
    }

    // Drop retired slots (moved-from unique_ptrs) and renumber.
    blocks_.erase(std::remove_if(blocks_.begin(), blocks_.end(),
                                 [](const std::unique_ptr<MeshBlock>& b) {
                                     return b == nullptr;
                                 }),
                  blocks_.end());
    renumber();
    rebuildNeighbors();
    return restructure;
}

void
Mesh::renumber()
{
    const auto order = tree_.leavesZOrder();
    require(order.size() == blocks_.size(),
            "mesh block list out of sync with tree: ", blocks_.size(),
            " blocks vs ", order.size(), " leaves");
    std::unordered_map<LogicalLocation, int, LogicalLocationHash> rank_of;
    rank_of.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        rank_of.emplace(order[i], static_cast<int>(i));
    std::sort(blocks_.begin(), blocks_.end(),
              [&](const std::unique_ptr<MeshBlock>& a,
                  const std::unique_ptr<MeshBlock>& b) {
                  return rank_of.at(a->loc()) < rank_of.at(b->loc());
              });
    loc_to_gid_.clear();
    loc_to_gid_.reserve(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        blocks_[i]->setGid(static_cast<int>(i));
        loc_to_gid_.emplace(blocks_[i]->loc(), static_cast<int>(i));
    }
    refreshOwnership();
    recordSerial(*ctx_, "block_list_rebuild",
                 static_cast<double>(blocks_.size()));
}

void
Mesh::rebuildNeighbors()
{
    neighbor_lists_.assign(blocks_.size(), {});
    std::size_t links = 0;
    for (std::size_t gid = 0; gid < blocks_.size(); ++gid) {
        const auto tree_neighbors = tree_.neighbors(blocks_[gid]->loc());
        auto& list = neighbor_lists_[gid];
        list.reserve(tree_neighbors.size());
        for (const auto& info : tree_neighbors) {
            auto it = loc_to_gid_.find(info.loc);
            require(it != loc_to_gid_.end(),
                    "neighbor leaf has no block: ", info.loc.str());
            list.push_back({blocks_[it->second].get(), info.ox1, info.ox2,
                            info.ox3,
                            info.loc.level - blocks_[gid]->loc().level});
        }
        links += list.size();
    }
    // SetMeshBlockNeighbors serial cost: one item per link.
    recordSerial(*ctx_, "neighbor_search", static_cast<double>(links));
}

std::size_t
Mesh::totalNeighborLinks() const
{
    std::size_t links = 0;
    for (const auto& list : neighbor_lists_)
        links += list.size();
    return links;
}

} // namespace vibe
