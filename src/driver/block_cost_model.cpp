#include "driver/block_cost_model.hpp"

#include <cstdlib>

#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "util/logging.hpp"

namespace vibe {

LbCostMode
lbCostModeFromName(const std::string& name)
{
    if (name == "uniform")
        return LbCostMode::Uniform;
    if (name == "measured")
        return LbCostMode::Measured;
    fatal("unknown lb_cost mode '", name,
          "' (expected 'uniform' or 'measured')");
}

const char*
lbCostModeName(LbCostMode mode)
{
    return mode == LbCostMode::Measured ? "measured" : "uniform";
}

LbCostMode
envLbCostMode(LbCostMode fallback)
{
    const char* value = std::getenv("VIBE_LB_COST");
    if (!value || !*value)
        return fallback;
    return lbCostModeFromName(value);
}

void
BlockCostModel::applyMeasuredCosts(Mesh& mesh, RankWorld& world)
{
    double shard_seconds = 0;
    for (const auto& [gid, seconds] : samples_)
        shard_seconds += seconds;

    // Every replica enters the reduce even with an empty shard — the
    // collective is the synchronization point that makes the global
    // mean identical everywhere.
    const double total_seconds = world.allReduceValue(
        mesh.collectiveRank(), shard_seconds, CollOp::Sum,
        sizeof(double));
    if (!(total_seconds > 0) || mesh.numBlocks() == 0)
        return; // Counting mode: task bodies were skipped, keep costs.

    const double mean_seconds =
        total_seconds / static_cast<double>(mesh.numBlocks());
    for (MeshBlock* block : mesh.ownedBlocks()) {
        auto it = samples_.find(block->gid());
        if (it == samples_.end())
            continue; // Created mid-cycle; keep its inherited cost.
        const double target =
            it->second / mean_seconds *
            static_cast<double>(block->shape().interiorCells());
        block->setCost((1.0 - kAlpha) * block->cost() + kAlpha * target);
    }
}

namespace detail {

int
taskNameGid(const std::string& name)
{
    const std::size_t pos = name.rfind(':');
    if (pos == std::string::npos || pos + 1 >= name.size())
        return -1;
    int gid = 0;
    for (std::size_t i = pos + 1; i < name.size(); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9')
            return -1;
        gid = gid * 10 + (c - '0');
    }
    return gid;
}

} // namespace detail

} // namespace vibe
