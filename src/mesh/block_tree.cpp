#include "mesh/block_tree.hpp"

#include <algorithm>
#include <tuple>

#include "util/logging.hpp"

namespace vibe {

BlockTree::BlockTree(const TreeConfig& config) : config_(config)
{
    require(config_.ndim >= 1 && config_.ndim <= 3,
            "BlockTree ndim must be 1, 2 or 3");
    require(config_.nbx1 >= 1, "base grid must have at least one block");
    require(config_.ndim >= 2 || config_.nbx2 == 1,
            "nbx2 must be 1 in 1-D");
    require(config_.ndim >= 3 || config_.nbx3 == 1,
            "nbx3 must be 1 below 3-D");
    require(config_.maxLevel >= 0, "maxLevel must be non-negative");

    for (std::int64_t k = 0; k < config_.nbx3; ++k)
        for (std::int64_t j = 0; j < config_.nbx2; ++j)
            for (std::int64_t i = 0; i < config_.nbx1; ++i)
                nodes_.emplace(LogicalLocation{0, i, j, k}, Node::Leaf);
    leaf_count_ = nodes_.size();
}

int
BlockTree::maxPresentLevel() const
{
    int max_level = 0;
    for (const auto& [loc, node] : nodes_)
        if (node == Node::Leaf)
            max_level = std::max(max_level, loc.level);
    return max_level;
}

bool
BlockTree::isLeaf(const LogicalLocation& loc) const
{
    auto it = nodes_.find(loc);
    return it != nodes_.end() && it->second == Node::Leaf;
}

bool
BlockTree::exists(const LogicalLocation& loc) const
{
    return nodes_.count(loc) != 0;
}

std::vector<LogicalLocation>
BlockTree::leavesZOrder() const
{
    // Sort by (Morton key, level), each key computed once per leaf.
    const int ref = std::max(referenceLevel(), maxPresentLevel());
    std::vector<std::tuple<std::uint64_t, int, LogicalLocation>> keyed;
    keyed.reserve(leaf_count_);
    for (const auto& [loc, node] : nodes_)
        if (node == Node::Leaf)
            keyed.emplace_back(loc.mortonKey(ref), loc.level, loc);
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) {
                  return std::tie(std::get<0>(a), std::get<1>(a)) <
                         std::tie(std::get<0>(b), std::get<1>(b));
              });
    std::vector<LogicalLocation> leaves;
    leaves.reserve(keyed.size());
    for (const auto& entry : keyed)
        leaves.push_back(std::get<2>(entry));
    return leaves;
}

void
BlockTree::forEachLeaf(
    const std::function<void(const LogicalLocation&)>& fn) const
{
    for (const auto& [loc, node] : nodes_)
        if (node == Node::Leaf)
            fn(loc);
}

std::int64_t
BlockTree::extentAtLevel(int d, int level) const
{
    const std::int64_t base = d == 1   ? config_.nbx1
                              : d == 2 ? config_.nbx2
                                       : config_.nbx3;
    return base << level;
}

std::optional<LogicalLocation>
BlockTree::displace(const LogicalLocation& loc, int ox1, int ox2,
                    int ox3) const
{
    LogicalLocation out = loc;
    const int ox[3] = {ox1, ox2, ox3};
    std::int64_t* lx[3] = {&out.lx1, &out.lx2, &out.lx3};
    const bool periodic[3] = {config_.periodic1, config_.periodic2,
                              config_.periodic3};
    for (int d = 0; d < 3; ++d) {
        std::int64_t v = *lx[d] + ox[d];
        const std::int64_t n = extentAtLevel(d + 1, loc.level);
        if (v < 0 || v >= n) {
            if (!periodic[d] || d >= config_.ndim)
                return std::nullopt;
            if (n == 1)
                return std::nullopt; // degenerate self-wrap
            v = (v % n + n) % n;
        }
        *lx[d] = v;
    }
    return out;
}

std::vector<LogicalLocation>
BlockTree::children(const LogicalLocation& loc) const
{
    std::vector<LogicalLocation> kids;
    const int o1max = 1;
    const int o2max = config_.ndim >= 2 ? 1 : 0;
    const int o3max = config_.ndim >= 3 ? 1 : 0;
    for (int o3 = 0; o3 <= o3max; ++o3)
        for (int o2 = 0; o2 <= o2max; ++o2)
            for (int o1 = 0; o1 <= o1max; ++o1)
                kids.push_back(loc.child(o1, o2, o3));
    return kids;
}

template <typename Fn>
void
BlockTree::forEachTouchingChild(const LogicalLocation& neighbor_region,
                                int ox1, int ox2, int ox3, Fn&& fn) const
{
    // The querying block sits in direction (-ox1,-ox2,-ox3) from the
    // neighbor region; a child touches the shared boundary if, in each
    // dimension we moved through, it lies on the facing side: the near
    // half (octant bit 0) when the neighbor is to our + side, the far
    // half (bit 1) when it is to our - side.
    const int ox[3] = {ox1, ox2, ox3};
    int lo[3], hi[3];
    for (int d = 0; d < 3; ++d) {
        const int top = d < config_.ndim ? 1 : 0;
        lo[d] = ox[d] == -1 ? top : 0;
        hi[d] = ox[d] == 1 ? 0 : top;
    }
    for (int c3 = lo[2]; c3 <= hi[2]; ++c3)
        for (int c2 = lo[1]; c2 <= hi[1]; ++c2)
            for (int c1 = lo[0]; c1 <= hi[0]; ++c1)
                fn(neighbor_region.child(c1, c2, c3));
}

template <typename Fn>
void
BlockTree::forEachDirection(Fn&& fn) const
{
    const int r2 = config_.ndim >= 2 ? 1 : 0;
    const int r3 = config_.ndim >= 3 ? 1 : 0;
    for (int o3 = -r3; o3 <= r3; ++o3)
        for (int o2 = -r2; o2 <= r2; ++o2)
            for (int o1 = -1; o1 <= 1; ++o1)
                if (o1 != 0 || o2 != 0 || o3 != 0)
                    fn(o1, o2, o3);
}

std::vector<BlockTree::NeighborInfo>
BlockTree::neighbors(const LogicalLocation& loc) const
{
    if (!isLeaf(loc))
        panic("neighbors() requires a leaf, got ", loc.str());
    std::vector<NeighborInfo> out;
    forEachDirection([&](int o1, int o2, int o3) {
        auto target = displace(loc, o1, o2, o3);
        if (!target)
            return;
        auto it = nodes_.find(*target);
        if (it != nodes_.end()) {
            if (it->second == Node::Leaf) {
                out.push_back({*target, o1, o2, o3});
            } else {
                // Finer neighbors: 2:1 guarantees the children touching
                // our shared boundary are leaves.
                forEachTouchingChild(
                    *target, o1, o2, o3, [&](const LogicalLocation& kid) {
                        if (!isLeaf(kid))
                            panic("2:1 violation: expected leaf child at ",
                                  kid.str());
                        out.push_back({kid, o1, o2, o3});
                    });
            }
            return;
        }
        // Coarser neighbor: the parent region must be a leaf (2:1 rule
        // forbids anything coarser than one level up).
        if (target->level > 0) {
            const LogicalLocation up = target->parent();
            if (isLeaf(up)) {
                out.push_back({up, o1, o2, o3});
                return;
            }
        }
        panic("no covering leaf for neighbor region ", target->str(),
              " of ", loc.str());
    });
    return out;
}

std::optional<LogicalLocation>
BlockTree::coveringLeaf(const LogicalLocation& target) const
{
    if (!validIndex(target))
        return std::nullopt;
    LogicalLocation probe = target;
    while (true) {
        if (isLeaf(probe))
            return probe;
        if (probe.level == 0)
            break;
        probe = probe.parent();
    }
    // target names a coarser region than the local leaves; descend is
    // ambiguous, so report the first-leaf-on-path failure.
    return std::nullopt;
}

bool
BlockTree::validIndex(const LogicalLocation& loc) const
{
    if (loc.level < 0)
        return false;
    return loc.lx1 >= 0 && loc.lx1 < extentAtLevel(1, loc.level) &&
           loc.lx2 >= 0 && loc.lx2 < extentAtLevel(2, loc.level) &&
           loc.lx3 >= 0 && loc.lx3 < extentAtLevel(3, loc.level);
}

void
BlockTree::refine(const LogicalLocation& loc,
                  std::vector<LogicalLocation>* newly_refined)
{
    if (!isLeaf(loc) || loc.level >= config_.maxLevel)
        return;
    // 2:1 pre-balance: every neighbor region of `loc` must exist at
    // loc.level (as leaf or internal) before we split; a coarser leaf
    // covering it must be refined first.
    forEachDirection([&](int o1, int o2, int o3) {
        auto target = displace(loc, o1, o2, o3);
        if (!target || nodes_.count(*target))
            return;
        if (target->level > 0) {
            const LogicalLocation up = target->parent();
            if (isLeaf(up))
                refine(up, newly_refined);
        }
    });
    auto it = nodes_.find(loc);
    if (it == nodes_.end() || it->second != Node::Leaf)
        panic("refine: leaf vanished during balancing at ", loc.str());
    it->second = Node::Internal;
    --leaf_count_;
    for (const auto& kid : children(loc)) {
        nodes_.emplace(kid, Node::Leaf);
        ++leaf_count_;
    }
    if (newly_refined)
        newly_refined->push_back(loc);
}

bool
BlockTree::derefine(const LogicalLocation& parent)
{
    auto pit = nodes_.find(parent);
    if (pit == nodes_.end() || pit->second != Node::Internal)
        return false;
    const auto kids = children(parent);
    for (const auto& kid : kids)
        if (!isLeaf(kid))
            return false;
    // 2:1 post-balance: after merging, `parent` (level L) must not touch
    // any leaf deeper than L+1. A deeper leaf exists exactly when some
    // neighbor region at level L has an internal child touching us.
    bool blocked = false;
    forEachDirection([&](int o1, int o2, int o3) {
        if (blocked)
            return;
        auto target = displace(parent, o1, o2, o3);
        if (!target)
            return;
        auto it = nodes_.find(*target);
        if (it == nodes_.end() || it->second == Node::Leaf)
            return;
        forEachTouchingChild(
            *target, o1, o2, o3, [&](const LogicalLocation& kid) {
                auto kit = nodes_.find(kid);
                if (kit != nodes_.end() && kit->second == Node::Internal)
                    blocked = true;
            });
    });
    if (blocked)
        return false;
    for (const auto& kid : kids) {
        nodes_.erase(kid);
        --leaf_count_;
    }
    pit->second = Node::Leaf;
    ++leaf_count_;
    return true;
}

BlockTree::UpdateResult
BlockTree::update(const RefinementFlagMap& flags)
{
    UpdateResult result;

    // Pass 1: refinement (with 2:1 propagation). Deterministic order —
    // process flagged leaves in Z-order so propagation is reproducible.
    std::vector<LogicalLocation> to_refine;
    for (const auto& [loc, flag] : flags)
        if (flag == RefinementFlag::Refine && isLeaf(loc) &&
            loc.level < config_.maxLevel)
            to_refine.push_back(loc);
    const int ref = std::max(referenceLevel(), maxPresentLevel() + 1);
    std::sort(to_refine.begin(), to_refine.end(),
              [ref](const LogicalLocation& a, const LogicalLocation& b) {
                  if (a.level != b.level)
                      return a.level < b.level;
                  return a.mortonKey(ref) < b.mortonKey(ref);
              });
    for (const auto& loc : to_refine)
        refine(loc, &result.refined);

    // Pass 2: derefinement. A sibling set merges only when every child
    // is a leaf flagged Derefine (and none was just created by pass 1).
    std::vector<LogicalLocation> parents;
    for (const auto& [loc, flag] : flags) {
        if (flag != RefinementFlag::Derefine || loc.level == 0)
            continue;
        if (!isLeaf(loc))
            continue; // was refined away or never existed
        if (loc.childIndexInParent() != 0)
            continue; // visit each sibling set once, via child 0
        parents.push_back(loc.parent());
    }
    std::sort(parents.begin(), parents.end(),
              [ref](const LogicalLocation& a, const LogicalLocation& b) {
                  if (a.level != b.level)
                      return a.level > b.level; // deepest first
                  return a.mortonKey(ref) < b.mortonKey(ref);
              });
    for (const auto& parent : parents) {
        bool all_flagged = true;
        for (const auto& kid : children(parent)) {
            auto it = flags.find(kid);
            if (it == flags.end() ||
                it->second != RefinementFlag::Derefine || !isLeaf(kid)) {
                all_flagged = false;
                break;
            }
        }
        if (all_flagged && derefine(parent))
            result.derefined.push_back(parent);
    }
    return result;
}

bool
BlockTree::checkBalance() const
{
    bool ok = true;
    std::size_t leaves_seen = 0;
    for (const auto& [loc, node] : nodes_) {
        if (node != Node::Leaf)
            continue;
        ++leaves_seen;
        // Exact covering: no ancestor of a leaf may itself be a leaf.
        LogicalLocation up = loc;
        while (up.level > 0) {
            up = up.parent();
            auto it = nodes_.find(up);
            if (it != nodes_.end() && it->second == Node::Leaf)
                ok = false;
        }
        // 2:1: every neighbor region resolves to a leaf within 1 level:
        // a coarser region's parent is a leaf, and no leaf touches a
        // region refined 2+ levels deeper.
        forEachDirection([&](int o1, int o2, int o3) {
            auto target = displace(loc, o1, o2, o3);
            if (!target)
                return;
            auto it = nodes_.find(*target);
            if (it == nodes_.end()) {
                if (target->level == 0 || !isLeaf(target->parent()))
                    ok = false;
                return;
            }
            if (it->second == Node::Leaf)
                return;
            forEachTouchingChild(
                *target, o1, o2, o3, [&](const LogicalLocation& kid) {
                    auto kit = nodes_.find(kid);
                    if (kit == nodes_.end() || kit->second != Node::Leaf)
                        ok = false;
                });
        });
    }
    return ok && leaves_seen == leaf_count_;
}

int
BlockTree::logicalLevelOffset() const
{
    const std::int64_t max_extent =
        std::max({config_.nbx1, config_.nbx2, config_.nbx3});
    int offset = 0;
    while ((std::int64_t{1} << offset) < max_extent)
        ++offset;
    return offset;
}

} // namespace vibe
