// Fixture: require() calls whose message arguments build strings on
// every call, also when the check passes. Must trip eager-require on
// both the one-line and the multi-line call.
void Mesh::rebuildNeighbors()
{
    for (const auto& info : tree_neighbors) {
        auto it = loc_to_gid_.find(info.loc);
        require(it != loc_to_gid_.end(), "neighbor leaf has no block: ",
                info.loc.str());
        require(list.size() < 64, "too many neighbors of ",
                block->loc().str(), " (limit 64)");
    }
}
