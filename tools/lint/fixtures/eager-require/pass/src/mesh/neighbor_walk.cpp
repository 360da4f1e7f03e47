// Fixture: messages are built only on failure. `if (!cond) panic(...)`
// may format freely; require() keeps cheap arguments; a string literal
// that mentions .str() or holds a stray paren is not code; requireInt
// is a different function. Must be clean.
void Mesh::rebuildNeighbors()
{
    for (const auto& info : tree_neighbors) {
        auto it = loc_to_gid_.find(info.loc);
        if (it == loc_to_gid_.end())
            panic("neighbor leaf has no block: ", info.loc.str());
        require(links < limit, "too many links: ", links, " of ", limit);
        require(ok, "call loc.str() only on failure (see panic) ",
                count);
        // require(ok, loc.str()) in a comment is not a call.
    }
    const int n = pin.requireInt("mesh", key.str());
}
