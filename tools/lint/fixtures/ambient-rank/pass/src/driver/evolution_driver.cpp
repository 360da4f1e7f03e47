// Fixture: remesh code outside the rule's scope runs at serial points
// and may still set the ambient rank.
void applyRestructureData(const ExecContext& ctx, MeshBlock& child)
{
    ctx.setCurrentRank(child.rank());
    prolongateParentToChild(ctx, child);
}
