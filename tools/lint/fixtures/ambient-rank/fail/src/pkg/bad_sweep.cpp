// Fixture: a package sweep that sets the context's ambient rank per
// block — a race once the body runs on a pool worker. Must trip
// ambient-rank.
void fillDerived(Mesh& mesh, const ExecContext& ctx)
{
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        parFor(ctx, "CalculateDerived", costs, 0, n, body);
    }
}
