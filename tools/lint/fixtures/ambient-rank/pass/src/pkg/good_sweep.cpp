// Fixture: a package sweep through the block launcher, attributing
// every record to the block's own rank — the sanctioned form.
// (A comment naming setCurrentRank(rank) is not code.)
void fillDerived(Mesh& mesh, const ExecContext& ctx)
{
    parForBlocks(ctx, mesh.ownedBlocks(), [&](int, MeshBlock& block) {
        recordSerialAt(ctx, "FillDerived", block.rank(), "string_lookup",
                       1.0);
        parForAt(ctx, "FillDerived", block.rank(), "CalculateDerived",
                 costs, 0, n, 0, n, 0, n, body);
    });
}
