// Fixture: the tagger's sweep is in scope too. Must trip ambient-rank.
void tagAll(Mesh& mesh, const ExecContext& ctx)
{
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank (block->rank());
        recordSerial(ctx, "refine_check", 1.0);
    }
}
