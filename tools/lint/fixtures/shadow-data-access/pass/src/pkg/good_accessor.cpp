// Fixture: indexed accessor use in a package — the audited accessor
// path, not a cached raw pointer. Must be clean.
void advance(MeshBlock& block)
{
    block.cons()(0, 0, 0, 0) += block.cons0()(0, 0, 0, 0);
}
