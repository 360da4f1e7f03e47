// Fixture: an audited exception. A once-per-run check may keep an
// eager message behind a justified pragma. Must be clean.
void Mesh::validateOnce()
{
    // vibe-lint: allow(eager-require) runs once at construction, far
    // from any per-block path; the message names the bad location.
    require(tree_.checkBalance(), "unbalanced tree at ",
            root.str());
}
