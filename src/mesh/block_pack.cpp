#include "mesh/block_pack.hpp"

#include "exec/par_for.hpp"

namespace vibe {

void
MeshBlockPack::rebuild(Mesh& mesh)
{
    // Pack only the blocks this replica steps: every block on the
    // classic mesh, the owned shard on a rank-sharded replica (Shadow
    // blocks have no arrays to view).
    const std::size_t nb = mesh.ownedBlocks().size();
    shape_ = mesh.config().blockShape();
    blocks_.clear();
    views_.clear();
    ranks_.clear();
    blocks_.reserve(nb);
    views_.reserve(nb);
    ranks_.reserve(nb);

    for (MeshBlock* block : mesh.ownedBlocks()) {
        BlockPackView view;
        view.cons = &block->cons();
        view.cons0 = &block->cons0();
        view.dudt = &block->dudt();
        view.derived = &block->derived();
        for (int d = 0; d < 3; ++d)
            view.flux[d] = &block->flux(d);
        const BlockGeometry& geom = block->geom();
        view.dx1 = geom.dx1;
        view.dx2 = geom.dx2;
        view.dx3 = geom.dx3;
        view.invDx1 = 1.0 / geom.dx1;
        view.invDx2 = 1.0 / geom.dx2;
        view.invDx3 = 1.0 / geom.dx3;
        view.cellVolume = geom.cellVolume();
        view.level = block->loc().level;
        view.rank = block->rank();
        view.gid = block->gid();
        blocks_.push_back(block);
        views_.push_back(view);
        ranks_.push_back(block->rank());
    }

    recordSerial(mesh.ctx(), "pack_rebuild", static_cast<double>(nb));
    ++rebuild_count_;
    valid_ = true;
}

} // namespace vibe
