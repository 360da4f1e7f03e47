/**
 * @file block_pack.hpp
 * MeshBlockPack: stable per-block view tables for fused kernels.
 *
 * Parthenon batches all MeshBlocks of a mesh into packs so one kernel
 * launch iterates a (block, k, j, i) domain instead of launching once
 * per block (Grete et al. 2022) — the fix for the per-block launch
 * overhead that dominates the paper's small-block regime (fig05). The
 * pack caches, per block, pointers to every hot-path array plus the
 * metadata fused kernels need (cell widths, level, rank, interior
 * bounds via the shared BlockShape), and is rebuilt only when the
 * mesh restructures: the driver invalidates it from the boundary-
 * buffer-cache rebuild hook (the same event that already marks every
 * other per-mesh cache stale) and rebuilds lazily before the next
 * fused launch.
 *
 * Array pointers stay valid between rebuilds because the arrays live
 * inside MeshBlocks, which are stable on the heap; block *order* (and
 * rank assignment) is what changes on remesh/load-balance, which is
 * exactly what the rebuild refreshes.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/mesh.hpp"
#include "util/logging.hpp"

namespace vibe {

/** Per-block entry of the pack's device-view table. */
struct BlockPackView
{
    RealArray4* cons = nullptr;
    RealArray4* cons0 = nullptr;
    RealArray4* dudt = nullptr;
    RealArray4* derived = nullptr;
    RealArray4* flux[3] = {nullptr, nullptr, nullptr};
    double dx1 = 1, dx2 = 1, dx3 = 1;
    /** 1/dx per dim, precomputed at rebuild exactly as the per-block
     *  divergence kernel computes it (bit-identical divides). */
    double invDx1 = 1, invDx2 = 1, invDx3 = 1;
    double cellVolume = 1;
    int level = 0;
    int rank = 0;
    int gid = -1;
};

/** Packed view of every block in a Mesh, rebuilt on restructure. */
class MeshBlockPack
{
  public:
    MeshBlockPack() = default;

    /**
     * Refresh the view tables from the mesh's current block list
     * (Z-order, matching gids). Counted as serial work
     * ("pack_rebuild", one item per block) like the other
     * restructure-time rebuilds.
     */
    void rebuild(Mesh& mesh);

    /** Mark stale; the next ensureBuilt() call rebuilds. */
    void invalidate() { valid_ = false; }
    bool valid() const { return valid_; }

    /** Rebuild if invalidated (or never built). */
    void ensureBuilt(Mesh& mesh)
    {
        if (!valid_)
            rebuild(mesh);
    }

    /** Rebuilds performed (for rebuild-only-on-remesh tests). */
    std::uint64_t rebuildCount() const { return rebuild_count_; }

    int numBlocks() const { return static_cast<int>(views_.size()); }
    const BlockShape& shape() const { return shape_; }

    // Accessors panic on a stale pack: after a restructure destroys
    // blocks the cached pointers dangle until the next rebuild, so a
    // read through an invalidated pack must fail loudly rather than
    // dereference freed memory.
    BlockPackView& view(int b)
    {
        require(valid_, "MeshBlockPack: view() on an invalidated pack");
        return views_[b];
    }
    const BlockPackView& view(int b) const
    {
        require(valid_, "MeshBlockPack: view() on an invalidated pack");
        return views_[b];
    }

    /** Per-block owning ranks in pack order (profiler attribution). */
    const int* ranks() const
    {
        require(valid_, "MeshBlockPack: ranks() on an invalidated pack");
        return ranks_.data();
    }

    MeshBlock& meshBlock(int b)
    {
        require(valid_,
                "MeshBlockPack: meshBlock() on an invalidated pack");
        return *blocks_[b];
    }

  private:
    bool valid_ = false;
    BlockShape shape_;
    std::vector<MeshBlock*> blocks_;
    std::vector<BlockPackView> views_;
    std::vector<int> ranks_;
    std::uint64_t rebuild_count_ = 0;
};

} // namespace vibe
