/**
 * @file mesh_block.hpp
 * MeshBlock: a regular array of cells representing a subvolume of the
 * computational domain, the fundamental granularity of refinement
 * (paper §II-F).
 *
 * Every block carries `num_ghost` ghost-cell layers per active dimension
 * (4 for WENO5), packed conserved variables, a step-start copy for RK2
 * and derived fields. Face fluxes are stored on the block only while it
 * takes part in flux correction (it has a face neighbor on another
 * level); every other block's fluxes live in per-worker scratch for the
 * span of one stage task. The stage's flux divergence is fused into the
 * RK update row by row, so no block holds a dudt array either. The
 * dudt, flux and full-block face-reconstruction bytes the paper's
 * Kokkos footprint counts (§VIII-B) stay registered model terms with no
 * storage behind them.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.hpp"
#include "mesh/block_tree.hpp"
#include "mesh/logical_location.hpp"
#include "mesh/ownership_audit.hpp"
#include "mesh/variable.hpp"
#include "util/array4.hpp"

namespace vibe {

class BlockMemoryPool;

/**
 * Whether block data is materialized, only accounted (counting mode),
 * or absent entirely (a rank-sharded replica's view of a block owned
 * by another rank: structure and metadata are replicated, storage is
 * not — any attempt to read its arrays is a bug, which is what makes
 * direct cross-rank memory access structurally impossible).
 */
enum class DataMode { Real, Virtual, Shadow };

/**
 * The face fluxes of one block's stage, one staggered array per
 * direction: flux[0] has ni + 1 faces per row, flux[1] nj + 1 rows,
 * flux[2] nk + 1 planes. Either a flux-correction participant's own
 * arrays (MeshBlock::fluxes) or a worker's scratch.
 */
using FaceFluxes = std::array<RealArray4, 3>;

/** Physical extent and cell widths of one block. */
struct BlockGeometry
{
    double x1min = 0, x1max = 1;
    double x2min = 0, x2max = 1;
    double x3min = 0, x3max = 1;
    double dx1 = 1, dx2 = 1, dx3 = 1;

    /** Cell-center coordinate of interior cell index `i` (0-based). */
    double x1c(int i) const { return x1min + (i + 0.5) * dx1; }
    double x2c(int j) const { return x2min + (j + 0.5) * dx2; }
    double x3c(int k) const { return x3min + (k + 0.5) * dx3; }

    double cellVolume() const { return dx1 * dx2 * dx3; }
};

/** Interior/ghost cell-count description shared by all blocks of a mesh. */
struct BlockShape
{
    int ndim = 3;
    int nx1 = 16, nx2 = 16, nx3 = 16; ///< Interior cells per dimension.
    int ng = 4;                       ///< Ghost layers per active dim.

    int ni() const { return nx1 + 2 * ng; }
    int nj() const { return ndim >= 2 ? nx2 + 2 * ng : 1; }
    int nk() const { return ndim >= 3 ? nx3 + 2 * ng : 1; }

    int is() const { return ng; }
    int ie() const { return ng + nx1 - 1; }
    int js() const { return ndim >= 2 ? ng : 0; }
    int je() const { return ndim >= 2 ? ng + nx2 - 1 : 0; }
    int ks() const { return ndim >= 3 ? ng : 0; }
    int ke() const { return ndim >= 3 ? ng + nx3 - 1 : 0; }

    /** Interior cells (the "zones" of the figure of merit). */
    std::int64_t interiorCells() const
    {
        return std::int64_t{nx1} * (ndim >= 2 ? nx2 : 1) *
               (ndim >= 3 ? nx3 : 1);
    }
    /** Cells including ghosts. */
    std::int64_t totalCells() const
    {
        return std::int64_t{ni()} * nj() * nk();
    }
};

/**
 * The calling thread's face-flux scratch for one block of `shape` with
 * `ncomp` conserved components: a block that takes no part in flux
 * correction computes its stage fluxes here and consumes them in the
 * same task. Reallocated only when the shape or component count
 * changes, so a worker allocates it once per mesh.
 */
FaceFluxes& workerFaceFluxes(const BlockShape& shape, int ncomp);

/**
 * One mesh block: structure, ownership and (optionally) data.
 *
 * Blocks are created by the Mesh; user code receives references. In
 * DataMode::Virtual no arrays are materialized, but every allocation is
 * registered with the MemoryTracker so footprints match numeric runs.
 */
class MeshBlock
{
  public:
    /**
     * @param loc       Position in the refinement forest.
     * @param shape     Cell counts (shared by all blocks).
     * @param geom      Physical extents of this block.
     * @param registry  Variable declarations (outlives the block).
     * @param ctx       Execution context (mode + memory tracker).
     * @param per_block_recon Register the per-block reconstruction
     *                  scratch model term "mesh/recon" (the pre-§VIII-B
     *                  layout); if false the Mesh registers the shared
     *                  "mesh/recon_pool" term instead. Bytes only:
     *                  neither term allocates storage.
     * @param pool      Optional storage pool: array backing stores are
     *                  drawn from it and returned on destruction, and
     *                  buffers whose every cell is written before it
     *                  is read (fluxes) skip the zero-init pass
     *                  entirely. Must outlive the block.
     */
    /**
     * @param shadow Create without storage or tracker registration (a
     *               rank-sharded replica's non-owned block); the block
     *               can be materialize()d later when ownership arrives.
     */
    MeshBlock(const LogicalLocation& loc, const BlockShape& shape,
              const BlockGeometry& geom, const VariableRegistry& registry,
              const ExecContext& ctx, bool per_block_recon,
              BlockMemoryPool* pool = nullptr, bool shadow = false);
    ~MeshBlock();

    MeshBlock(const MeshBlock&) = delete;
    MeshBlock& operator=(const MeshBlock&) = delete;

    const LogicalLocation& loc() const { return loc_; }
    const BlockShape& shape() const { return shape_; }
    const BlockGeometry& geom() const { return geom_; }
    const VariableRegistry& registry() const { return *registry_; }

    int gid() const { return gid_; }
    void setGid(int gid) { gid_ = gid; }

    int rank() const { return rank_; }
    void setRank(int rank) { rank_ = rank; }

    /** Load-balance cost estimate (cells by default, §II-E). */
    double cost() const { return cost_; }
    void setCost(double cost) { cost_ = cost; }

    /** Cycle at which this block came into existence. */
    std::int64_t createdCycle() const { return created_cycle_; }
    void setCreatedCycle(std::int64_t cycle) { created_cycle_ = cycle; }

    RefinementFlag tag() const { return tag_; }
    void setTag(RefinementFlag tag) { tag_ = tag; }

    bool hasData() const { return mode_ == DataMode::Real; }
    DataMode mode() const { return mode_; }

    // Storage accessors. In VIBE_AUDIT_OWNERSHIP builds each access
    // asserts the calling thread owns this block (or is inside a
    // sanctioned materialize/unpack scope) — the runtime backstop for
    // the shadow-data-access lint rule; in normal builds auditAccess()
    // compiles to nothing.

    /** Packed conserved variables (Independent components). */
    RealArray4& cons()
    {
        auditAccess();
        return cons_;
    }
    const RealArray4& cons() const
    {
        auditAccess();
        return cons_;
    }
    /** Step-start copy used by RK averaging. */
    RealArray4& cons0()
    {
        auditAccess();
        return cons0_;
    }
    const RealArray4& cons0() const
    {
        auditAccess();
        return cons0_;
    }
    /** Derived variables. */
    RealArray4& derived()
    {
        auditAccess();
        return derived_;
    }
    const RealArray4& derived() const
    {
        auditAccess();
        return derived_;
    }
    /**
     * Face fluxes in direction `d` (0 = x1, 1 = x2, 2 = x3). Empty
     * unless the block is a flux-correction participant.
     */
    RealArray4& flux(int d)
    {
        auditAccess();
        return flux_[d];
    }
    const RealArray4& flux(int d) const
    {
        auditAccess();
        return flux_[d];
    }
    /** All three face-flux arrays (a participant's stage fluxes). */
    FaceFluxes& fluxes()
    {
        auditAccess();
        return flux_;
    }

    /**
     * True while the block sends or receives flux correction (it has a
     * face neighbor on another level). Only participants store face
     * fluxes: the correction reads a participant's fluxes after its
     * flux task, so they must outlive the task.
     */
    bool fluxCorrection() const { return flux_correction_; }

    /**
     * Set the flux-correction role (the Mesh does, whenever neighbor
     * lists change). A materialized block acquires its flux arrays
     * from its pool on joining and releases them on leaving; a Shadow
     * block only records the role for materialize().
     */
    void setFluxCorrection(bool participant);

    /** Bytes this block accounts for (identical in all data modes). */
    std::size_t dataBytes() const { return data_bytes_; }

    // --- Rank-sharded storage lifecycle -------------------------------

    /**
     * Allocate storage for a Shadow block (ownership arrived: a
     * migration landed here, or a restructure created it on its owner
     * rank). Draws from `pool` when given — the destination rank's
     * BlockMemoryPool — and registers with the context's tracker.
     * State-carrying arrays are zeroed exactly as at construction.
     */
    void materialize(const ExecContext& ctx, BlockMemoryPool* pool);

    /**
     * Release all storage (back into the pool it came from) and drop
     * the tracker registrations: the block's data now lives on another
     * rank and this replica keeps structure/metadata only.
     */
    void dematerialize();

    /**
     * Serialize the state that must survive a migration — the full
     * conserved and derived arrays, ghosts included — into a flat
     * payload (bitwise copies, so a migrated block is indistinguishable
     * from one that never moved). The step-start copy cons0 and a
     * participant's fluxes are rewritten every step and do not travel.
     */
    std::vector<double> serializeState() const;

    /** Inverse of serializeState on a freshly materialized block. */
    void deserializeState(const std::vector<double>& payload);

    /** Elements serializeState produces for this block's shape. */
    std::size_t serializedStateCount() const;

  private:
    void auditAccess() const
    {
        ownership_audit::checkAccess(rank_);
    }

    void allocateAll(const ExecContext& ctx);
    void releaseAll();
    /** Allocate (pool first) or release this block's flux arrays. */
    void acquireFluxes();
    void releaseFluxes();
    /** One array of `nvar` components, staggered by (dk, dj, di). */
    RealArray4 makeArray(int nvar, int dk, int dj, int di, bool zero);
    void registerAllocation(const ExecContext& ctx,
                            const std::string& label, std::size_t bytes);

    LogicalLocation loc_;
    BlockShape shape_;
    BlockGeometry geom_;
    const VariableRegistry* registry_;
    MemoryTracker* tracker_;
    BlockMemoryPool* pool_ = nullptr;
    DataMode mode_;
    bool per_block_recon_ = true;

    int gid_ = -1;
    int rank_ = 0;
    double cost_ = 1.0;
    std::int64_t created_cycle_ = 0;
    RefinementFlag tag_ = RefinementFlag::None;
    bool flux_correction_ = false;

    RealArray4 cons_, cons0_, derived_;
    FaceFluxes flux_;

    std::size_t data_bytes_ = 0;
    std::vector<std::pair<std::string, std::size_t>> registered_;
};

} // namespace vibe
