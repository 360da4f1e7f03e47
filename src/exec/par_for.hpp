/**
 * @file par_for.hpp
 * Kokkos-style named parallel loops with work accounting.
 *
 * Every compute kernel in the solver and comm layers is expressed as a
 * `parFor` over an index range. The caller supplies per-item flop/byte
 * costs (the solver knows its own arithmetic); the launch is recorded in
 * the profiler, and the body is executed only in numeric mode. This is
 * the boundary the paper uses to split "Kokkos kernel" time from the
 * "serial portion" (§II-C).
 *
 * Execution goes through the context's ExecutionSpace: the serial
 * space runs the historical in-line loops bit for bit; a
 * ThreadPoolSpace statically chunks the flattened outer dimensions
 * across a persistent worker pool. Kernel names are `string_view`s and
 * the profiler tables are probed without materializing strings, so a
 * launch allocates nothing on the no-profiler, counting, and
 * steady-state recording paths.
 *
 * Reductions must use `parReduceAt` rather than accumulating into a
 * capture: it gives each static chunk its own accumulator and combines
 * the partials in chunk order, which is race-free and deterministic
 * for a fixed thread count (and exact for min/max under any chunking).
 */
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "exec/exec_context.hpp"
#include "exec/kernel_profiler.hpp"
#include "obs/trace.hpp"

namespace vibe {

/** Per-work-item cost declaration for a kernel. */
struct KernelCosts
{
    double flopsPerItem = 0;
    double bytesPerItem = 0;
};

/** Combine operation for `parReduceAt`. */
enum class ReduceOp { Min, Max, Sum };

namespace detail {

inline double
reduceIdentity(ReduceOp op)
{
    switch (op) {
      case ReduceOp::Min:
        return std::numeric_limits<double>::infinity();
      case ReduceOp::Max:
        return -std::numeric_limits<double>::infinity();
      case ReduceOp::Sum:
        return 0.0;
    }
    return 0.0;
}

inline double
reduceCombine(ReduceOp op, double a, double b)
{
    switch (op) {
      case ReduceOp::Min:
        return b < a ? b : a;
      case ReduceOp::Max:
        return b > a ? b : a;
      case ReduceOp::Sum:
        return a + b;
    }
    return a;
}

/** Scratch shared by the trampoline of one 3-D/4-D chunked launch. */
template <typename F>
struct Launch3
{
    F& body;
    std::int64_t nj;
    int kl, jl;
};

template <typename F>
struct Launch4
{
    F& body;
    std::int64_t nk, nj;
    int nl, kl, jl, il, iu;
};

} // namespace detail

/**
 * Execute-only 1-D loop over [il, iu] through the context's execution
 * space, without recording a launch. For call sites whose accounting
 * is batched separately via `recordKernel` (irregular pack/unpack and
 * fused multi-pass kernels).
 */
template <typename F>
void
parForExec(const ExecContext& ctx, int il, int iu, F&& body)
{
    if (!ctx.executing() || iu < il)
        return;
    ExecutionSpace& space = ctx.space();
    const std::int64_t n = static_cast<std::int64_t>(iu) - il + 1;
    if (space.concurrency() == 1 || n <= 1) {
        for (int i = il; i <= iu; ++i)
            body(i);
        return;
    }
    struct Launch1
    {
        F& body;
        int il;
    } launch{body, il};
    space.forEachChunk(
        n,
        [](void* p, std::int64_t begin, std::int64_t end, int) {
            auto* launch = static_cast<Launch1*>(p);
            for (std::int64_t idx = begin; idx < end; ++idx)
                launch->body(launch->il + static_cast<int>(idx));
        },
        &launch);
}

/** Chunked rows over one block: body(chunk, k, j) writes the i loop.
 *  Execute-only companion of parForExec for kernels that hoist
 *  per-chunk scratch to launch setup (one resize per launch, not one
 *  size check per cell). */
template <typename F>
void
parForExecRows(const ExecContext& ctx, int kl, int ku, int jl, int ju,
               F&& body)
{
    if (!ctx.executing() || ku < kl || ju < jl)
        return;
    ExecutionSpace& space = ctx.space();
    const std::int64_t nk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t nj = static_cast<std::int64_t>(ju) - jl + 1;
    if (space.concurrency() == 1 || nk * nj <= 1) {
        for (int k = kl; k <= ku; ++k)
            for (int j = jl; j <= ju; ++j)
                body(0, k, j);
        return;
    }
    detail::Launch3<F> launch{body, nj, kl, jl};
    space.forEachChunk(
        nk * nj,
        [](void* p, std::int64_t begin, std::int64_t end, int chunk) {
            auto* launch = static_cast<detail::Launch3<F>*>(p);
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const int k =
                    launch->kl + static_cast<int>(idx / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(idx % launch->nj);
                launch->body(chunk, k, j);
            }
        },
        &launch);
}

/**
 * Execute-only 3-D loop over [kl,ku] x [jl,ju] x [il,iu]; the (k, j)
 * plane is flattened and chunked, the contiguous i loop stays inside
 * the body call. No launch is recorded (see the 1-D overload).
 */
template <typename F>
void
parForExec(const ExecContext& ctx, int kl, int ku, int jl, int ju, int il,
           int iu, F&& body)
{
    if (iu < il)
        return;
    parForExecRows(ctx, kl, ku, jl, ju, [&](int, int k, int j) {
        for (int i = il; i <= iu; ++i)
            body(k, j, i);
    });
}

/**
 * Execute-only 4-D loop with a leading variable index [nl,nu]; the
 * (n, k, j) volume is flattened and chunked.
 */
template <typename F>
void
parForExec(const ExecContext& ctx, int nl, int nu, int kl, int ku, int jl,
           int ju, int il, int iu, F&& body)
{
    if (!ctx.executing() || nu < nl || ku < kl || ju < jl || iu < il)
        return;
    ExecutionSpace& space = ctx.space();
    const std::int64_t nn = static_cast<std::int64_t>(nu) - nl + 1;
    const std::int64_t nk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t nj = static_cast<std::int64_t>(ju) - jl + 1;
    if (space.concurrency() == 1 || nn * nk * nj <= 1) {
        for (int n = nl; n <= nu; ++n)
            for (int k = kl; k <= ku; ++k)
                for (int j = jl; j <= ju; ++j)
                    for (int i = il; i <= iu; ++i)
                        body(n, k, j, i);
        return;
    }
    detail::Launch4<F> launch{body, nk, nj, nl, kl, jl, il, iu};
    space.forEachChunk(
        nn * nk * nj,
        [](void* p, std::int64_t begin, std::int64_t end, int) {
            auto* launch = static_cast<detail::Launch4<F>*>(p);
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const std::int64_t kj = idx % (launch->nk * launch->nj);
                const int n = launch->nl +
                              static_cast<int>(idx /
                                               (launch->nk * launch->nj));
                const int k =
                    launch->kl + static_cast<int>(kj / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(kj % launch->nj);
                for (int i = launch->il; i <= launch->iu; ++i)
                    launch->body(n, k, j, i);
            }
        },
        &launch);
}

/**
 * 1-D named kernel over [il, iu] inclusive.
 *
 * @param ctx     Execution context (mode + instrumentation + space).
 * @param name    Kernel label (shows up in Table III / Fig. 12).
 * @param costs   Per-item flop/byte costs for the performance model.
 * @param il,iu   Inclusive index bounds.
 * @param body    Callable (int i).
 */
template <typename F>
void
parFor(const ExecContext& ctx, std::string_view name,
       const KernelCosts& costs, int il, int iu, F&& body)
{
    const double items = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, {}, ctx.currentRank(), 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, items});
    }
    // One span per launch: thread-count-independent, so traced event
    // counts are comparable across pool sizes.
    TraceSpan trace(name, TraceCat::Kernel, ctx.currentRank());
    parForExec(ctx, il, iu, static_cast<F&&>(body));
}

/**
 * 3-D named kernel whose body owns the contiguous i loop: body(k, j)
 * writes the whole [il, iu] row, so it can run component-outer,
 * unit-stride-i loops. The (k, j) plane is chunked; the launch is
 * recorded as [kl,ku] x [jl,ju] x [il,iu] items with innermost extent
 * iu - il + 1. The per-cell 3-D parFor is this with an i loop.
 */
template <typename F>
void
parForRows(const ExecContext& ctx, std::string_view name,
           const KernelCosts& costs, int kl, int ku, int jl, int ju,
           int il, int iu, F&& body)
{
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    const double items = nk * nj * ni;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, {}, ctx.currentRank(), 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, ni});
    }
    TraceSpan trace(name, TraceCat::Kernel, ctx.currentRank());
    if (iu < il)
        return;
    parForExecRows(ctx, kl, ku, jl, ju,
                   [&](int, int k, int j) { body(k, j); });
}

/** 3-D named kernel over [kl,ku] x [jl,ju] x [il,iu], innermost i. */
template <typename F>
void
parFor(const ExecContext& ctx, std::string_view name,
       const KernelCosts& costs, int kl, int ku, int jl, int ju, int il,
       int iu, F&& body)
{
    parForRows(ctx, name, costs, kl, ku, jl, ju, il, iu,
               [&](int k, int j) {
                   for (int i = il; i <= iu; ++i)
                       body(k, j, i);
               });
}

/** 4-D named kernel with a leading variable index [nl,nu]. */
template <typename F>
void
parFor(const ExecContext& ctx, std::string_view name,
       const KernelCosts& costs, int nl, int nu, int kl, int ku, int jl,
       int ju, int il, int iu, F&& body)
{
    const double nn = nu >= nl ? static_cast<double>(nu - nl + 1) : 0.0;
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    const double items = nn * nk * nj * ni;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, {}, ctx.currentRank(), 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, ni});
    }
    TraceSpan trace(name, TraceCat::Kernel, ctx.currentRank());
    parForExec(ctx, nl, nu, kl, ku, jl, ju, il, iu, static_cast<F&&>(body));
}

/**
 * Record a kernel launch whose body is executed elsewhere (used for
 * batched pack/unpack where the loop structure is irregular).
 */
inline void
recordKernel(const ExecContext& ctx, std::string_view name, double items,
             const KernelCosts& costs, double innermost)
{
    if (ctx.profiler()) {
        ctx.profiler()->record({name, {}, ctx.currentRank(), 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, innermost});
    }
    // The body runs elsewhere, so mark the launch as an instant; the
    // surrounding task span carries the timing.
    traceInstant(name, TraceCat::Kernel, ctx.currentRank(), -1, items);
}

/** Record serial (non-kernel) work items of a named category. */
inline void
recordSerial(const ExecContext& ctx, std::string_view category,
             double items)
{
    if (ctx.profiler())
        ctx.profiler()->recordSerial(
            {{}, category, ctx.currentRank(), items});
}

// ---------------------------------------------------------------------
// Explicit-attribution variants for task-graph bodies.
//
// Tasks run concurrently on executor workers, so they must not depend
// on the profiler's ambient phase (PhaseScope/setPhase is a merge
// point that requires quiescence) nor on the context's ambient
// current-rank (a shared mutable slot). These variants carry the phase
// and rank in the record itself; the aggregation keys are identical to
// the PhaseScope-based path, so serial and threaded runs produce the
// same tables.
// ---------------------------------------------------------------------

/** recordKernel with explicit phase and rank attribution. */
inline void
recordKernelAt(const ExecContext& ctx, std::string_view phase, int rank,
               std::string_view name, double items,
               const KernelCosts& costs, double innermost)
{
    if (ctx.profiler()) {
        ctx.profiler()->record({name, phase, rank, 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, innermost});
    }
    traceInstant(name, TraceCat::Kernel, rank, -1, items);
}

/** recordSerial with explicit phase and rank attribution. */
inline void
recordSerialAt(const ExecContext& ctx, std::string_view phase, int rank,
               std::string_view category, double items)
{
    if (ctx.profiler())
        ctx.profiler()->recordSerial({phase, category, rank, items});
}

/** parForRows with explicit phase and rank attribution (parForAt is
 *  this with an i loop). */
template <typename F>
void
parForRowsAt(const ExecContext& ctx, std::string_view phase, int rank,
             std::string_view name, const KernelCosts& costs, int kl,
             int ku, int jl, int ju, int il, int iu, F&& body)
{
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    const double items = nk * nj * ni;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, phase, rank, 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, ni});
    }
    TraceSpan trace(name, TraceCat::Kernel, rank, -1, phase);
    if (iu < il)
        return;
    parForExecRows(ctx, kl, ku, jl, ju,
                   [&](int, int k, int j) { body(k, j); });
}

/** 3-D named kernel with explicit phase and rank attribution. */
template <typename F>
void
parForAt(const ExecContext& ctx, std::string_view phase, int rank,
         std::string_view name, const KernelCosts& costs, int kl, int ku,
         int jl, int ju, int il, int iu, F&& body)
{
    parForRowsAt(ctx, phase, rank, name, costs, kl, ku, jl, ju, il, iu,
                 [&](int k, int j) {
                     for (int i = il; i <= iu; ++i)
                         body(k, j, i);
                 });
}

/**
 * 3-D named reduction kernel over [kl,ku] x [jl,ju] x [il,iu] with
 * explicit phase and rank attribution.
 *
 * The body receives (k, j, i, double& acc) and must fold the cell's
 * contribution into `acc` with the declared operation. `result` enters
 * as the initial value and leaves combined with every chunk partial in
 * chunk order: min/max results are exact under any chunking, sum
 * results are deterministic for a fixed thread count (a nested launch
 * keeps the chunk partition, so a reduction run in-line on a pool
 * worker folds bitwise as a top-level one).
 */
template <typename F>
void
parReduceAt(const ExecContext& ctx, std::string_view phase, int rank,
            std::string_view name, const KernelCosts& costs, ReduceOp op,
            double& result, int kl, int ku, int jl, int ju, int il, int iu,
            F&& body)
{
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    const double items = nk * nj * ni;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, phase, rank, 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, ni});
    }
    if (!ctx.executing() || ku < kl || ju < jl || iu < il)
        return;

    TraceSpan trace(name, TraceCat::Kernel, rank, -1, phase);
    ExecutionSpace& space = ctx.space();
    const std::int64_t onk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t onj = static_cast<std::int64_t>(ju) - jl + 1;
    if (space.concurrency() == 1 || onk * onj <= 1) {
        double partial = detail::reduceIdentity(op);
        for (int k = kl; k <= ku; ++k)
            for (int j = jl; j <= ju; ++j)
                for (int i = il; i <= iu; ++i)
                    body(k, j, i, partial);
        result = detail::reduceCombine(op, result, partial);
        return;
    }

    struct ReduceLaunch
    {
        F& body;
        double* partials;
        std::int64_t nj;
        int kl, jl, il, iu;
    };
    // One accumulator per static chunk; combined in chunk order below.
    std::vector<double> partials(
        static_cast<std::size_t>(space.concurrency()),
        detail::reduceIdentity(op));
    ReduceLaunch launch{body, partials.data(), onj, kl, jl, il, iu};
    space.forEachChunk(
        onk * onj,
        [](void* p, std::int64_t begin, std::int64_t end, int chunk) {
            auto* launch = static_cast<ReduceLaunch*>(p);
            double acc = launch->partials[chunk];
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const int k =
                    launch->kl + static_cast<int>(idx / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(idx % launch->nj);
                for (int i = launch->il; i <= launch->iu; ++i)
                    launch->body(k, j, i, acc);
            }
            launch->partials[chunk] = acc;
        },
        &launch);
    for (double partial : partials)
        result = detail::reduceCombine(op, result, partial);
}

// ---------------------------------------------------------------------
// Whole-mesh block sweeps.
//
// The per-cycle sweeps outside the stage graphs (saveState,
// fillDerived, estimateTimestep, massHistory, gradient tagging) visit
// every owned block once. Issuing each block's kernels as their own
// top-level launch costs one pool fork-join per block per sweep; on
// small blocks that round trip, not the kernel, is the sweep's cost.
// parForBlocks instead makes the sweep ONE launch: static chunks of
// whole blocks go to the workers, and each block's kernels run in-line
// on its worker under the nested-launch rule (execution_space.cpp),
// keeping their concurrency() chunk partition and chunk-order combine.
// Every per-block result is therefore bitwise what a per-block
// top-level launch computes at the same thread count. Whole blocks
// per worker is the stage graph's own rule (tasks are the sole unit of
// concurrency).
//
// Bodies may run concurrently, so they attribute through the *At
// variants with the block's rank and an explicit phase, write only
// their own block or an index-addressed slot, and leave cross-block
// folds to the caller after the launch, in owned order.
// ---------------------------------------------------------------------

/**
 * Run body(index, block) for every entry of `blocks` as one launch.
 * On a serial space, in counting mode, or for a single block this is
 * a plain loop in list order. Afterwards the context's ambient rank is
 * the last block's, as a per-block loop that set it before each block
 * leaves it, so records after the sweep keep their attribution.
 * Templated on the block pointer type so exec/ stays below mesh/.
 */
template <typename BlockPtr, typename F>
void
parForBlocks(const ExecContext& ctx, const std::vector<BlockPtr>& blocks,
             F&& body)
{
    const std::int64_t n = static_cast<std::int64_t>(blocks.size());
    if (n == 0)
        return;
    ExecutionSpace& space = ctx.space();
    if (!ctx.executing() || space.concurrency() == 1 || n == 1) {
        for (std::int64_t b = 0; b < n; ++b)
            body(static_cast<int>(b), *blocks[b]);
    } else {
        struct LaunchBlocks
        {
            F& body;
            const BlockPtr* blocks;
        } launch{body, blocks.data()};
        space.forEachChunk(
            n,
            [](void* p, std::int64_t begin, std::int64_t end, int) {
                auto* launch = static_cast<LaunchBlocks*>(p);
                for (std::int64_t b = begin; b < end; ++b)
                    launch->body(static_cast<int>(b),
                                 *launch->blocks[b]);
            },
            &launch);
    }
    ctx.setCurrentRank(blocks.back()->rank());
}

// ---------------------------------------------------------------------
// Fused MeshBlockPack launches.
//
// One kernel launch spans the whole packed (block, n, k, j) domain —
// the Parthenon MeshBlockPack strategy (Grete et al. 2022) — instead
// of one launch per block. The flattened row volume is chunked across
// the execution space, so load balance is restored even when
// num_blocks < num_threads or blocks are tiny, and the per-launch
// pool synchronization cost is paid once per phase rather than once
// per block.
//
// Dispatch is hierarchical, mirroring Kokkos team/vector loops: the
// outer chunked domain iterates rows, the body writes the contiguous
// innermost i loop itself and receives the chunk id for per-chunk
// scratch (the serial path and nested launches always pass chunk ids
// within [0, concurrency())). The serial path visits (b, n, k, j)
// rows in exactly the per-block launch order, and elementwise bodies
// compute each cell independently, so pack launches are bit-identical
// to per-block launches on every backend.
// ---------------------------------------------------------------------

namespace detail {

template <typename F>
struct LaunchPack
{
    F& body;
    std::int64_t nn, nk, nj;
    int nl, kl, jl;
};

} // namespace detail

/**
 * Execute-only fused pack loop: flatten (block, n, k, j) over all
 * `nblocks` blocks and chunk it across the space. The body receives
 * (chunk, b, n, k, j) and writes the contiguous i loop itself; use
 * nl = nu = 0 for kernels without a leading component dimension.
 */
template <typename F>
void
parForPackExec(const ExecContext& ctx, int nblocks, int nl, int nu,
               int kl, int ku, int jl, int ju, F&& body)
{
    if (!ctx.executing() || nblocks <= 0 || nu < nl || ku < kl ||
        ju < jl)
        return;
    ExecutionSpace& space = ctx.space();
    const std::int64_t nn = static_cast<std::int64_t>(nu) - nl + 1;
    const std::int64_t nk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t nj = static_cast<std::int64_t>(ju) - jl + 1;
    const std::int64_t rows = nblocks * nn * nk * nj;
    if (space.concurrency() == 1 || rows <= 1) {
        for (int b = 0; b < nblocks; ++b)
            for (int n = nl; n <= nu; ++n)
                for (int k = kl; k <= ku; ++k)
                    for (int j = jl; j <= ju; ++j)
                        body(0, b, n, k, j);
        return;
    }
    detail::LaunchPack<F> launch{body, nn, nk, nj, nl, kl, jl};
    space.forEachChunk(
        rows,
        [](void* p, std::int64_t begin, std::int64_t end, int chunk) {
            auto* launch = static_cast<detail::LaunchPack<F>*>(p);
            const std::int64_t per_block =
                launch->nn * launch->nk * launch->nj;
            const std::int64_t kj = launch->nk * launch->nj;
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const int b = static_cast<int>(idx / per_block);
                std::int64_t rem = idx % per_block;
                const int n =
                    launch->nl + static_cast<int>(rem / kj);
                rem %= kj;
                const int k =
                    launch->kl + static_cast<int>(rem / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(rem % launch->nj);
                launch->body(chunk, b, n, k, j);
            }
        },
        &launch);
}

/**
 * Record one fused pack launch. The launch count is 1 (it is one
 * kernel), but items are attributed per rank by runs of equal rank in
 * block order, so per-rank load tables match the per-block launch
 * path. Allocation-free: runs are emitted as partial records instead
 * of building a rank map.
 */
inline void
recordPackKernel(const ExecContext& ctx, std::string_view phase,
                 std::string_view name, const KernelCosts& costs,
                 const int* ranks, int nblocks, double items_per_block,
                 double innermost)
{
    if (nblocks > 0)
        traceInstant(name, TraceCat::Kernel, ctx.currentRank(), -1,
                     nblocks * items_per_block);
    if (!ctx.profiler() || nblocks <= 0)
        return;
    std::uint64_t launches = 1;
    int b = 0;
    while (b < nblocks) {
        const int rank = ranks[b];
        int run = 0;
        while (b < nblocks && ranks[b] == rank) {
            ++run;
            ++b;
        }
        const double items = run * items_per_block;
        ctx.profiler()->record({name, phase, rank, launches, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem,
                                launches ? innermost : 0.0});
        launches = 0;
    }
}

/**
 * recordPackKernel for irregular fused launches (boundary-plan pack
 * and unpack, where table rows are whole channels of varying volume):
 * per-entry item counts instead of one uniform per-block volume. The
 * launch count is 1 (it is one kernel); items are attributed per rank
 * by runs of equal rank in entry order, so per-rank load tables see
 * each rank's share of the boundary work.
 */
inline void
recordPackKernelItems(const ExecContext& ctx, std::string_view phase,
                      std::string_view name, const KernelCosts& costs,
                      const int* ranks, const double* items, int n,
                      double innermost)
{
    if (n > 0) {
        double total = 0;
        if (TraceRecorder::enabled())
            for (int e = 0; e < n; ++e)
                total += items[e];
        traceInstant(name, TraceCat::Kernel, ctx.currentRank(), -1,
                     total);
    }
    if (!ctx.profiler() || n <= 0)
        return;
    std::uint64_t launches = 1;
    int e = 0;
    while (e < n) {
        const int rank = ranks[e];
        double run_items = 0;
        while (e < n && ranks[e] == rank) {
            run_items += items[e];
            ++e;
        }
        ctx.profiler()->record({name, phase, rank, launches, run_items,
                                run_items * costs.flopsPerItem,
                                run_items * costs.bytesPerItem,
                                launches ? innermost : 0.0});
        launches = 0;
    }
}

/**
 * Fused pack kernel: records one launch (per-rank item attribution)
 * and dispatches the packed row domain. Body as in parForPackExec;
 * [il, iu] enters the work accounting only — the body owns the loop.
 */
template <typename F>
void
parForPack(const ExecContext& ctx, std::string_view phase,
           std::string_view name, const KernelCosts& costs,
           const int* ranks, int nblocks, int nl, int nu, int kl, int ku,
           int jl, int ju, int il, int iu, F&& body)
{
    const double nn = nu >= nl ? static_cast<double>(nu - nl + 1) : 0.0;
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    recordPackKernel(ctx, phase, name, costs, ranks, nblocks,
                     nn * nk * nj * ni, ni);
    TraceSpan trace(name, TraceCat::Kernel, ctx.currentRank(), -1,
                    phase);
    parForPackExec(ctx, nblocks, nl, nu, kl, ku, jl, ju,
                   static_cast<F&&>(body));
}

/**
 * Fused pack reduction over (block, k, j) rows; the body receives
 * (b, k, j, double& acc) and folds the whole row (its own i loop)
 * into `acc`. Chunk partials are combined in chunk order exactly as
 * parReduceAt: min/max results are chunking-exact — identical to the
 * per-block reduction sequence bit for bit — and sums are
 * deterministic for a fixed thread count.
 */
template <typename F>
void
parReducePack(const ExecContext& ctx, std::string_view phase,
              std::string_view name, const KernelCosts& costs,
              ReduceOp op, double& result, const int* ranks, int nblocks,
              int kl, int ku, int jl, int ju, int il, int iu, F&& body)
{
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    recordPackKernel(ctx, phase, name, costs, ranks, nblocks,
                     nk * nj * ni, ni);
    if (!ctx.executing() || nblocks <= 0 || ku < kl || ju < jl ||
        iu < il)
        return;

    TraceSpan trace(name, TraceCat::Kernel, ctx.currentRank(), -1,
                    phase);
    ExecutionSpace& space = ctx.space();
    const std::int64_t onk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t onj = static_cast<std::int64_t>(ju) - jl + 1;
    const std::int64_t rows = nblocks * onk * onj;
    if (space.concurrency() == 1 || rows <= 1) {
        double partial = detail::reduceIdentity(op);
        for (int b = 0; b < nblocks; ++b)
            for (int k = kl; k <= ku; ++k)
                for (int j = jl; j <= ju; ++j)
                    body(b, k, j, partial);
        result = detail::reduceCombine(op, result, partial);
        return;
    }

    struct ReducePackLaunch
    {
        F& body;
        double* partials;
        std::int64_t nk, nj;
        int kl, jl;
    };
    std::vector<double> partials(
        static_cast<std::size_t>(space.concurrency()),
        detail::reduceIdentity(op));
    ReducePackLaunch launch{body, partials.data(), onk, onj, kl, jl};
    space.forEachChunk(
        rows,
        [](void* p, std::int64_t begin, std::int64_t end, int chunk) {
            auto* launch = static_cast<ReducePackLaunch*>(p);
            const std::int64_t per_block = launch->nk * launch->nj;
            double acc = launch->partials[chunk];
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const int b = static_cast<int>(idx / per_block);
                const std::int64_t rem = idx % per_block;
                const int k =
                    launch->kl + static_cast<int>(rem / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(rem % launch->nj);
                launch->body(b, k, j, acc);
            }
            launch->partials[chunk] = acc;
        },
        &launch);
    for (double partial : partials)
        result = detail::reduceCombine(op, result, partial);
}

} // namespace vibe
