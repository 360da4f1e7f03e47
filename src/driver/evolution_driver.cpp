#include "driver/evolution_driver.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "driver/fault_injector.hpp"
#include "driver/task_list.hpp"
#include "exec/memory_tracker.hpp"
#include "exec/par_for.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "io/metrics_writer.hpp"
#include "mesh/block_memory_pool.hpp"
#include "mesh/prolong_restrict.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vibe {

DriverConfig
DriverConfig::fromParams(const ParameterInput& pin)
{
    DriverConfig config;
    config.ncycles = pin.getInt("driver", "ncycles", 10);
    config.tlim = pin.getReal("driver", "tlim", 1e30);
    config.fixedDt = pin.getReal("driver", "fixed_dt", 2e-3);
    config.derefineGap = pin.getInt("amr", "derefine_gap", 10);
    config.refineEvery = pin.getInt("amr", "refine_every", 1);
    config.lbEvery = pin.getInt("amr", "lb_every", 1);
    // Deck knob wins; otherwise the VIBE_LB_COST environment fallback;
    // otherwise the historical uniform weighting.
    config.lbCost = lbCostModeFromName(pin.getString(
        "amr", "lb_cost",
        lbCostModeName(envLbCostMode(LbCostMode::Uniform))));
    config.lbImbalanceTrigger =
        pin.getReal("amr", "lb_imbalance_trigger", 0.0);
    config.randomizeBufferKeys =
        pin.getBool("comm", "randomize_buffer_keys", true);
    config.checkpointEvery =
        pin.getInt("driver", "checkpoint_every", 0);
    config.checkpointPath =
        pin.getString("driver", "checkpoint_path", "");
    config.checkpointAsync =
        pin.getBool("driver", "checkpoint_async", true);
    return config;
}

EvolutionDriver::EvolutionDriver(Mesh& mesh,
                                 const PackageDescriptor& package,
                                 RankWorld& world,
                                 RefinementTagger& tagger,
                                 const DriverConfig& config)
    : mesh_(&mesh), package_(&package), world_(&world), tagger_(&tagger),
      config_(config), cache_(mesh, config.randomizeBufferKeys),
      exchange_(mesh, world, cache_)
{
    dt_ = config_.fixedDt;
    // The buffer cache is rebuilt on exactly the events that stale the
    // pack's view tables AND the boundary plan's message directory
    // (restructure, load-balance moves); ride that hook instead of
    // tracking remesh events separately. Both invalidations are cheap
    // flag flips — the rebuilds happen lazily at the next serial point.
    cache_.setRebuildHook([this] {
        pack_.invalidate();
        exchange_.plan().invalidate();
    });
}

void
EvolutionDriver::initialize()
{
    const ExecContext& ctx = mesh_->ctx();
    PhaseScope scope(ctx.profiler(), "Initialise");

    if (ctx.executing())
        package_->initialize(*mesh_);

    // Initial refinement: iterate up to the level budget so the mesh
    // conforms to the tagging criterion before evolution starts. Each
    // rank tags only its owned shard; the flags are all-gathered so
    // every replica applies the identical tree update.
    const int max_iters = mesh_->config().amrLevels - 1;
    for (int iter = 0; iter < max_iters; ++iter) {
        tagger_->tagAll(*mesh_, time_, cycle_);
        std::vector<FlagEntry> local;
        for (const MeshBlock* block : mesh_->ownedBlocks())
            if (block->tag() == RefinementFlag::Refine)
                local.push_back(
                    {block->loc(),
                     static_cast<int>(RefinementFlag::Refine)});
        RefinementFlagMap flags =
            gatherFlags(std::move(local), 0.0, CollAccount::None);
        auto update = mesh_->updateTree(flags);
        if (!update.changed())
            break;
        auto restructure = mesh_->applyTreeUpdate(update, cycle_);
        if (ctx.executing()) {
            // At initialization new blocks take exact initial
            // conditions rather than prolongated data (non-owned
            // Shadow blocks skip inside initializeBlock).
            for (auto& refined : restructure.refined)
                for (MeshBlock* child : refined.children)
                    package_->initializeBlock(ctx, *child);
            for (auto& derefined : restructure.derefined)
                package_->initializeBlock(ctx, *derefined.parent);
        }
        cache_.rebuild();
    }

    loadBalance(*mesh_, *world_, lbOptions());
    cache_.rebuild();
    exchange_.exchangeBounds();
    exchange_.applyPhysicalBoundaries();
    if (mesh_->config().packInterior)
        package_->fillDerivedPack(*mesh_, ensurePack());
    else
        package_->fillDerived(*mesh_);
    // The timestep is NOT estimated here: doCycle() computes it once
    // at the top of every step. A second pre-loop estimate would
    // double-count the EstTimeMesh sweep in the profiler (and run a
    // full extra mesh sweep) without changing any dt a cycle uses.
}

void
EvolutionDriver::initializeFromCheckpoint(const CheckpointImage& image)
{
    const ExecContext& ctx = mesh_->ctx();
    PhaseScope scope(ctx.profiler(), "Initialise");
    const MeshConfig& config = mesh_->config();

    require(ctx.executing(),
            "checkpoint restore requires numeric execution");
    if (image.package != package_->name())
        restoreFatal("checkpoint restore: file holds package '", image.package,
              "' but this run uses '", package_->name(), "'");
    if (image.ndim != config.ndim || image.nx1 != config.nx1 ||
        image.nx2 != config.nx2 || image.nx3 != config.nx3)
        restoreFatal("checkpoint restore: mesh mismatch, file has ",
              image.nx1, "x", image.nx2, "x", image.nx3, " (ndim ",
              image.ndim, "), this run ", config.nx1, "x", config.nx2,
              "x", config.nx3, " (ndim ", config.ndim, ")");
    if (image.blockNx1 != config.blockNx1 ||
        image.blockNx2 != config.blockNx2 ||
        image.blockNx3 != config.blockNx3 ||
        image.numGhost != config.numGhost)
        restoreFatal("checkpoint restore: block shape mismatch, file has ",
              image.blockNx1, "x", image.blockNx2, "x", image.blockNx3,
              " (", image.numGhost, " ghosts), this run ",
              config.blockNx1, "x", config.blockNx2, "x",
              config.blockNx3, " (", config.numGhost, " ghosts)");
    if (image.amrLevels != config.amrLevels)
        restoreFatal("checkpoint restore: file was written with ",
              image.amrLevels, " AMR levels, this run allows ",
              config.amrLevels);
    const VariableRegistry& registry = mesh_->registry();
    if (image.ncompConserved != registry.ncompConserved() ||
        image.ncompDerived != registry.ncompDerived())
        restoreFatal("checkpoint restore: variable mismatch, file has ",
              image.ncompConserved, " conserved + ",
              image.ncompDerived, " derived components, this run ",
              registry.ncompConserved(), " + ",
              registry.ncompDerived());
    require(!image.blocks.empty(),
            "checkpoint restore: image holds no blocks");

    // --- Rebuild the tree to the image's leaf set. Every image leaf
    // deeper than level 0 implies its ancestors were refined; flag
    // exactly those interior locations level by level until the
    // current leaves match. The image's tree was 2:1 balanced when
    // written, so these updates never cascade extra refinements.
    RefinementFlagMap ancestors;
    for (const CheckpointBlockRecord& record : image.blocks)
        for (LogicalLocation loc = record.loc; loc.level > 0;) {
            loc = loc.parent();
            ancestors[loc] = RefinementFlag::Refine;
        }
    for (int pass = 0; pass < image.amrLevels; ++pass) {
        RefinementFlagMap flags;
        // vibe-lint: allow(owned-blocks) replicated-structure walk:
        // tree reconstruction reads only block locations (metadata
        // present on every replica), never Shadow storage.
        for (const auto& block : mesh_->blocks())
            if (ancestors.count(block->loc()))
                flags[block->loc()] = RefinementFlag::Refine;
        if (flags.empty())
            break;
        const auto update = mesh_->updateTree(flags);
        require(update.changed(),
                "checkpoint restore: tree reconstruction stalled with ",
                flags.size(), " unrefined ancestors");
        // No data prolongation: every block's state comes from the
        // image below, so only the structure update is applied.
        mesh_->applyTreeUpdate(update, image.cycle);
    }
    if (mesh_->numBlocks() != image.blocks.size())
        restoreFatal("checkpoint restore: reconstructed tree has ",
              mesh_->numBlocks(), " blocks, file records ",
              image.blocks.size());

    // --- Load every block record: same Z/gid order on both sides.
    // Replicated metadata (createdCycle) lands on every replica; state
    // lands only where storage is materialized (hasData) — Shadow
    // replicas receive theirs through the load-balance migration below.
    for (std::size_t gid = 0; gid < mesh_->numBlocks(); ++gid) {
        MeshBlock& block = mesh_->block(static_cast<int>(gid));
        const CheckpointBlockRecord& record = image.blocks[gid];
        if (!(block.loc() == record.loc))
            restoreFatal("checkpoint restore: block ", gid, " is at ",
                  block.loc().str(), " but the file records ",
                  record.loc.str());
        // The derefine-gap policy depends on creation cycles, so they
        // must survive the restart for identical remesh decisions.
        block.setCreatedCycle(record.createdCycle);
        // Warm-start the load balancer: v2 images carry the owner's
        // last cost estimate, so the re-shard below partitions on
        // learned costs instead of re-learning them. Pre-v2 records
        // hold 0 and keep the block's uniform default.
        if (record.cost > 0)
            block.setCost(record.cost);
        if (!block.hasData())
            continue;
        require(record.state.size() == block.serializedStateCount(),
                "checkpoint restore: block ", gid, " state has ",
                record.state.size(), " values, expected ",
                block.serializedStateCount());
        block.deserializeState(record.state);
    }

    cycle_ = image.cycle;
    time_ = image.time;

    // Re-shard through the PR-5 migration path: the partitioner's
    // greedy Z-prefix split depends only on the (replicated) Z-ordered
    // block list, so any rank count lands on its deterministic
    // decomposition and real storage migrates onto the new owners.
    loadBalance(*mesh_, *world_, lbOptions());
    cache_.rebuild();
    // No ghost exchange or fillDerived: the serialized state carries
    // ghosts and derived fields, so memory now matches the
    // uninterrupted run at this cycle boundary bit for bit.
}

void
EvolutionDriver::run()
{
    while (cycle_ < config_.ncycles && time_ < config_.tlim)
        doCycle();
}

void
EvolutionDriver::doCycle()
{
    // vibe-lint: allow(obs-isolation) cycle wall clock: this read IS
    // the heartbeat FOM's denominator — the one timing the obs API
    // cannot supply to itself.
    const auto cycle_start = std::chrono::steady_clock::now();
    const int trace_rank = mesh_->collectiveRank();
    TraceSpan cycle_span("Cycle", TraceCat::Driver, trace_rank, cycle_);
    cycle_task_wall_ = 0;
    cycle_busy_ = 0;
    cycle_idle_ = 0;
    cycle_critical_ = 0;
    if (config_.lbCost == LbCostMode::Measured)
        cost_model_.beginCycle();

    // Fault-injection point: before the cycle's first collective (the
    // dt allreduce), so when the armed rank dies its peers are already
    // blocked in a rendezvous — the worst case the abort path must
    // drain without hanging.
    if (fault_injector_)
        fault_injector_->maybeFail(mesh_->collectiveRank(), cycle_);

    // --- EstimateTimeStep: once per step. The mesh is untouched
    // between the end of the previous cycle and here, so estimating at
    // the top of the cycle yields the identical dt the old
    // end-of-previous-cycle estimate produced, with half the sweeps.
    {
        TraceSpan span("EstimateTimeStep", TraceCat::Driver,
                       trace_rank, cycle_);
        dt_ = mesh_->config().packInterior
                  ? package_->estimateTimestepPack(
                        *mesh_, ensurePack(), *world_, config_.fixedDt)
                  : package_->estimateTimestep(*mesh_, *world_,
                                               config_.fixedDt);
    }

    CycleStats stats;
    stats.cycle = cycle_;
    stats.time = time_;
    stats.dt = dt_;
    stats.nblocks = mesh_->numBlocks();
    stats.interiorCells = mesh_->totalInteriorCells();

    const std::int64_t wire_before = comm_cells_;
    const std::int64_t faces_before = comm_faces_;
    const std::uint64_t msgs_before = boundary_messages_;
    const double bytes_before = boundary_bytes_;

    step();

    // FOM numerator: blocks processed this cycle x cells per block.
    zone_cycles_ += stats.interiorCells;

    // --- LoadBalancingAndAMR ---
    {
        TraceSpan span("LoadBalancingAndAMR", TraceCat::Driver,
                       trace_rank, cycle_);
        loadBalancingAndAmr();
    }

    // --- Per-cycle history output (VIBE's MassHistory) ---
    stats.mass = package_->massHistory(*mesh_, *world_);

    time_ += stats.dt;
    ++cycle_;

    maybeWriteCheckpoint(stats);

    stats.wireCells = comm_cells_ - wire_before;
    stats.wireFaces = comm_faces_ - faces_before;
    stats.boundaryMessages = boundary_messages_ - msgs_before;
    stats.boundaryBytes = boundary_bytes_ - bytes_before;
    stats.refined = last_refined_;
    stats.derefined = last_derefined_;
    stats.movedBlocks = last_moved_;
    stats.migratedStorageBytes = last_migrated_bytes_;
    stats.lbDecision = last_lb_decision_;
    stats.lbImbalance = last_lb_imbalance_;
    stats.lbMaxRankCost = last_lb_max_cost_;
    stats.lbMeanRankCost = last_lb_mean_cost_;
    stats.taskWallSeconds = cycle_task_wall_;
    stats.busySeconds = cycle_busy_;
    stats.idleSeconds = cycle_idle_;
    stats.criticalPathSeconds = cycle_critical_;
    history_.push_back(stats);

    if (TraceRecorder::enabled()) {
        traceCounter("nblocks", trace_rank, stats.cycle,
                     static_cast<double>(stats.nblocks));
        if (stats.refined > 0 || stats.derefined > 0)
            traceInstant("Remesh", TraceCat::Driver, trace_rank,
                         stats.cycle,
                         static_cast<double>(stats.refined +
                                             stats.derefined));
        if (stats.movedBlocks > 0)
            traceInstant("Migration", TraceCat::Comm, trace_rank,
                         stats.cycle,
                         static_cast<double>(stats.movedBlocks));
    }

    // Cycle boundary: all launches have completed, so fold any
    // instrumentation recorded on pool worker threads back into the
    // main tables before the next phase begins.
    const ExecContext& ctx = mesh_->ctx();
    if (ctx.profiler())
        ctx.profiler()->sync();
    if (ctx.tracker())
        ctx.tracker()->sync();

    if (metrics_writer_) {
        // vibe-lint: allow(obs-isolation) heartbeat FOM denominator
        // (see cycle_start above); taken only when metrics are on.
        const double cycle_wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - cycle_start)
                .count();
        emitHeartbeat(stats, cycle_wall);
    }
}

void
EvolutionDriver::runGraph(TaskList& tl, const TaskExecOptions& options)
{
    tl.setTrace(mesh_->collectiveRank(), cycle_);
    tl.execute(options);
    // Measured-cost harvest: fold each per-block task's wall clock
    // onto its block. Comm tasks are included — pack/unpack scale with
    // a block's surface and belong to it; poll attempts are cheap
    // probes that add noise the EMA smooths out.
    if (config_.lbCost == LbCostMode::Measured)
        tl.forEachTask([this](const std::string& name, TaskCategory,
                              double seconds) {
            const int gid = detail::taskNameGid(name);
            if (gid >= 0)
                cost_model_.addSample(gid, seconds);
        });
    const double wall = tl.lastExecuteSeconds();
    const double comm = tl.categorySeconds(TaskCategory::Comm);
    const double compute = tl.categorySeconds(TaskCategory::Compute);
    task_wall_seconds_ += wall;
    task_comm_seconds_ += comm;
    task_compute_seconds_ += compute;
    const int concurrency =
        options.space ? options.space->concurrency() : 1;
    cycle_task_wall_ += wall;
    cycle_busy_ += comm + compute;
    // Idle = capacity the executor offered minus capacity task bodies
    // used. Clamped: timer granularity can make busy exceed wall x
    // threads by epsilon on tiny graphs.
    cycle_idle_ += std::max(
        0.0, wall * concurrency - (comm + compute));
    cycle_critical_ += tl.criticalPathSeconds();
}

void
EvolutionDriver::accountFused(double seconds)
{
    const int concurrency = mesh_->ctx().space().concurrency();
    task_wall_seconds_ += seconds;
    task_compute_seconds_ += seconds;
    cycle_task_wall_ += seconds;
    cycle_busy_ += seconds * concurrency;
    cycle_critical_ += seconds;
    // A fused launch yields no per-block clocks; spread its wall time
    // evenly over the blocks it stepped so pack-mode measured costs
    // stay well-defined (they degrade toward uniform, never to zero).
    if (config_.lbCost == LbCostMode::Measured) {
        const auto& owned = mesh_->ownedBlocks();
        if (!owned.empty()) {
            const double share =
                seconds / static_cast<double>(owned.size());
            for (const MeshBlock* block : owned)
                cost_model_.addSample(block->gid(), share);
        }
    }
}

void
EvolutionDriver::emitHeartbeat(const CycleStats& stats,
                               double cycle_wall)
{
    MetricsRegistry m;
    m.set("cycle", static_cast<double>(stats.cycle));
    m.set("time", stats.time);
    m.set("dt", stats.dt);
    m.set("wall_seconds", cycle_wall);
    m.set("nblocks", static_cast<double>(stats.nblocks));
    m.set("interior_cells", static_cast<double>(stats.interiorCells));
    m.set("fom.zone_cycles_per_s",
          cycle_wall > 0
              ? static_cast<double>(stats.interiorCells) / cycle_wall
              : 0.0);
    m.set("boundary.messages",
          static_cast<double>(stats.boundaryMessages));
    m.set("boundary.bytes", stats.boundaryBytes);
    m.set("wire.cells", static_cast<double>(stats.wireCells));
    m.set("wire.faces", static_cast<double>(stats.wireFaces));
    m.set("amr.refined", static_cast<double>(stats.refined));
    m.set("amr.derefined", static_cast<double>(stats.derefined));
    m.set("lb.moved_blocks", static_cast<double>(stats.movedBlocks));
    m.set("lb.migrated_bytes", stats.migratedStorageBytes);
    m.set("lb.decision", static_cast<double>(stats.lbDecision));
    m.set("lb.imbalance", stats.lbImbalance);
    m.set("lb.max_rank_cost", stats.lbMaxRankCost);
    m.set("lb.mean_rank_cost", stats.lbMeanRankCost);
    m.set("mass", stats.mass);
    m.set("checkpoint.seconds", stats.checkpointSeconds);
    m.set("task.wall_seconds", stats.taskWallSeconds);
    m.set("task.busy_seconds", stats.busySeconds);
    m.set("task.idle_seconds", stats.idleSeconds);
    m.set("task.critical_path_seconds", stats.criticalPathSeconds);
    if (const BlockMemoryPool* pool = mesh_->memoryPool()) {
        m.set("pool.hits", static_cast<double>(pool->poolHits()));
        m.set("pool.fresh_allocs",
              static_cast<double>(pool->freshAllocs()));
        m.set("pool.idle_bytes",
              static_cast<double>(pool->idleBytes()));
    }
    const Traffic traffic = world_->traffic();
    m.set("traffic.remote_messages",
          static_cast<double>(traffic.remoteMessages));
    m.set("traffic.remote_bytes", traffic.remoteBytes);
    m.set("traffic.all_reduces",
          static_cast<double>(traffic.allReduces));
    m.set("traffic.all_gathers",
          static_cast<double>(traffic.allGathers));
    metrics_writer_->writeCycle(m);
}

TaskExecOptions
EvolutionDriver::stageExecOptions() const
{
    TaskExecOptions options;
    options.space = &mesh_->ctx().space();
    // On a rank team, this graph's polls wait on messages produced by
    // OTHER ranks' driver threads: completion counts say nothing about
    // progress, so stalls are judged by wall clock instead — and a
    // peer failure aborts promptly rather than burning the deadline.
    options.external_progress = world_->concurrent();
    options.external_stall_seconds = kPeerWaitSeconds;
    if (options.external_progress) {
        RankWorld* world = world_;
        options.external_abort = [world]() -> std::string {
            // failed() is a lock-free fast path; the reason (one lock)
            // is only fetched on the failure path itself.
            return world->failed() ? world->failureReason()
                                   : std::string();
        };
    }
    return options;
}

void
EvolutionDriver::maybeWriteCheckpoint(CycleStats& stats)
{
    if (config_.checkpointEvery <= 0 ||
        cycle_ % config_.checkpointEvery != 0)
        return;
    // Capture needs real block state; counting mode has none.
    if (!mesh_->ctx().executing())
        return;
    TraceSpan span("CheckpointCapture", TraceCat::Io,
                   mesh_->collectiveRank(), cycle_);
    // vibe-lint: allow(obs-isolation) capture seconds are a CycleStats
    // field of their own (stats.checkpointSeconds), not a log line.
    const auto start = std::chrono::steady_clock::now();
    // The capture runs as a task in the stage graph: the gather is a
    // collective (every rank's poll/abort policy applies), and the
    // graph accounting folds the capture into the comm columns the
    // benches report. One task always executes on the serial backend,
    // so the capture point is deterministic.
    CheckpointImage image;
    TaskList tl;
    tl.setLabel("checkpoint");
    tl.addTask(
        "CheckpointCaptureGather",
        [this, &image] {
            image = captureCheckpoint(*mesh_, *world_,
                                      package_->name(), cycle_, time_);
            return TaskStatus::Complete;
        },
        {}, TaskCategory::Comm);
    runGraph(tl, stageExecOptions());
    // Only the rank holding the writer (rank 0 on a team) touches
    // disk; the image every other rank assembled is identical and is
    // simply dropped.
    if (checkpoint_writer_)
        checkpoint_writer_->write(std::move(image));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    stats.checkpointSeconds += seconds;
    checkpoint_capture_seconds_ += seconds;
}

void
EvolutionDriver::step()
{
    const bool fc = mesh_->config().amrLevels > 1;

    if (mesh_->config().packInterior) {
        stepPacked(fc);
        return;
    }

    saveState(*mesh_);
    for (int stage = 1; stage <= 2; ++stage) {
        TaskList tl = buildStageGraph(stage, fc);
        runGraph(tl, stageExecOptions());

        comm_cells_ += exchange_.lastWireCells();
        boundary_messages_ += exchange_.lastBoundaryMessages();
        boundary_bytes_ += exchange_.lastBoundaryBytes();
        if (fc)
            comm_faces_ += mesh_->sharded()
                               ? cache_.totalWireFacesFor(
                                     mesh_->shardRank())
                               : cache_.totalWireFaces();
    }
    package_->fillDerived(*mesh_);
}

MeshBlockPack&
EvolutionDriver::ensurePack()
{
    pack_.ensureBuilt(*mesh_);
    return pack_;
}

/**
 * Fused-pack timestep (paper fig05 small-block regime): ghost exchange
 * and flux correction still run as boundary-plan task graphs, but
 * every interior phase is ONE hierarchical pack launch over all blocks
 * instead of one launch (or task) per block. The chunked
 * (block x cells) domain keeps all workers loaded even when
 * num_blocks < num_threads or blocks are tiny, and the per-launch pool
 * synchronization is paid once per phase rather than once per block.
 * The tradeoff versus the per-block graph is exchange/compute
 * overlap, which the launch-overhead savings dominate exactly where
 * packing is enabled.
 *
 * Fused compute is accounted into the task wall/compute counters so
 * the fig14-style overlap arithmetic stays well-defined in pack mode.
 */
void
EvolutionDriver::stepPacked(bool flux_correction)
{
    // vibe-lint: allow(obs-isolation) fused launches run outside any
    // task graph, so this clock is the only source of the fused
    // compute seconds the overlap/idle accounting folds in.
    using clock = std::chrono::steady_clock;
    MeshBlockPack& pack = ensurePack();
    const TaskExecOptions options = stageExecOptions();

    saveStatePack(*mesh_, pack);
    for (int stage = 1; stage <= 2; ++stage) {
        TaskList bounds = buildBoundsGraph();
        runGraph(bounds, options);

        const auto t_flux = clock::now();
        package_->calculateFluxesPack(*mesh_, pack);
        double fused_seconds =
            std::chrono::duration<double>(clock::now() - t_flux)
                .count();

        if (flux_correction) {
            TaskList fcorr = buildFluxCorrGraph();
            runGraph(fcorr, options);
        }

        const auto t_update = clock::now();
        package_->fluxDivergencePack(*mesh_, pack);
        stageUpdatePack(*mesh_, pack, stage, dt_);
        fused_seconds +=
            std::chrono::duration<double>(clock::now() - t_update)
                .count();
        accountFused(fused_seconds);

        comm_cells_ += exchange_.lastWireCells();
        boundary_messages_ += exchange_.lastBoundaryMessages();
        boundary_bytes_ += exchange_.lastBoundaryBytes();
        if (flux_correction)
            comm_faces_ += mesh_->sharded()
                               ? cache_.totalWireFacesFor(
                                     mesh_->shardRank())
                               : cache_.totalWireFaces();
    }
    package_->fillDerivedPack(*mesh_, pack);
}

TaskId
EvolutionDriver::addFusedRowTasks(TaskList& tl, const std::string& name,
                                  PlanPhase phase, bool send,
                                  std::vector<TaskId> deps,
                                  std::function<void()> after_end)
{
    const TaskId t_begin = tl.addTask(
        name + ":begin",
        [this, phase, send] {
            if (send)
                exchange_.beginFusedSend(phase);
            else
                exchange_.beginFusedSet(phase);
            return TaskStatus::Complete;
        },
        std::move(deps), TaskCategory::Comm);
    // The ":part<p>" suffix is non-numeric on purpose: the measured
    // cost harvest would otherwise fold partition p's clock onto gid p.
    std::vector<TaskId> parts;
    parts.reserve(GhostExchange::kFusedPartitions);
    for (int p = 0; p < GhostExchange::kFusedPartitions; ++p)
        parts.push_back(tl.addTask(
            name + ":part" + std::to_string(p),
            [this, phase, send, p] {
                if (send)
                    exchange_.packFusedPartition(phase, p);
                else
                    exchange_.unpackFusedPartition(phase, p);
                return TaskStatus::Complete;
            },
            {t_begin}, TaskCategory::Comm));
    return tl.addTask(
        name + ":end",
        [this, phase, send, after_end = std::move(after_end)] {
            if (send)
                exchange_.endFusedSend(phase);
            else
                exchange_.endFusedSet(phase);
            if (after_end)
                after_end();
            return TaskStatus::Complete;
        },
        std::move(parts), TaskCategory::Comm);
}

EvolutionDriver::FusedBoundsIds
EvolutionDriver::addFusedBoundsTasks(TaskList& tl)
{
    const TaskId t_start = tl.addTask(
        "StartReceiveBoundBufs",
        [this] {
            exchange_.startReceiveBoundBufs();
            return TaskStatus::Complete;
        },
        {}, TaskCategory::Comm);
    FusedBoundsIds ids;
    ids.send = addFusedRowTasks(tl, "SendBoundBufs:plan:bounds",
                                PlanPhase::Bounds, /*send=*/true,
                                {t_start});
    // One poll per inbound coalesced message: O(rank pairs), not
    // O(blocks). A message this replica sends itself (the self pair of
    // a rank shard; every pair on a classic mesh, which plays all
    // ranks' parts) cannot arrive before the send's end step isends
    // it, so its poll waits on that step rather than spinning through
    // the partitions. Only polls for a peer rank's messages start at
    // t_start, since those may land early.
    std::vector<TaskId> polls;
    const auto& msgs = exchange_.plan().messages(PlanPhase::Bounds);
    for (int id : exchange_.fusedRecvIds(PlanPhase::Bounds)) {
        const PlanMessage* m = &msgs[static_cast<std::size_t>(id)];
        const bool own = !mesh_->sharded() || m->src == m->dst;
        polls.push_back(tl.addTask(
            "ReceiveBoundBufs:plan:bounds:r" + std::to_string(m->src) +
                ">r" + std::to_string(m->dst),
            [this, m] {
                return exchange_.pollFusedMessage(*m)
                           ? TaskStatus::Complete
                           : TaskStatus::Iterate;
            },
            {own ? ids.send : t_start}, TaskCategory::Comm));
    }
    ids.set = addFusedRowTasks(
        tl, "SetBounds:plan:bounds", PlanPhase::Bounds, /*send=*/false,
        std::move(polls), [this] {
            // Physical fills run after ALL unpacks: each block's
            // ghosts are unpacked first, then filled.
            for (MeshBlock* block : mesh_->ownedBlocks())
                exchange_.applyPhysicalBoundariesBlock(*block);
        });
    return ids;
}

TaskId
EvolutionDriver::addFusedFluxCorrTasks(TaskList& tl,
                                       std::vector<TaskId> deps)
{
    const TaskId t_fsend =
        addFusedRowTasks(tl, "FluxCorrSend:plan:flux", PlanPhase::Flux,
                         /*send=*/true, std::move(deps));
    std::vector<TaskId> apply_deps{t_fsend};
    const auto& msgs = exchange_.plan().messages(PlanPhase::Flux);
    for (int id : exchange_.fusedRecvIds(PlanPhase::Flux)) {
        const PlanMessage* m = &msgs[static_cast<std::size_t>(id)];
        apply_deps.push_back(tl.addTask(
            "FluxCorrRecv:plan:flux:r" + std::to_string(m->src) +
                ">r" + std::to_string(m->dst),
            [this, m] {
                return exchange_.pollFusedMessage(*m)
                           ? TaskStatus::Complete
                           : TaskStatus::Iterate;
            },
            {t_fsend}, TaskCategory::Comm));
    }
    return addFusedRowTasks(tl, "FluxCorrApply:plan:flux",
                            PlanPhase::Flux, /*send=*/false,
                            std::move(apply_deps));
}

/**
 * One RK stage (paper §II-C) as a task graph: the boundary side is the
 * plan's fused chain, O(rank pairs) tasks plus a fixed partition count,
 * never O(blocks x faces). Each fused send or set is a serial begin
 * step, GhostExchange::kFusedPartitions row-partition tasks that every
 * worker of the rank can pick up, and a serial end step; one poll runs
 * per inbound coalesced message. The interior is a per-block chain
 * (fluxes -> divergence -> update). Tasks for distinct blocks touch
 * only their own block's data and the partitions write disjoint rows,
 * which is what makes threaded execution bitwise identical to the
 * serial scan. The tradeoff mirrors pack_interior: per-block
 * receive/compute overlap is traded for one kernel (and one message)
 * per phase per rank pair.
 */
TaskList
EvolutionDriver::buildStageGraph(int stage, bool flux_correction)
{
    TraceSpan span("BuildStageGraph", TraceCat::Driver,
                   mesh_->collectiveRank(), cycle_);
    // Serial point: if the rebuild hook fired, the plan rebuild
    // happens here, before any task can read the tables.
    exchange_.plan().ensureBuilt();
    TaskList tl;
    tl.setLabel("plan:bounds+flux stage " + std::to_string(stage));
    const FusedBoundsIds bounds = addFusedBoundsTasks(tl);

    const std::vector<MeshBlock*>& owned = mesh_->ownedBlocks();
    std::vector<TaskId> flux_tasks;
    flux_tasks.reserve(owned.size());
    for (MeshBlock* block : owned) {
        flux_tasks.push_back(tl.addTask(
            "CalculateFluxes:" + std::to_string(block->gid()),
            [this, block] {
                package_->calculateFluxesBlock(*mesh_, *block);
                return TaskStatus::Complete;
            },
            {bounds.set}));
    }

    // The fused correction gates every divergence: corrections only
    // flow once all fluxes exist.
    TaskId t_fapply = -1;
    if (flux_correction)
        t_fapply = addFusedFluxCorrTasks(tl, flux_tasks);

    for (std::size_t b = 0; b < owned.size(); ++b) {
        MeshBlock* block = owned[b];
        const std::string gid = std::to_string(block->gid());
        const TaskId t_div = tl.addTask(
            "FluxDivergence:" + gid,
            [this, block] {
                package_->fluxDivergenceBlock(*mesh_, *block);
                return TaskStatus::Complete;
            },
            {flux_correction ? t_fapply : flux_tasks[b]});
        // The update rewrites the interior the fused send's partitions
        // read, so it must trail the send's end step.
        tl.addTask(
            "WeightedSumData:" + gid,
            [this, block, stage] {
                stageUpdateBlock(*mesh_, *block, stage, dt_);
                return TaskStatus::Complete;
            },
            {t_div, bounds.send});
    }
    return tl;
}

TaskList
EvolutionDriver::buildBoundsGraph()
{
    exchange_.plan().ensureBuilt();
    TaskList tl;
    tl.setLabel("plan:bounds");
    addFusedBoundsTasks(tl);
    return tl;
}

TaskList
EvolutionDriver::buildFluxCorrGraph()
{
    exchange_.plan().ensureBuilt();
    TaskList tl;
    tl.setLabel("plan:flux");
    addFusedFluxCorrTasks(tl, {});
    return tl;
}

RefinementFlagMap
EvolutionDriver::gatherFlags(std::vector<FlagEntry> local,
                             double bytes_per_rank, CollAccount account)
{
    const std::vector<FlagEntry> all = world_->allGatherVec(
        mesh_->collectiveRank(), std::move(local), bytes_per_rank,
        account);
    RefinementFlagMap flags;
    for (const FlagEntry& entry : all)
        flags[entry.loc] = static_cast<RefinementFlag>(entry.flag);
    return flags;
}

RefinementFlagMap
EvolutionDriver::collectFlags()
{
    // Each rank decides for its owned shard only (tags on non-owned
    // replicas are stale); the union is all-gathered below, and
    // BlockTree::update sorts flagged leaves before processing, so the
    // replicated tree update is order-independent and deterministic.
    std::vector<FlagEntry> local;
    for (const MeshBlock* block : mesh_->ownedBlocks()) {
        RefinementFlag tag = block->tag();
        // Derefinement gap: a block must have existed for at least
        // `derefineGap` cycles before it may be coarsened (§II-G).
        if (tag == RefinementFlag::Derefine &&
            cycle_ - block->createdCycle() < config_.derefineGap)
            tag = RefinementFlag::None;
        if (tag != RefinementFlag::None)
            local.push_back({block->loc(), static_cast<int>(tag)});
    }
    // Flags are aggregated across ranks with an AllGather (one flag
    // per block).
    return gatherFlags(std::move(local),
                       4.0 * static_cast<double>(mesh_->numBlocks()) /
                           world_->nranks(),
                       CollAccount::Gather);
}

void
EvolutionDriver::loadBalancingAndAmr()
{
    const ExecContext& ctx = mesh_->ctx();
    last_refined_ = 0;
    last_derefined_ = 0;
    last_moved_ = 0;
    last_migrated_bytes_ = 0;
    last_lb_decision_ = 0;
    last_lb_imbalance_ = 0;
    last_lb_max_cost_ = 0;
    last_lb_mean_cost_ = 0;

    const bool do_amr = mesh_->config().amrLevels > 1 &&
                        config_.refineEvery > 0 &&
                        cycle_ % config_.refineEvery == 0;
    const bool do_lb =
        config_.lbEvery > 0 && cycle_ % config_.lbEvery == 0;

    // Fold this cycle's measured samples into block costs BEFORE any
    // restructure: samples are keyed by the gids the cycle stepped and
    // applyTreeUpdate renumbers them. The apply is a collective, and
    // cycle_/config_ are identical on every replica, so the team
    // enters it symmetrically. Refined/derefined blocks then inherit
    // the updated estimates through the mesh's cost split/sum.
    if (config_.lbCost == LbCostMode::Measured && do_lb)
        cost_model_.applyMeasuredCosts(*mesh_, *world_);

    BlockTree::UpdateResult update;
    if (do_amr) {
        tagger_->tagAll(*mesh_, time_, cycle_);

        {
            PhaseScope scope(ctx.profiler(), "UpdateMeshBlockTree");
            recordSerial(ctx, "collective", 1.0);
            update = mesh_->updateTree(collectFlags());
        }
    }

    {
        PhaseScope scope(ctx.profiler(), "Redistr.AndRef.MeshBlocks");
        if (update.changed()) {
            auto restructure = mesh_->applyTreeUpdate(update, cycle_);
            applyRestructureData(restructure);
            last_refined_ = static_cast<int>(restructure.refined.size());
            last_derefined_ =
                static_cast<int>(restructure.derefined.size());
        }
        if (do_lb) {
            auto lb = loadBalance(*mesh_, *world_, lbOptions());
            last_moved_ = lb.movedBlocks;
            last_migrated_bytes_ = lb.migratedStorageBytes;
            last_lb_decision_ = lb.adopted ? 1 : 2;
            last_lb_imbalance_ = lb.imbalance();
            last_lb_max_cost_ = lb.maxRankCost;
            last_lb_mean_cost_ = lb.meanRankCost;
        }
        if (update.changed() || last_moved_ > 0) {
            // BuildTagMapAndBoundaryBuffers + SetMeshBlockNeighbors.
            cache_.rebuild();
        }
    }
}

void
EvolutionDriver::applyRestructureData(
    const Mesh::Restructure& restructure)
{
    const ExecContext& ctx = mesh_->ctx();
    const bool sharded = mesh_->sharded();
    const int my_rank = mesh_->collectiveRank();

    // Prolongation is always owner-local: children inherit the
    // parent's rank, so the data and its destination live on one
    // rank. A sharded replica simply skips sets it does not own.
    for (const auto& refined : restructure.refined) {
        if (sharded && refined.parent->rank() != my_rank)
            continue;
        for (MeshBlock* child : refined.children) {
            ctx.setCurrentRank(child->rank());
            if (ctx.executing())
                prolongateParentToChild(ctx, *refined.parent, *child);
            else
                recordKernel(ctx, "ProlongRestrictLoop",
                             static_cast<double>(
                                 child->shape().interiorCells()),
                             {30.0, 8.0 * sizeof(double)},
                             static_cast<double>(child->shape().nx1));
        }
    }

    // Restriction can cross ranks: load balancing may have scattered a
    // sibling set, while the merged parent lands on the first child's
    // rank. Remote children restrict on their owner and ship the
    // coarse octant through a mailbox — send pass first, receive pass
    // second, so migrating sibling sets in both directions between two
    // ranks cannot deadlock.
    if (sharded && ctx.executing()) {
        for (const auto& derefined : restructure.derefined) {
            const int parent_rank = derefined.parent->rank();
            for (const auto& child : derefined.children) {
                if (child->rank() != my_rank ||
                    parent_rank == my_rank)
                    continue;
                ctx.setCurrentRank(my_rank);
                std::vector<double> payload =
                    restrictChildOctant(ctx, *child);
                const double bytes =
                    static_cast<double>(payload.size()) *
                    sizeof(double);
                ChannelId channel;
                channel.sender = child->loc();
                channel.receiver = derefined.parent->loc();
                channel.kind = ChannelKind::Block;
                // vibe-lint: allow(coalesced-comm) ChannelKind::Block
                // derefinement octant, not boundary traffic; sent at a
                // collectively synchronized restructure point.
                world_->isend(channel, my_rank, parent_rank,
                              std::move(payload), bytes);
            }
        }
        // vibe-lint: allow(obs-isolation) peer-wait deadline, not
        // timing instrumentation: bounds how long a parent waits for
        // a remote child's restriction octant.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(kPeerWaitSeconds));
        for (const auto& derefined : restructure.derefined) {
            if (derefined.parent->rank() != my_rank)
                continue;
            ctx.setCurrentRank(my_rank);
            for (const auto& child : derefined.children) {
                if (child->rank() == my_rank) {
                    restrictChildToParent(ctx, *child,
                                          *derefined.parent);
                    continue;
                }
                ChannelId channel;
                channel.sender = child->loc();
                channel.receiver = derefined.parent->loc();
                channel.kind = ChannelKind::Block;
                std::optional<Message> msg;
                while (!(msg = world_->receive(channel)).has_value()) {
                    // Not require(): its message args are evaluated
                    // every iteration, and failureReason() locks.
                    if (world_->failed())
                        panic("remote restriction aborted: ",
                              world_->failureReason());
                    require(std::chrono::steady_clock::now() < deadline,
                            "remote restriction timed out waiting for ",
                            child->loc().str());
                    std::this_thread::yield();
                }
                applyRestrictedOctant(ctx, *derefined.parent,
                                      child->loc(), msg->payload);
            }
        }
        return;
    }

    for (const auto& derefined : restructure.derefined) {
        for (const auto& child : derefined.children) {
            ctx.setCurrentRank(derefined.parent->rank());
            if (ctx.executing())
                restrictChildToParent(ctx, *child, *derefined.parent);
            else
                recordKernel(ctx, "ProlongRestrictLoop",
                             static_cast<double>(
                                 child->shape().interiorCells() / 8),
                             {10.0, 9.0 * sizeof(double)},
                             static_cast<double>(child->shape().nx1 / 2));
        }
    }
}

} // namespace vibe
