#include "comm/boundary_plan.hpp"

#include <algorithm>

#include "exec/par_for.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

/** Wire cells (bounds) or faces (flux) one channel carries. */
std::int64_t
wireUnits(const BoundsChannel& ch)
{
    return ch.wireCells();
}

std::int64_t
wireUnits(const FluxChannel& ch)
{
    return ch.wireFaces();
}

} // namespace

const char*
planPhaseName(PlanPhase phase)
{
    return phase == PlanPhase::Bounds ? "bounds" : "flux";
}

std::vector<int>
splitRowsByCost(const std::vector<double>& costs)
{
    // Row r joins the partition its cost midpoint falls in. The split
    // depends only on the plan (never on the thread count), so the task
    // graph, and every traced event count, is the same at any
    // concurrency.
    const int n = static_cast<int>(costs.size());
    std::vector<int> start(kPlanPartitions + 1, n);
    start[0] = 0;
    double total = 0;
    for (double cost : costs)
        total += cost;
    if (total <= 0)
        return start;
    double prefix = 0;
    int part = 0;
    for (int r = 0; r < n; ++r) {
        const double cost = costs[static_cast<std::size_t>(r)];
        const int p = std::min(
            kPlanPartitions - 1,
            static_cast<int>(kPlanPartitions * (prefix + 0.5 * cost) /
                             total));
        while (part < p)
            start[++part] = r;
        prefix += cost;
    }
    return start;
}

BoundaryPlan::BoundaryPlan(Mesh& mesh, const BoundaryBufferCache& cache,
                           const RankWorld& world)
    : mesh_(&mesh), cache_(&cache), world_(&world),
      ncomp_(mesh.registry().ncompConserved())
{
}

void
BoundaryPlan::invalidate()
{
    LockGuard lock(mutex_);
    built_ = false;
    ++invalidate_count_;
}

void
BoundaryPlan::ensureBuilt()
{
    LockGuard lock(mutex_);
    if (built_ && generation_ == cache_->rebuildCount())
        return;
    rebuild();
}

bool
BoundaryPlan::current() const
{
    LockGuard lock(mutex_);
    return built_ && generation_ == cache_->rebuildCount();
}

std::uint64_t
BoundaryPlan::invalidateCount() const
{
    LockGuard lock(mutex_);
    return invalidate_count_;
}

std::uint64_t
BoundaryPlan::buildCount() const
{
    LockGuard lock(mutex_);
    return build_count_;
}

void
BoundaryPlan::requireCurrent() const
{
    LockGuard lock(mutex_);
    require(built_, "BoundaryPlan used before ensureBuilt()");
    require(generation_ == cache_->rebuildCount(),
            "stale BoundaryPlan: built at cache generation ",
            generation_, " but the cache is at ", cache_->rebuildCount(),
            " (was invalidate() chained into the rebuild hook?)");
}

const std::vector<PlanMessage>&
BoundaryPlan::messages(PlanPhase phase) const
{
    requireCurrent();
    return messages_[static_cast<int>(phase)];
}

const std::vector<int>&
BoundaryPlan::sendIds(PlanPhase phase, int rank) const
{
    requireCurrent();
    return send_ids_[static_cast<int>(phase)].at(
        static_cast<std::size_t>(rank));
}

const std::vector<int>&
BoundaryPlan::recvIds(PlanPhase phase, int rank) const
{
    requireCurrent();
    return recv_ids_[static_cast<int>(phase)].at(
        static_cast<std::size_t>(rank));
}

const PlanMessage*
BoundaryPlan::messageFor(PlanPhase phase, int src, int dst) const
{
    requireCurrent();
    const auto& msgs = messages_[static_cast<int>(phase)];
    const auto it = std::lower_bound(
        msgs.begin(), msgs.end(), std::make_pair(src, dst),
        [](const PlanMessage& m, const std::pair<int, int>& key) {
            return std::make_pair(m.src, m.dst) < key;
        });
    if (it == msgs.end() || it->src != src || it->dst != dst)
        return nullptr;
    return &*it;
}

const PlanDirect&
BoundaryPlan::direct(PlanPhase phase, int rank) const
{
    requireCurrent();
    return direct_[static_cast<int>(phase)].at(
        static_cast<std::size_t>(rank));
}

EntryModel
BoundaryPlan::entryModel(PlanPhase phase, int channel) const
{
    const double ncomp = ncomp_;
    EntryModel model;
    if (phase == PlanPhase::Bounds) {
        const BoundsChannel& ch = cache_->bounds()[channel];
        model.packItems = static_cast<double>(ch.wireCells()) * ncomp;
        model.packInnermost =
            (ch.levelDiff == 1 ? ch.recv : ch.send).i.count();
        model.unpackItems = static_cast<double>(ch.recv.cells()) * ncomp;
        model.unpackInnermost = ch.recv.i.count();
    } else {
        const FluxChannel& ch = cache_->flux()[channel];
        model.packItems = model.unpackItems =
            static_cast<double>(ch.wireFaces()) * ncomp;
        model.packInnermost = model.unpackInnermost =
            ch.recvFaces.i.count();
    }
    return model;
}

void
BoundaryPlan::rebuild()
{
    const int nranks = world_->nranks();
    const std::size_t npairs =
        static_cast<std::size_t>(nranks) * nranks;

    auto build = [&](PlanPhase phase, const auto& channels) {
        // One pass in storage order, grouping channels by directed rank
        // pair. The cache stores its channels in canonical order, so
        // every group comes out sorted by canonical key: independently
        // built sender and receiver replicas agree on every directory
        // offset without a sort. The pass checks that premise.
        std::vector<std::vector<PlanEntry>> pairs(npairs);
        std::vector<std::int64_t> units(npairs, 0);
        for (std::size_t c = 0; c < channels.size(); ++c) {
            const auto& ch = channels[c];
            if (c > 0 && !canonicalLess(channels[c - 1].id, ch.id))
                panic("BoundaryPlan: buffer cache is not in canonical "
                      "order at ", planPhaseName(phase), " channel ", c);
            const int src = ch.sender->rank();
            const int dst = ch.receiver->rank();
            require(src >= 0 && src < nranks && dst >= 0 &&
                        dst < nranks,
                    "channel endpoints outside the rank world: ", src,
                    " -> ", dst, " with ", nranks, " ranks");
            const std::size_t pair =
                static_cast<std::size_t>(src) * nranks + dst;
            auto& entries = pairs[pair];
            PlanEntry entry;
            entry.channel = static_cast<int>(c);
            entry.offset = entries.empty() ? 0
                                           : entries.back().offset +
                                                 entries.back().count;
            entry.count = static_cast<std::size_t>(wireUnits(ch)) *
                          static_cast<std::size_t>(ncomp_);
            entries.push_back(entry);
            units[pair] += wireUnits(ch);
        }

        // Rank pairs that share no boundary collect no entries and are
        // elided entirely: no PlanMessage, nothing on the wire, nothing
        // to poll.
        const int p = static_cast<int>(phase);
        const ChannelKind kind = phase == PlanPhase::Bounds
                                     ? ChannelKind::CoalescedBounds
                                     : ChannelKind::CoalescedFlux;
        auto& msgs = messages_[p];
        auto& direct = direct_[p];
        msgs.clear();
        direct.assign(static_cast<std::size_t>(nranks), PlanDirect{});
        for (int src = 0; src < nranks; ++src) {
            for (int dst = 0; dst < nranks; ++dst) {
                const std::size_t pair =
                    static_cast<std::size_t>(src) * nranks + dst;
                auto& entries = pairs[pair];
                if (entries.empty())
                    continue;
                // The (modeled) message carries exactly the bytes of
                // its entries' channels.
                const std::size_t doubles =
                    entries.back().offset + entries.back().count;
                const double bytes =
                    static_cast<double>(doubles) * sizeof(double);
                if (src == dst) {
                    // Same-rank entries become direct rows, balanced
                    // by the cells each row writes.
                    PlanDirect& d = direct[static_cast<std::size_t>(src)];
                    std::vector<double> costs;
                    costs.reserve(entries.size());
                    for (const PlanEntry& entry : entries) {
                        const EntryModel m = entryModel(phase, entry.channel);
                        costs.push_back(m.unpackItems);
                        d.model.packItems += m.packItems;
                        d.model.packInnermost += m.packInnermost;
                        d.model.unpackItems += m.unpackItems;
                        d.model.unpackInnermost += m.unpackInnermost;
                    }
                    d.partStart = splitRowsByCost(costs);
                    d.doubles = doubles;
                    d.bytes = bytes;
                    d.wireUnits = units[pair];
                    d.entries = std::move(entries);
                    continue;
                }
                PlanMessage msg;
                msg.src = src;
                msg.dst = dst;
                msg.id = coalescedChannelId(src, dst, kind);
                msg.doubles = doubles;
                msg.bytes = bytes;
                msg.wireUnits = units[pair];
                msg.entries = std::move(entries);
                msgs.push_back(std::move(msg));
            }
        }

        auto& send_ids = send_ids_[p];
        auto& recv_ids = recv_ids_[p];
        send_ids.assign(static_cast<std::size_t>(nranks), {});
        recv_ids.assign(static_cast<std::size_t>(nranks), {});
        for (std::size_t m = 0; m < msgs.size(); ++m) {
            send_ids[static_cast<std::size_t>(msgs[m].src)].push_back(
                static_cast<int>(m));
            recv_ids[static_cast<std::size_t>(msgs[m].dst)].push_back(
                static_cast<int>(m));
        }
    };
    build(PlanPhase::Bounds, cache_->bounds());
    build(PlanPhase::Flux, cache_->flux());

    generation_ = cache_->rebuildCount();
    built_ = true;
    ++build_count_;

    // Serial cost: the directory walk touches every channel once, the
    // analogue of the cache's metadata-filling term.
    recordSerialAt(mesh_->ctx(), "BuildBoundaryPlan",
                   mesh_->collectiveRank(), "boundary_plan_metadata",
                   static_cast<double>(cache_->bounds().size() +
                                       cache_->flux().size()));
}

} // namespace vibe
