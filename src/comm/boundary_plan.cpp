#include "comm/boundary_plan.hpp"

#include <algorithm>
#include <tuple>

#include "exec/par_for.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

/**
 * Canonical channel ordering: the cache's pre-shuffle sort key. The
 * cache may shuffle its storage order (<comm> randomize_buffer_keys),
 * so directory order must come from the channel identities themselves
 * — independently built sender and receiver replicas then agree on
 * every entry's offset regardless of their caches' storage order.
 */
auto
canonicalKey(const ChannelId& id)
{
    return std::make_tuple(id.receiver.level, id.receiver.lx3,
                           id.receiver.lx2, id.receiver.lx1,
                           id.sender.level, id.sender.lx3, id.sender.lx2,
                           id.sender.lx1, id.o1, id.o2, id.o3);
}

} // namespace

const char*
planPhaseName(PlanPhase phase)
{
    return phase == PlanPhase::Bounds ? "bounds" : "flux";
}

BoundaryPlan::BoundaryPlan(Mesh& mesh, const BoundaryBufferCache& cache,
                           const RankWorld& world)
    : mesh_(&mesh), cache_(&cache), world_(&world)
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

void
BoundaryPlan::rebuild()
{
    const int nranks = world_->nranks();
    const int ncomp = mesh_->registry().ncompConserved();
    const std::size_t npairs =
        static_cast<std::size_t>(nranks) * nranks;

    for (int phase = 0; phase < kNumPlanPhases; ++phase) {
        auto& msgs = messages_[phase];
        msgs.clear();

        // Group channels by directed rank pair. Rank pairs that share
        // no boundary collect no entries and are elided entirely: no
        // PlanMessage, nothing on the wire, nothing to poll.
        std::vector<std::vector<PlanEntry>> pairs(npairs);
        const bool bounds = phase == static_cast<int>(PlanPhase::Bounds);
        const std::size_t nchannels =
            bounds ? cache_->bounds().size() : cache_->flux().size();
        auto endpoints = [&](int c) {
            if (bounds) {
                const BoundsChannel& ch = cache_->bounds()[c];
                return std::make_pair(ch.sender->rank(),
                                      ch.receiver->rank());
            }
            const FluxChannel& ch = cache_->flux()[c];
            return std::make_pair(ch.sender->rank(),
                                  ch.receiver->rank());
        };
        auto wire_units = [&](int c) {
            return bounds ? cache_->bounds()[c].wireCells()
                          : cache_->flux()[c].wireFaces();
        };
        auto id_of = [&](int c) -> const ChannelId& {
            return bounds ? cache_->bounds()[c].id
                          : cache_->flux()[c].id;
        };
        for (std::size_t c = 0; c < nchannels; ++c) {
            const auto [src, dst] = endpoints(static_cast<int>(c));
            require(src >= 0 && src < nranks && dst >= 0 &&
                        dst < nranks,
                    "channel endpoints outside the rank world: ", src,
                    " -> ", dst, " with ", nranks, " ranks");
            PlanEntry entry;
            entry.channel = static_cast<int>(c);
            entry.count = static_cast<std::size_t>(
                              wire_units(static_cast<int>(c))) *
                          ncomp;
            pairs[static_cast<std::size_t>(src) * nranks + dst]
                .push_back(entry);
        }

        const ChannelKind kind = bounds ? ChannelKind::CoalescedBounds
                                        : ChannelKind::CoalescedFlux;
        for (int src = 0; src < nranks; ++src) {
            for (int dst = 0; dst < nranks; ++dst) {
                auto& entries =
                    pairs[static_cast<std::size_t>(src) * nranks + dst];
                if (entries.empty())
                    continue;
                std::sort(entries.begin(), entries.end(),
                          [&](const PlanEntry& a, const PlanEntry& b) {
                              return canonicalKey(id_of(a.channel)) <
                                     canonicalKey(id_of(b.channel));
                          });
                PlanMessage msg;
                msg.src = src;
                msg.dst = dst;
                msg.id = coalescedChannelId(src, dst, kind);
                for (PlanEntry& entry : entries) {
                    entry.offset = msg.doubles;
                    msg.doubles += entry.count;
                    msg.wireUnits += wire_units(entry.channel);
                }
                // One coalesced message carries exactly the bytes of
                // its entries' channels.
                msg.bytes = static_cast<double>(msg.doubles) *
                            sizeof(double);
                msg.entries = std::move(entries);
                msgs.push_back(std::move(msg));
            }
        }

        auto& send_ids = send_ids_[phase];
        auto& recv_ids = recv_ids_[phase];
        send_ids.assign(static_cast<std::size_t>(nranks), {});
        recv_ids.assign(static_cast<std::size_t>(nranks), {});
        for (std::size_t m = 0; m < msgs.size(); ++m) {
            send_ids[static_cast<std::size_t>(msgs[m].src)].push_back(
                static_cast<int>(m));
            recv_ids[static_cast<std::size_t>(msgs[m].dst)].push_back(
                static_cast<int>(m));
        }
    }

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
