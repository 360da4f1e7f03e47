/**
 * @file rank_world.hpp
 * Simulated MPI world.
 *
 * All ranks live in one process; messages are routed through per-channel
 * mailboxes with non-blocking send / probe / receive semantics matching
 * the subset of MPI Parthenon uses (Isend, Iprobe, Test, AllGather,
 * AllReduce). Local (same-rank) and remote (cross-rank) traffic is
 * accounted separately, as are collective invocations — these counters
 * drive the communication and memory terms of the performance model
 * (paper §IV-E, Fig. 10).
 *
 * Two operating modes share one interface:
 *
 * - Modeled (the default): a single driver steps every block and the
 *   collectives are accounting-only — `allReduceValue` and
 *   `allGatherVec` return their input untouched after bumping the
 *   traffic counters, exactly the pre-sharding behavior.
 * - Concurrent (`concurrent = true`): one driver thread per rank. The
 *   collectives become real rendezvous operations — every rank blocks
 *   until all `nranks` contributions arrived, the contributions are
 *   combined deterministically (rank order), and all ranks receive the
 *   identical result. This is what makes the rank-sharded execution
 *   path a measurement rather than a model (§V).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mesh/logical_location.hpp"
#include "util/logging.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

/** What a point-to-point channel carries. */
enum class ChannelKind : std::uint8_t
{
    Bounds = 0, ///< Ghost-cell boundary buffers.
    Flux = 1,   ///< Flux-correction faces.
    Block = 2,  ///< Whole-block state (migration, remote restriction).
    /** All Bounds payloads between one (src, dst) rank pair, fused
     *  into a single message with an offset directory (BoundaryPlan). */
    CoalescedBounds = 3,
    /** All Flux payloads between one (src, dst) rank pair, fused. */
    CoalescedFlux = 4,
};

/**
 * Stable identity of a directed communication channel: (sender block,
 * receiver block, direction as seen from the receiver, payload kind).
 * Mirrors Parthenon's boundary-buffer tag map keys.
 */
struct ChannelId
{
    LogicalLocation sender;
    LogicalLocation receiver;
    std::int8_t o1 = 0, o2 = 0, o3 = 0;
    ChannelKind kind = ChannelKind::Bounds;

    friend bool operator==(const ChannelId&, const ChannelId&) = default;
};

struct ChannelIdHash
{
    std::size_t operator()(const ChannelId& id) const;
};

/**
 * Mailbox channel for one coalesced (src rank -> dst rank) boundary
 * message. Rank indices are encoded in the location fields at level -1,
 * which no real block can occupy (tree levels are >= 0), so coalesced
 * channels can never collide with per-channel or Block channel ids.
 */
inline ChannelId
coalescedChannelId(int src, int dst, ChannelKind kind)
{
    ChannelId id;
    id.sender.level = -1;
    id.sender.lx1 = src;
    id.receiver.level = -1;
    id.receiver.lx1 = dst;
    id.kind = kind;
    return id;
}

/** One in-flight message. */
struct Message
{
    int src = 0, dst = 0;
    std::vector<double> payload; ///< Real data (empty in counting mode).
    double bytes = 0;            ///< Modeled wire size.
};

/** Cumulative traffic counters consumed by the performance model. */
struct Traffic
{
    std::uint64_t localMessages = 0;
    std::uint64_t remoteMessages = 0;
    double localBytes = 0;
    double remoteBytes = 0;
    std::uint64_t allGathers = 0;
    std::uint64_t allReduces = 0;
    double collectiveBytes = 0;
    std::uint64_t probes = 0;
    std::uint64_t tests = 0;
    /**
     * Boundary-payload messages (Bounds/Flux and their coalesced
     * forms; Block migration traffic excluded) and their modeled
     * bytes. Both are subsets of the local/remote totals above — they
     * isolate the ghost-exchange term the BoundaryPlan coalesces, so
     * benches can report messagesPerCycle / boundaryBytesPerCycle.
     */
    std::uint64_t boundaryMessages = 0;
    double boundaryBytes = 0;

    std::uint64_t totalMessages() const
    {
        return localMessages + remoteMessages;
    }
    double totalBytes() const { return localBytes + remoteBytes; }
};

/**
 * Wall seconds any wait on peer-rank progress (mailbox polls, stage
 * graphs, migration receives, remote restrictions) tolerates before
 * declaring the team stuck. One shared policy constant so every path
 * that must unwind together on a rank failure aborts consistently.
 */
inline constexpr double kPeerWaitSeconds = 120.0;

/** Combine operation for value-carrying collectives. */
enum class CollOp { Min, Max, Sum };

/** How a collective is charged to the traffic counters. */
enum class CollAccount
{
    Gather, ///< allGathers++, collectiveBytes += bytes * nranks.
    Reduce, ///< allReduces++, collectiveBytes += bytes.
    None,   ///< Pure synchronization (barrier), not charged.
};

/**
 * The simulated communicator. Delivery is immediate (a message becomes
 * probe-able as soon as it is sent); the *cost* of transport is applied
 * later by the performance model, which is the right decomposition for
 * a single-node characterization where MPI progress is driven by
 * polling (§II-D).
 *
 * Point-to-point operations and collectives are internally locked so
 * the task-graph executor can issue sends and probes from concurrent
 * per-block tasks; `traffic()` must only be read at quiescent points
 * (no exchange in flight), as the driver does between phases.
 */
class RankWorld
{
  public:
    /**
     * @param concurrent Real rendezvous collectives (one driver thread
     *        per rank must participate); false keeps the modeled
     *        accounting-only behavior, bit for bit.
     */
    explicit RankWorld(int nranks, bool concurrent = false);

    int nranks() const { return nranks_; }
    /** True when collectives are real rendezvous operations. */
    bool concurrent() const { return concurrent_; }

    /** Non-blocking send on `channel` from rank `src` to rank `dst`. */
    void isend(const ChannelId& channel, int src, int dst,
               std::vector<double> payload, double bytes);

    /** MPI_Iprobe analogue: is a message pending on `channel`? */
    bool iprobe(const ChannelId& channel);

    /** MPI_Test + receive: take the pending message, if any. */
    std::optional<Message> receive(const ChannelId& channel);

    /**
     * Silently drop any messages pending on `channel` (no traffic is
     * accounted). Used to clear stale deliveries left behind by an
     * exchange that threw mid-cycle.
     * @return Number of messages discarded.
     */
    std::size_t discardPending(const ChannelId& channel);

    /** Messages still undelivered (should be 0 between phases). */
    std::size_t pendingCount() const;

    /** AllGather of `bytes_per_rank` contributed by every rank. */
    void allGather(double bytes_per_rank);

    /** AllReduce over a `bytes`-sized payload. */
    void allReduce(double bytes);

    /**
     * Account a bulk point-to-point transfer (block redistribution)
     * without queuing a deliverable message.
     */
    void accountTransfer(int src, int dst, double bytes);

    // --- Real collectives (rendezvous in concurrent mode) ------------

    /**
     * Block until every rank arrived. Accounting-only no-op in modeled
     * mode.
     */
    void barrier(int rank);

    /**
     * AllReduce of one double: every rank contributes `value`; all
     * receive the rank-order fold under `op` (exact for Min/Max,
     * deterministic for Sum). Modeled mode: accounts an allReduce of
     * `bytes` and returns `value` unchanged — the historical behavior.
     */
    double allReduceValue(int rank, double value, CollOp op,
                          double bytes);

    /**
     * AllGather of a per-rank vector; the result is the rank-order
     * concatenation, identical on every rank. Modeled mode: accounts
     * and returns `mine` unchanged. `T` must be trivially copyable.
     */
    template <typename T>
    std::vector<T> allGatherVec(int rank, std::vector<T> mine,
                                double bytes, CollAccount account);

    /**
     * Mark the world failed (a peer rank threw). Wakes every rendezvous
     * waiter with an error so no rank hangs on a dead peer; polling
     * loops should also consult failed(). The first non-empty `reason`
     * (normally the failing rank's original exception message) wins and
     * is echoed by failureReason() and every abort thrown by waiters.
     */
    void markFailed(const std::string& reason);
    void markFailed() { markFailed(std::string()); }
    bool failed() const { return failed_.load(); }

    /**
     * The recorded failure cause, or a generic "a peer rank failed"
     * when none was supplied. Meaningful only after failed() is true.
     */
    std::string failureReason() const;

    /**
     * Snapshot of the cumulative traffic counters, taken under the
     * mailbox mutex so it is consistent even while peer-rank threads
     * are mid-exchange (the counters themselves are only meaningful at
     * quiescent points, but reading them must never be a data race).
     */
    Traffic traffic() const
    {
        LockGuard lock(mutex_);
        return traffic_;
    }
    void resetTraffic()
    {
        LockGuard lock(mutex_);
        traffic_ = Traffic{};
    }

  private:
    using Combiner =
        std::shared_ptr<void> (*)(const std::vector<const void*>&);

    /**
     * Generation rendezvous: deposit `contribution`, wait for all
     * ranks; the last arrival runs `combine` over the rank-ordered
     * contribution slots and publishes the shared result.
     */
    std::shared_ptr<void> rendezvous(int rank, const void* contribution,
                                     Combiner combine, double bytes,
                                     CollAccount account);

    void accountCollective(double bytes, CollAccount account);

    int nranks_;
    bool concurrent_;
    /**
     * Mailbox mutex. Lock order: a thread holding coll_mutex_ may take
     * mutex_ (the last rendezvous arrival accounts its collective);
     * never the reverse.
     */
    mutable Mutex mutex_ VIBE_ACQUIRED_AFTER(coll_mutex_);
    // vibe-lint: allow(ordered-containers) mailboxes_ is never
    // iterated — delivery order comes from the per-channel FIFO deques,
    // so the map's hash order cannot feed message order.
    std::unordered_map<ChannelId, std::deque<Message>, ChannelIdHash>
        mailboxes_ VIBE_GUARDED_BY(mutex_);
    std::size_t pending_total_ VIBE_GUARDED_BY(mutex_) = 0;
    Traffic traffic_ VIBE_GUARDED_BY(mutex_);

    /** failureReason() with coll_mutex_ already held (rendezvous). */
    std::string failureReasonLocked() const VIBE_REQUIRES(coll_mutex_);

    // Rendezvous state (own lock: waiters must not stall the mailbox).
    mutable Mutex coll_mutex_;
    CondVar coll_cv_;
    std::vector<const void*> coll_slots_ VIBE_GUARDED_BY(coll_mutex_);
    std::shared_ptr<void> coll_result_ VIBE_GUARDED_BY(coll_mutex_);
    int coll_arrived_ VIBE_GUARDED_BY(coll_mutex_) = 0;
    std::uint64_t coll_generation_ VIBE_GUARDED_BY(coll_mutex_) = 0;
    std::atomic<bool> failed_{false};
    std::string failure_reason_ VIBE_GUARDED_BY(coll_mutex_);
};

template <typename T>
std::vector<T>
RankWorld::allGatherVec(int rank, std::vector<T> mine, double bytes,
                        CollAccount account)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "allGatherVec payloads must be trivially copyable");
    if (!concurrent_) {
        accountCollective(bytes, account);
        return mine;
    }
    const Combiner combine =
        [](const std::vector<const void*>& slots) -> std::shared_ptr<void> {
        auto out = std::make_shared<std::vector<T>>();
        for (const void* slot : slots) {
            const auto& v = *static_cast<const std::vector<T>*>(slot);
            out->insert(out->end(), v.begin(), v.end());
        }
        return out;
    };
    std::shared_ptr<void> result =
        rendezvous(rank, &mine, combine, bytes, account);
    return std::vector<T>(
        *std::static_pointer_cast<std::vector<T>>(result));
}

} // namespace vibe
