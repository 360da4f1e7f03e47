/**
 * @file block_cost_model.hpp
 * Measured per-block cost estimation for load balancing (§V).
 *
 * The task-graph executor already wall-clocks every task and the fused
 * pack path batches per-block item runs; per-block task names carry a
 * ":<gid>" suffix, so the driver can fold one cycle's task seconds
 * back onto blocks. This model accumulates those samples, normalizes
 * them against the *global* mean block seconds (a Sum collective — a
 * per-rank mean would erase exactly the cross-rank imbalance the
 * partitioner needs to see), and folds them into each owned block's
 * cost with an exponential moving average. Costs are expressed on the
 * uniform `interiorCells()` scale, so warm checkpointed estimates,
 * fresh defaults, and measured updates mix consistently and the
 * partitioner never needs to know which mode produced a number.
 */
#pragma once

#include <cstddef>
#include <map>
#include <string>

namespace vibe {

class Mesh;
class RankWorld;

/** Which per-block cost feeds the SFC partitioner (`<amr> lb_cost`). */
enum class LbCostMode
{
    Uniform,  ///< Historical behavior: cost = interiorCells().
    Measured, ///< EMA of per-block measured task seconds.
};

/** Parse "uniform" / "measured"; panics on anything else. */
LbCostMode lbCostModeFromName(const std::string& name);

/** Knob-value name of a mode ("uniform" / "measured"). */
const char* lbCostModeName(LbCostMode mode);

/** VIBE_LB_COST environment knob, or `fallback` when unset/empty. */
LbCostMode envLbCostMode(LbCostMode fallback);

/**
 * Accumulates one cycle's per-block measured seconds and applies them
 * to block costs. One instance per driver (per rank); apply is a
 * collective every replica must enter on the same cycles.
 */
class BlockCostModel
{
  public:
    /**
     * EMA weight of the newest cycle's measurement: converges to ~97%
     * of a shifted workload within ~10 lb intervals while damping the
     * single-cycle timer jitter that would otherwise wobble the SFC
     * split point (the hysteresis trigger is the second line of
     * defense, rejecting the marginal repartitions jitter proposes).
     */
    static constexpr double kAlpha = 0.3;

    /** Drop the previous cycle's samples. Call at the top of a cycle. */
    void beginCycle() { samples_.clear(); }

    /** Add `seconds` of measured work attributed to block `gid`. */
    void addSample(int gid, double seconds)
    {
        if (seconds > 0)
            samples_[gid] += seconds;
    }

    /** Accumulated seconds for `gid` this cycle (0 if none). */
    double sample(int gid) const
    {
        auto it = samples_.find(gid);
        return it == samples_.end() ? 0.0 : it->second;
    }

    /** Distinct blocks sampled this cycle. */
    std::size_t numSamples() const { return samples_.size(); }

    /**
     * Fold this cycle's samples into the owned blocks' costs:
     * cost <- (1-a)*cost + a * (seconds / global_mean_seconds) *
     * interiorCells(). Collective (one Sum allReduce); a no-op when no
     * rank measured any time (counting mode). Must run before any
     * restructure renumbers gids — samples are keyed by the gids the
     * cycle stepped.
     */
    void applyMeasuredCosts(Mesh& mesh, RankWorld& world);

  private:
    // Ordered map: replicated consumers iterate deterministically.
    std::map<int, double> samples_;
};

namespace detail {

/**
 * The block gid a task's wall clock belongs to: the all-digit
 * ":<gid>" suffix of per-block task names ("CalculateFluxes:17"), or
 * -1. Fused-phase ("...:plan:bounds:part3") and rank-pair poll
 * (":r0>r1") names end in non-numeric suffixes, so they stay out of
 * the measured-cost harvest.
 */
int taskNameGid(const std::string& name);

} // namespace detail

} // namespace vibe
