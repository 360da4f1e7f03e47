/**
 * @file task_list.hpp
 * Hierarchical task-based execution (paper §II-C): Parthenon sequences
 * each timestep stage as a dependency graph of tasks; polling tasks
 * (e.g. ReceiveBoundBufs) may return Iterate to be re-run until their
 * communication completes.
 *
 * Execution has two backends behind one interface:
 *
 * - A serial scan (the historical behavior, bit for bit): repeatedly
 *   sweep the task vector running every ready task until all complete.
 * - A thread-pool executor: ready tasks are dispatched onto an
 *   ExecutionSpace (the PR-1 ThreadPoolSpace), each worker pulling
 *   from a shared ready queue; Iterate tasks are re-queued as polling
 *   tasks behind other ready work. Kernels launched from inside a task
 *   body degrade to in-line execution on the worker (the space's
 *   nested-launch rule), so a task is a unit of concurrency exactly as
 *   in Parthenon's one-task-per-stream model.
 *
 * Both backends record wall time per task (summed over Iterate
 * retries) and aggregate it by TaskCategory, which is what the
 * fig14 overlap bench uses to report how much exchange time hides
 * behind interior compute.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vibe {

class ExecutionSpace;

/** Result of running one task once. */
enum class TaskStatus
{
    Complete, ///< Done; dependents may now run.
    Iterate,  ///< Not finished (e.g. waiting on messages); re-run later.
};

/** Coarse task classification for overlap accounting. */
enum class TaskCategory
{
    Compute, ///< Interior kernel work (fluxes, divergence, updates).
    Comm,    ///< Boundary pack/poll/unpack and flux-correction traffic.
};

using TaskId = int;
using TaskFn = std::function<TaskStatus()>;

/** Execution parameters for TaskList::execute. */
struct TaskExecOptions
{
    /** Safety bound on full scans of the serial backend. */
    int max_passes = 1000;
    /**
     * Consecutive zero-completion scans (serial) or idle polls scaled
     * by the task count (threaded) tolerated before the executor
     * panics naming the stuck tasks. Distinguishes a permanently
     * blocked polling task (progress stall) from a plain dependency
     * cycle, which is detected immediately.
     */
    int stall_passes = 100;
    /**
     * Space ready tasks are dispatched on. nullptr or concurrency 1
     * selects the serial scan (bit-exact seed behavior).
     */
    ExecutionSpace* space = nullptr;
    /**
     * Progress may arrive from outside this graph (another rank's
     * driver thread delivering mailbox messages). Zero-completion
     * scans then yield the CPU instead of counting toward the stall
     * panic, the pass bound is lifted, and a genuinely stuck graph is
     * detected by wall clock (`external_stall_seconds`) rather than by
     * pass count — a poll loop cannot know how long a peer needs.
     */
    bool external_progress = false;
    /** Wall-clock stall bound when external_progress is set. */
    double external_stall_seconds = 120.0;
    /**
     * Optional fast-abort probe for external_progress mode: polled on
     * zero-completion scans; returning a non-empty string panics
     * immediately with that string as the cause (a peer rank failed —
     * nothing will ever deliver) instead of burning the full
     * wall-clock stall bound. The string is the failing rank's
     * original error message, so every unwinding peer reports the
     * root cause and not just "a peer failed".
     */
    std::function<std::string()> external_abort;
};

/**
 * A task graph executor with Parthenon-style semantics. Tasks are
 * added with explicit dependencies; execute() runs them to completion
 * on the configured backend. A cycle panics immediately; a polling
 * task that stops making progress panics with the incomplete task
 * names after the stall bound.
 */
class TaskList
{
  public:
    /**
     * Add a task.
     * @param deps Tasks that must complete before this one runs.
     * @param category Overlap-accounting class (Compute by default).
     * @return Id usable as a dependency for later tasks.
     */
    TaskId addTask(std::string name, TaskFn fn,
                   std::vector<TaskId> deps = {},
                   TaskCategory category = TaskCategory::Compute);

    /** Number of tasks added. */
    std::size_t size() const { return tasks_.size(); }

    /** Name and direct dependencies of a task (structure checks). */
    const std::string& name(TaskId id) const { return tasks_.at(id).name; }
    const std::vector<TaskId>& deps(TaskId id) const
    {
        return tasks_.at(id).deps;
    }

    /**
     * Label this graph for diagnostics: stall/deadlock panics prefix
     * the incomplete-task listing with it, so a report names the graph
     * (e.g. the boundary-plan phase) and not just its task names.
     */
    void setLabel(std::string label) { label_ = std::move(label); }
    const std::string& label() const { return label_; }

    /** Run all tasks to completion on the serial backend. */
    void execute(int max_passes = 1000);

    /** Run all tasks to completion with explicit options. */
    void execute(const TaskExecOptions& options);

    /**
     * Names in completion order of the last execute() call. Serial
     * execution completes tasks in deterministic scan order; the
     * threaded executor records the actual completion sequence, which
     * is always a topological order of the dependency graph.
     */
    const std::vector<std::string>& completionOrder() const
    {
        return completion_order_;
    }

    /** Wall seconds of the last execute() call. */
    double lastExecuteSeconds() const { return last_execute_seconds_; }

    /**
     * Attribute this graph's task spans to (rank, cycle) in the obs
     * timeline. Both backends emit one span per task *attempt*
     * (attempts that return Iterate carry TraceEvent::kPollRetry, so
     * non-retry span counts are deterministic: exactly one completing
     * attempt per task). No-op overhead when tracing is off.
     */
    void setTrace(int rank, std::int64_t cycle)
    {
        trace_rank_ = rank;
        trace_cycle_ = cycle;
    }

    /**
     * Longest dependency chain of the last execute(), in summed task
     * seconds — the wall-clock lower bound no amount of concurrency
     * can beat. A single forward pass suffices because addTask
     * guarantees every dependency has a lower id.
     */
    double criticalPathSeconds() const;

    /**
     * Summed task wall seconds of the last execute() for one category
     * (Iterate retries included). Categories can sum to more than
     * lastExecuteSeconds() when tasks overlap — that surplus is the
     * communication time hidden behind compute.
     */
    double categorySeconds(TaskCategory category) const;

    /**
     * Visit every task's (name, category, measured seconds) after an
     * execute(). Per-block graphs suffix task names with ":<gid>", so
     * a visitor can re-attribute this graph's wall clocks to blocks
     * (the measured-cost load balancer's input).
     */
    template <typename Fn>
    void forEachTask(Fn&& fn) const
    {
        for (const Task& task : tasks_)
            fn(task.name, task.category, task.seconds);
    }

  private:
    struct Task
    {
        std::string name;
        TaskFn fn;
        std::vector<TaskId> deps;
        TaskCategory category = TaskCategory::Compute;
        bool complete = false;
        double seconds = 0;
    };

    void resetRunState();
    void executeSerial(const TaskExecOptions& options);
    void executeThreaded(const TaskExecOptions& options,
                         ExecutionSpace& space);
    std::string incompleteNames() const;

    std::vector<Task> tasks_;
    std::vector<std::string> completion_order_;
    std::string label_;
    double last_execute_seconds_ = 0;
    int trace_rank_ = 0;
    std::int64_t trace_cycle_ = -1;
};

} // namespace vibe
