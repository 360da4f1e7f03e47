#include "exec/execution_space.hpp"

#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

namespace {

/**
 * Set while a thread is inside a pool launch — permanently for pool
 * workers, and for the calling thread for the duration of its
 * forEachChunk — so a nested launch from inside a kernel body degrades
 * to in-line execution instead of corrupting the job the pool is
 * already running.
 */
thread_local bool tls_inside_launch = false;

std::int64_t
chunkBound(std::int64_t n, int nchunks, int chunk)
{
    return n * chunk / nchunks;
}

} // namespace

struct ThreadPoolSpace::Impl
{
    std::vector<std::thread> workers;
    Mutex mutex;
    CondVar start_cv;
    CondVar done_cv;

    // Current job, published under `mutex` and identified by
    // `generation` so workers never re-run a launch.
    ChunkFn fn VIBE_GUARDED_BY(mutex) = nullptr;
    void* body VIBE_GUARDED_BY(mutex) = nullptr;
    std::int64_t n VIBE_GUARDED_BY(mutex) = 0;
    std::uint64_t generation VIBE_GUARDED_BY(mutex) = 0;
    int remaining VIBE_GUARDED_BY(mutex) = 0;
    bool stop VIBE_GUARDED_BY(mutex) = false;
    bool launch_in_flight VIBE_GUARDED_BY(mutex) = false;
    std::uint64_t launches VIBE_GUARDED_BY(mutex) = 0;
    /** First exception a worker chunk threw; rethrown on the caller. */
    std::exception_ptr error VIBE_GUARDED_BY(mutex);
};

ThreadPoolSpace::ThreadPoolSpace(int num_threads)
    : num_threads_(num_threads), impl_(std::make_unique<Impl>())
{
    require(num_threads >= 2,
            "ThreadPoolSpace needs >= 2 threads; use makeExecutionSpace "
            "for the serial fast path");
    impl_->workers.reserve(num_threads_ - 1);
    for (int chunk = 1; chunk < num_threads_; ++chunk) {
        impl_->workers.emplace_back([this, chunk] {
            Impl& impl = *impl_;
            std::uint64_t seen = 0;
            tls_inside_launch = true;
            for (;;) {
                ChunkFn fn;
                void* body;
                std::int64_t n;
                {
                    UniqueLock lock(impl.mutex);
                    while (!impl.stop && impl.generation == seen)
                        impl.start_cv.wait(lock);
                    if (impl.stop)
                        return;
                    seen = impl.generation;
                    fn = impl.fn;
                    body = impl.body;
                    n = impl.n;
                }
                const std::int64_t begin =
                    chunkBound(n, num_threads_, chunk);
                const std::int64_t end =
                    chunkBound(n, num_threads_, chunk + 1);
                std::exception_ptr error;
                if (begin < end) {
                    try {
                        fn(body, begin, end, chunk);
                    } catch (...) {
                        error = std::current_exception();
                    }
                }
                {
                    LockGuard lock(impl.mutex);
                    if (error && !impl.error)
                        impl.error = error;
                    if (--impl.remaining == 0)
                        impl.done_cv.notify_one();
                }
            }
        });
    }
}

ThreadPoolSpace::~ThreadPoolSpace()
{
    {
        LockGuard lock(impl_->mutex);
        impl_->stop = true;
    }
    impl_->start_cv.notify_all();
    for (std::thread& worker : impl_->workers)
        worker.join();
}

void
ThreadPoolSpace::forEachChunk(std::int64_t n, ChunkFn fn, void* body)
{
    if (n <= 0)
        return;
    if (tls_inside_launch) {
        // Nested launch: keep the chunk partitioning (reduction
        // determinism) but run every chunk on this thread.
        for (int chunk = 0; chunk < num_threads_; ++chunk) {
            const std::int64_t begin = chunkBound(n, num_threads_, chunk);
            const std::int64_t end =
                chunkBound(n, num_threads_, chunk + 1);
            if (begin < end)
                fn(body, begin, end, chunk);
        }
        return;
    }

    Impl& impl = *impl_;
    {
        LockGuard lock(impl.mutex);
        // One top-level launch at a time: a second launcher would
        // overwrite this job slot mid-flight and silently corrupt
        // both launches.
        require(!impl.launch_in_flight,
                "ThreadPoolSpace: concurrent launch from a second "
                "thread; each driving thread needs its own space");
        impl.launch_in_flight = true;
        ++impl.launches;
        impl.fn = fn;
        impl.body = body;
        impl.n = n;
        impl.remaining = num_threads_ - 1;
        impl.error = nullptr;
        ++impl.generation;
    }
    impl.start_cv.notify_all();

    // The calling thread is chunk 0. Even if its body throws, the
    // barrier below must still be reached: workers hold pointers into
    // the caller's frame until the launch drains. A caller-chunk
    // exception wins over any worker-chunk one.
    tls_inside_launch = true;
    const std::int64_t end = chunkBound(n, num_threads_, 1);
    try {
        if (end > 0)
            fn(body, 0, end, 0);
    } catch (...) {
        waitForWorkers();
        tls_inside_launch = false;
        throw;
    }
    waitForWorkers();
    tls_inside_launch = false;
    std::exception_ptr error;
    {
        LockGuard lock(impl.mutex);
        std::swap(error, impl.error);
    }
    if (error)
        std::rethrow_exception(error);
}

std::uint64_t
ThreadPoolSpace::launches() const
{
    Impl& impl = *impl_;
    LockGuard lock(impl.mutex);
    return impl.launches;
}

void
ThreadPoolSpace::waitForWorkers()
{
    Impl& impl = *impl_;
    UniqueLock lock(impl.mutex);
    while (impl.remaining != 0)
        impl.done_cv.wait(lock);
    impl.launch_in_flight = false;
}

std::shared_ptr<ExecutionSpace>
makeExecutionSpace(int num_threads)
{
    if (num_threads <= 1)
        return sharedSerialSpace();
    return std::make_shared<ThreadPoolSpace>(num_threads);
}

const std::shared_ptr<ExecutionSpace>&
sharedSerialSpace()
{
    static const std::shared_ptr<ExecutionSpace> serial =
        std::make_shared<SerialSpace>();
    return serial;
}

int
envNumThreads(int fallback)
{
    const char* value = std::getenv("VIBE_NUM_THREADS");
    if (!value || !*value)
        return fallback;
    const int threads = std::atoi(value);
    return threads >= 1 ? threads : fallback;
}

int
envNumRanks(int fallback)
{
    const char* value = std::getenv("VIBE_NUM_RANKS");
    if (!value || !*value)
        return fallback;
    const int ranks = std::atoi(value);
    return ranks >= 1 ? ranks : fallback;
}

} // namespace vibe
