#include "parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <algorithm>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/error.h"
#include "util/parse.h"

namespace sosim::util {

namespace {

/** True inside a pool worker; nested parallelFor then runs inline. */
thread_local bool t_inWorker = false;

/** User override from setThreadCount(); 0 means "resolve automatically". */
std::atomic<std::size_t> g_override{0};

/** User override from setPoolWatchdogMillis(); 0 means "resolve". */
std::atomic<std::size_t> g_watchdogOverride{0};

/** `forced` if set, else variable `name` parsed whole as a count in
 *  [1, max] (a FatalError naming it otherwise), else `automatic` if the
 *  variable is unset or empty. */
std::size_t
resolveCount(const std::atomic<std::size_t> &forced, const char *name,
             std::size_t max, std::size_t automatic)
{
    if (const std::size_t n = forced.load(std::memory_order_relaxed))
        return n;
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return automatic;
    const auto v = parseNumber<std::size_t>(env, name);
    SOSIM_REQUIRE(v >= 1, std::string(name) + ": '" + env + "' is below 1");
    SOSIM_REQUIRE(v <= max, std::string(name) + ": '" + env +
                                "' is above " + std::to_string(max));
    return v;
}

/** Per-lane busy-time counter ("pool.worker.N.busy_nanos" / caller). */
obs::Counter &
laneBusyCounter(const std::string &lane)
{
    return obs::registry().counter("pool.worker." + lane + ".busy_nanos");
}

/** chunkState values of a Job. */
enum : unsigned char { kUnclaimed = 0, kRunning = 1, kDone = 2 };

/**
 * One fan-out's complete shared state, heap-allocated so a worker still
 * executing a chunk after the submitter abandoned the job (watchdog
 * fire) touches only memory the shared_ptr keeps alive — nothing on the
 * submitter's dead stack frame.  chunkFn owns value copies of the body
 * and the error slots for the same reason.  All other fields are
 * guarded by the owning pool's mutex.
 */
struct Job {
    std::function<void(std::size_t)> chunkFn;
    std::size_t nextChunk = 0;
    std::size_t totalChunks = 0;
    std::size_t pendingChunks = 0;
    std::size_t completedChunks = 0;
    std::vector<unsigned char> chunkState;
    /** The submitter gave up on this job; no new chunks are claimed. */
    bool abandoned = false;
};

/** Internal signal from ThreadPool::run to parallelFor: the watchdog
 *  fired and this chunk is the one that never finished. */
struct PoolStuckError {
    std::size_t chunk = 0;
    std::size_t watchdogMs = 0;
};

/**
 * A minimal fixed-size pool executing one chunked loop at a time.  The
 * caller thread participates as a lane of its own, so a pool of size k
 * uses k-1 background threads.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(std::size_t workers)
    {
        threads_.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t)
            threads_.emplace_back([this, t] { workerLoop(t); });
    }

    /** Only safe on a healthy pool: a poisoned one has a worker wedged
     *  inside a chunk and joining it would hang — retire it instead. */
    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    std::size_t workers() const { return threads_.size(); }

    /** A watchdog fired on this pool: one lane is wedged forever, so it
     *  must never be joined (and should not take new jobs). */
    bool poisoned() const
    {
        return poisoned_.load(std::memory_order_relaxed);
    }

    /**
     * Run the job's chunks (0..totalChunks-1) across the background
     * workers plus the calling thread; blocks until all complete.  Only
     * one job runs at a time (callers are serialized).  If no chunk
     * completes for watchdog_ms while waiting, the job is abandoned and
     * PoolStuckError is thrown with the stuck chunk.
     */
    void
    run(const std::shared_ptr<Job> &job, std::size_t watchdog_ms)
    {
        SOSIM_COUNT("pool.jobs");
        SOSIM_COUNT_ADD("pool.chunks_run", job->totalChunks);
        std::unique_lock<std::mutex> lock(mutex_);
        busy_.wait(lock, [this] { return !jobActive_; });
        jobActive_ = true;
        job_ = job;
        lock.unlock();
        wake_.notify_all();

        // The caller participates as a lane of its own, so it never just
        // blocks while the background workers drain the chunks.
        helpOut(job);

        lock.lock();
        // Progress-based deadline: every wait_for window that saw at
        // least one chunk finish resets the clock, so only a genuinely
        // wedged chunk — not a long job — fires the watchdog.
        std::size_t seen = job->completedChunks;
        while (job->pendingChunks != 0) {
            if (done_.wait_for(lock,
                               std::chrono::milliseconds(watchdog_ms),
                               [&] { return job->pendingChunks == 0; }))
                break;
            if (job->completedChunks != seen) {
                seen = job->completedChunks;
                continue;
            }
            job->abandoned = true;
            std::size_t stuck = job->totalChunks;
            for (std::size_t c = 0; c < job->chunkState.size(); ++c)
                if (job->chunkState[c] == kRunning) {
                    stuck = c;
                    break;
                }
            if (stuck == job->totalChunks)
                for (std::size_t c = 0; c < job->chunkState.size(); ++c)
                    if (job->chunkState[c] != kDone) {
                        stuck = c;
                        break;
                    }
            job_ = nullptr;
            jobActive_ = false;
            poisoned_.store(true, std::memory_order_relaxed);
            busy_.notify_one();
            throw PoolStuckError{stuck == job->totalChunks ? 0 : stuck,
                                 watchdog_ms};
        }
        job_ = nullptr;
        jobActive_ = false;
        busy_.notify_one();
    }

  private:
    void
    helpOut(const std::shared_ptr<Job> &job)
    {
        static obs::Counter &busy = laneBusyCounter("caller");
        const bool was = t_inWorker;
        t_inWorker = true;
        for (;;) {
            std::size_t chunk;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (job->abandoned || job->nextChunk >= job->totalChunks)
                    break;
                chunk = job->nextChunk++;
                job->chunkState[chunk] = kRunning;
            }
            const auto t0 = std::chrono::steady_clock::now();
            runChunk(*job, chunk);
            busy.add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
        }
        t_inWorker = was;
    }

    void
    workerLoop(std::size_t worker)
    {
        obs::Counter &busy = laneBusyCounter(std::to_string(worker));
        t_inWorker = true;
        for (;;) {
            std::shared_ptr<Job> job;
            std::size_t chunk;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [this] {
                    return stopping_ ||
                           (job_ && !job_->abandoned &&
                            job_->nextChunk < job_->totalChunks);
                });
                if (stopping_)
                    return;
                job = job_;
                chunk = job->nextChunk++;
                job->chunkState[chunk] = kRunning;
            }
            const auto t0 = std::chrono::steady_clock::now();
            runChunk(*job, chunk);
            busy.add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
        }
    }

    void
    runChunk(Job &job, std::size_t chunk)
    {
        // RAII completion: the decrement + notify happen on every exit
        // path, so a throwing chunkFn (it catches body exceptions
        // itself, but belt and braces) can never strand pendingChunks
        // above zero and deadlock the submitter's completion wait.
        struct Complete {
            ThreadPool *pool;
            Job *job;
            std::size_t chunk;
            ~Complete()
            {
                std::lock_guard<std::mutex> lock(pool->mutex_);
                job->chunkState[chunk] = kDone;
                ++job->completedChunks;
                if (--job->pendingChunks == 0)
                    pool->done_.notify_all();
            }
        } complete{this, &job, chunk};
        job.chunkFn(chunk);
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::condition_variable busy_;
    std::vector<std::thread> threads_;
    std::shared_ptr<Job> job_;
    bool jobActive_ = false;
    bool stopping_ = false;
    std::atomic<bool> poisoned_{false};
};

std::mutex g_poolMutex;
std::unique_ptr<ThreadPool> g_pool;

/**
 * Poisoned pools are parked here forever instead of being destroyed:
 * their destructor would join the wedged worker and hang.  Allocated
 * with new and never freed — globally reachable on purpose, so leak
 * checkers treat the parked threads' stacks as live, not leaked.
 */
std::vector<std::unique_ptr<ThreadPool>> &
poolGraveyard()
{
    static auto *graveyard =
        new std::vector<std::unique_ptr<ThreadPool>>();
    return *graveyard;
}

/** Retire the current pool into the graveyard (g_poolMutex held). */
void
retirePoolLocked()
{
    if (g_pool)
        poolGraveyard().push_back(std::move(g_pool));
}

/** The pool, (re)created lazily to match the resolved thread count. */
ThreadPool &
pool(std::size_t want_workers)
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    if (g_pool && g_pool->poisoned())
        retirePoolLocked();
    // A healthy replaced pool is destroyed normally — its workers are
    // idle and join immediately; only poisoned pools must be parked.
    if (!g_pool || g_pool->workers() != want_workers)
        g_pool = std::make_unique<ThreadPool>(want_workers);
    return *g_pool;
}

} // namespace

std::size_t
threadCount()
{
    // Asked once: hardware_concurrency() is a system call, and every
    // parallelFor resolves the count.
    static const unsigned hw = std::thread::hardware_concurrency();
    return resolveCount(g_override, "SOSIM_THREADS", kMaxThreads,
                        hw > 0 ? hw : 1);
}

void
setThreadCount(std::size_t n)
{
    SOSIM_REQUIRE(n <= kMaxThreads, "setThreadCount: " + std::to_string(n) +
                                        " is above kMaxThreads");
    g_override.store(n, std::memory_order_relaxed);
}

void
setPoolWatchdogMillis(std::size_t ms)
{
    g_watchdogOverride.store(ms, std::memory_order_relaxed);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
            const ParallelForOptions &options)
{
    if (n == 0)
        return;
    // A call nested in a worker runs inline and reads no environment:
    // the top-level call that started the worker resolved both values.
    std::size_t workers = 1;
    std::size_t watchdog_ms = 0;
    if (!t_inWorker) {
        // Resolved before the inline shortcut, so a refused value fails
        // a run that never fans out too, and starts no thread.
        watchdog_ms = resolveCount(g_watchdogOverride,
                                   "SOSIM_POOL_WATCHDOG_MS", ~std::size_t{0},
                                   120000);
        workers = threadCount();
    }
    if (workers <= 1 || n < options.minGrain) {
        SOSIM_COUNT("pool.inline_runs");
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Contiguous chunks claimed dynamically by the pool lanes (callers
    // plus background workers); each index is executed exactly once
    // regardless of scheduling.  The default of one chunk per lane
    // minimizes claim overhead; callers with uneven per-index work pass
    // options.chunks > lanes to load-balance (see ParallelForOptions).
    const std::size_t lanes =
        std::min(options.chunks > 0 ? options.chunks : workers, n);
    auto errors =
        std::make_shared<std::vector<std::exception_ptr>>(lanes);
    // Spans opened inside worker chunks nest under the stage that
    // submitted the fan-out, not under detached per-thread roots — and
    // flight-recorder events emitted there chain to the submitting
    // thread's current causal scope the same way.
    const obs::ThreadContext submitting = obs::threadContext();
    auto job = std::make_shared<Job>();
    job->totalChunks = lanes;
    job->pendingChunks = lanes;
    job->chunkState.assign(lanes, kUnclaimed);
    // The body is captured by value: a chunk still running after a
    // watchdog abandonment must not reach through a reference into the
    // submitter's unwound stack frame.
    job->chunkFn = [body_copy = body, errors, n, lanes,
                    submitting](std::size_t chunk) {
        obs::ScopedContextAdopt adopt(submitting);
        const std::size_t lo = chunk * n / lanes;
        const std::size_t hi = (chunk + 1) * n / lanes;
        try {
            for (std::size_t i = lo; i < hi; ++i)
                body_copy(i);
        } catch (...) {
            (*errors)[chunk] = std::current_exception();
        }
    };

    // The caller is one lane, so only workers-1 background threads needed.
    try {
        pool(workers - 1).run(job, watchdog_ms);
    } catch (const PoolStuckError &stuck) {
        SOSIM_COUNT("pool.watchdog_fires");
        {
            std::lock_guard<std::mutex> lock(g_poolMutex);
            retirePoolLocked();
        }
        const std::size_t lo = stuck.chunk * n / lanes;
        const std::size_t hi = (stuck.chunk + 1) * n / lanes;
        throw ParallelForError(
            lo, hi,
            "watchdog: no chunk completed for " +
                std::to_string(stuck.watchdogMs) +
                " ms; job abandoned and pool retired");
    }

    for (std::size_t chunk = 0; chunk < lanes; ++chunk) {
        if (!(*errors)[chunk])
            continue;
        SOSIM_COUNT("pool.worker_exceptions");
        const std::size_t lo = chunk * n / lanes;
        const std::size_t hi = (chunk + 1) * n / lanes;
        try {
            std::rethrow_exception((*errors)[chunk]);
        } catch (const std::exception &e) {
            throw ParallelForError(lo, hi, e.what());
        }
        // Non-std exceptions leave the catch without matching and
        // propagate as-is — there is no message to wrap.
    }
}

} // namespace sosim::util
