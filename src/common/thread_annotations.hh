/**
 * @file
 * Clang thread-safety annotation macros and the annotated mutex
 * wrappers the shared-state classes use (docs/STATIC_ANALYSIS.md §3).
 *
 * The macros expand to Clang's thread-safety attributes when the
 * compiler understands them and to nothing otherwise, so GCC builds
 * are unaffected.  The conventions future concurrency PRs must follow:
 *
 *  - every class with shared mutable state owns a `mutable envy::Mutex
 *    mu_` and marks the mutable members `ENVY_GUARDED_BY(mu_)`;
 *  - public methods take `MutexLock lock(mu_);` as their first
 *    statement; private helpers that expect the lock are suffixed
 *    `Locked` and annotated `ENVY_REQUIRES(mu_)`;
 *  - callbacks (policy hooks, std::function members) are never invoked
 *    with the callee's own lock held if they can re-enter the class —
 *    run them after the locked region instead;
 *  - no blocking syscall (fdatasync/msync/read/write) inside a locked
 *    region — enforced by envy_analyze rule `lock-discipline`.
 */

#ifndef ENVY_COMMON_THREAD_ANNOTATIONS_HH
#define ENVY_COMMON_THREAD_ANNOTATIONS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ENVY_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ENVY_THREAD_ANNOTATION
#define ENVY_THREAD_ANNOTATION(x)
#endif

#define ENVY_CAPABILITY(x) ENVY_THREAD_ANNOTATION(capability(x))
#define ENVY_SCOPED_CAPABILITY ENVY_THREAD_ANNOTATION(scoped_lockable)
#define ENVY_GUARDED_BY(x) ENVY_THREAD_ANNOTATION(guarded_by(x))
#define ENVY_PT_GUARDED_BY(x) ENVY_THREAD_ANNOTATION(pt_guarded_by(x))
#define ENVY_REQUIRES(...) \
    ENVY_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ENVY_EXCLUDES(...) \
    ENVY_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ENVY_ACQUIRE(...) \
    ENVY_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ENVY_RELEASE(...) \
    ENVY_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define ENVY_RETURN_CAPABILITY(x) \
    ENVY_THREAD_ANNOTATION(lock_returned(x))
#define ENVY_ACQUIRE_SHARED(...) \
    ENVY_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define ENVY_RELEASE_SHARED(...) \
    ENVY_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define ENVY_REQUIRES_SHARED(...) \
    ENVY_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ENVY_NO_THREAD_SAFETY_ANALYSIS \
    ENVY_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace envy {

/**
 * std::mutex with the `capability` attribute so `-Wthread-safety` can
 * reason about it.  BasicLockable, so std::condition_variable_any
 * waits on it directly.
 */
class ENVY_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ENVY_ACQUIRE() { mu_.lock(); }
    void unlock() ENVY_RELEASE() { mu_.unlock(); }

  private:
    std::mutex mu_;
};

/** RAII lock on an envy::Mutex (scoped capability). */
class ENVY_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) ENVY_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() ENVY_RELEASE() { mu_.unlock(); }

    // BasicLockable, so a condition_variable_any can release the
    // mutex across a wait (the scope still ends held, matching the
    // scoped-capability contract).
    void lock() ENVY_ACQUIRE() { mu_.lock(); }
    void unlock() ENVY_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * The controller's structural lock (docs/STATIC_ANALYSIS.md §3),
 * built for many concurrent readers and short exclusive sections.
 * Exclusive = mutate flash / policy / segment-space structure;
 * shared = read flash data concurrently with other readers.
 * BasicLockable in its exclusive form, so
 * std::condition_variable_any can wait on it.
 *
 * Readers are distributed: each thread counts itself into one of
 * numSlots reader counts, each on its own cache line, so readers on
 * different threads never write the same line.  A writer serialises
 * with other writers on writerMu_, raises writer_ and waits for every
 * slot to drain.  The reader's increment and the writer's flag store
 * are both seq_cst and each side then reads the other's word
 * (Dekker-style), so at least one of them sees the other: either the
 * writer waits for that reader, or the reader backs out.  A reader
 * that sees the flag backs out and waits for it to clear, so a
 * stream of readers cannot starve a writer (writer preference).
 * Every wait spins a few µs (spinLimit pause instructions) and then
 * sleeps in std::atomic::wait; the side that changes a word others
 * may sleep on notifies it.
 *
 * Not recursive on either side: a thread that already holds the lock
 * shared must not take it shared again, because a writer waiting in
 * between would block the second acquire forever.
 */
class ENVY_CAPABILITY("shared_mutex") SharedMutex
{
  public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex &) = delete;
    SharedMutex &operator=(const SharedMutex &) = delete;

    void lock() ENVY_ACQUIRE()
    {
        writerMu_.lock();
        writer_.store(1, std::memory_order_seq_cst);
        for (Slot &s : slots_)
            awaitValue(s.readers, 0);
    }

    void unlock() ENVY_RELEASE()
    {
        writer_.store(0, std::memory_order_seq_cst);
        writer_.notify_all();
        writerMu_.unlock();
    }

    void lockShared() ENVY_ACQUIRE_SHARED()
    {
        std::atomic<std::uint32_t> &n = slots_[readerSlot()].readers;
        for (;;) {
            n.fetch_add(1, std::memory_order_seq_cst);
            if (writer_.load(std::memory_order_seq_cst) == 0)
                return;
            leave(n);
            awaitValue(writer_, 0);
        }
    }

    void unlockShared() ENVY_RELEASE_SHARED()
    {
        leave(slots_[readerSlot()].readers);
    }

  private:
    static constexpr unsigned numSlots = 8;
    static constexpr int spinLimit = 64;

    struct alignas(64) Slot
    {
        std::atomic<std::uint32_t> readers{0};
    };

    /** This thread's reader slot, dealt round-robin on first use. */
    static unsigned readerSlot()
    {
        static constinit thread_local unsigned slot = numSlots;
        if (slot == numSlots) [[unlikely]]
            slot = nextSlot_.fetch_add(1, std::memory_order_relaxed) %
                   numSlots;
        return slot;
    }

    /** Drop one reader; wake a waiting writer when the slot drains. */
    void leave(std::atomic<std::uint32_t> &n)
    {
        if (n.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
            writer_.load(std::memory_order_seq_cst) != 0)
            n.notify_all();
    }

    /** Spin briefly, then sleep, until @p word reads @p want. */
    static void awaitValue(const std::atomic<std::uint32_t> &word,
                           std::uint32_t want)
    {
        for (int i = 0; i < spinLimit; ++i) {
            if (word.load(std::memory_order_acquire) == want)
                return;
            cpuRelax();
        }
        for (std::uint32_t v = word.load(std::memory_order_acquire);
             v != want; v = word.load(std::memory_order_acquire))
            word.wait(v, std::memory_order_acquire);
    }

    static void cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    std::array<Slot, numSlots> slots_;
    //! 1 while a writer holds the lock or waits for readers to drain.
    alignas(64) std::atomic<std::uint32_t> writer_{0};
    std::mutex writerMu_; //!< serialises writers
    static inline std::atomic<unsigned> nextSlot_{0};
};

/** RAII exclusive lock on a SharedMutex. */
class ENVY_SCOPED_CAPABILITY ExclusiveLock
{
  public:
    explicit ExclusiveLock(SharedMutex &mu) ENVY_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~ExclusiveLock() ENVY_RELEASE() { mu_.unlock(); }

    ExclusiveLock(const ExclusiveLock &) = delete;
    ExclusiveLock &operator=(const ExclusiveLock &) = delete;

  private:
    SharedMutex &mu_;
};

/** RAII shared (reader) lock on a SharedMutex. */
class ENVY_SCOPED_CAPABILITY SharedLock
{
  public:
    explicit SharedLock(SharedMutex &mu) ENVY_ACQUIRE_SHARED(mu)
        : mu_(mu)
    {
        mu_.lockShared();
    }
    ~SharedLock() ENVY_RELEASE() { mu_.unlockShared(); }

    SharedLock(const SharedLock &) = delete;
    SharedLock &operator=(const SharedLock &) = delete;

  private:
    SharedMutex &mu_;
};

} // namespace envy

#endif // ENVY_COMMON_THREAD_ANNOTATIONS_HH
