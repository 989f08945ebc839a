/**
 * @file
 * envy::Mutex / envy::MutexLock, envy::SharedMutex and the ENVY_*
 * thread-safety macros (src/common/thread_annotations.hh).
 *
 * The annotations themselves are checked by clang's -Wthread-safety
 * in CI (and by the try_compile negative harness in
 * tests/CMakeLists.txt, which proves a guarded-member violation
 * fails to compile).  This test covers what must hold under ANY
 * compiler: the macros expand benignly, and the annotated Mutex is a
 * real mutex -- concurrent increments through MutexLock never lose
 * an update -- and the reader-distributed SharedMutex excludes,
 * shares and wakes the way a shared mutex must.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.hh"
#include "envysim/parallel.hh"

namespace envy {
namespace {

/** The repo's annotation idiom, in miniature. */
class GuardedCounter
{
  public:
    void add(std::uint64_t n)
    {
        MutexLock lock(mu_);
        value_ += n;
    }

    std::uint64_t value() const
    {
        MutexLock lock(mu_);
        return value_;
    }

    /** *Locked() + ENVY_REQUIRES naming convention. */
    void addTwiceLocked(std::uint64_t n) ENVY_REQUIRES(mu_)
    {
        value_ += n;
        value_ += n;
    }

    void addTwice(std::uint64_t n)
    {
        MutexLock lock(mu_);
        addTwiceLocked(n);
    }

  private:
    mutable Mutex mu_;
    std::uint64_t value_ ENVY_GUARDED_BY(mu_) = 0;
};

TEST(ThreadAnnotations, MacrosExpandBenignly)
{
    // Under GCC every ENVY_* macro must vanish; under clang they
    // must still produce a default-constructible, lockable type.
    Mutex mu;
    mu.lock();
    mu.unlock();
    {
        MutexLock lock(mu);
    }
    GuardedCounter c;
    c.add(1);
    c.addTwice(2);
    EXPECT_EQ(c.value(), 5u);
}

TEST(ThreadAnnotations, MutexLockExcludesConcurrentWriters)
{
    // Hammer one guarded counter from every worker; a Mutex that
    // failed to exclude would lose increments.
    constexpr std::uint64_t tasks = 32;
    constexpr std::uint64_t perTask = 2000;
    GuardedCounter c;
    ParallelRunner runner(4);
    for (std::uint64_t t = 0; t < tasks; ++t) {
        runner.submit([&c] {
            for (std::uint64_t i = 0; i < perTask; ++i)
                c.add(1);
        });
    }
    runner.wait();
    EXPECT_EQ(c.value(), tasks * perTask);
}

TEST(ThreadAnnotations, MutexIsBasicLockable)
{
    // condition_variable_any requires BasicLockable; this is the
    // contract ParallelRunner's waits lean on.
    Mutex mu;
    MutexLock lock(mu);
    SUCCEED();
}

/**
 * Shared state whose invariant only a working SharedMutex keeps: a
 * writer is alone in the lock, and a reader never overlaps a writer.
 * The plain counter is written under the exclusive side only, so a
 * broken lock also shows as a lost update (and as a race under TSan).
 */
struct ExclusionProbe
{
    SharedMutex mu;
    std::atomic<int> writersIn{0};
    std::atomic<int> readersIn{0};
    std::atomic<bool> violated{false};
    std::uint64_t writes = 0;

    void write()
    {
        ExclusiveLock lock(mu);
        if (writersIn.fetch_add(1) != 0 || readersIn.load() != 0)
            violated = true;
        ++writes;
        if (readersIn.load() != 0)
            violated = true;
        writersIn.fetch_sub(1);
    }

    std::uint64_t read()
    {
        SharedLock lock(mu);
        readersIn.fetch_add(1);
        if (writersIn.load() != 0)
            violated = true;
        const std::uint64_t seen = writes;
        readersIn.fetch_sub(1);
        return seen;
    }
};

/** Run @p readers reader and @p writers writer threads over @p p. */
void
hammer(ExclusionProbe &p, int readers, int writers, std::uint64_t iters)
{
    std::vector<std::thread> threads;
    for (int r = 0; r < readers; ++r) {
        threads.emplace_back([&p, iters] {
            std::uint64_t last = 0;
            for (std::uint64_t i = 0; i < iters; ++i) {
                const std::uint64_t seen = p.read();
                if (seen < last)
                    p.violated = true; // a write went backwards
                last = seen;
            }
        });
    }
    for (int w = 0; w < writers; ++w) {
        threads.emplace_back([&p, iters] {
            for (std::uint64_t i = 0; i < iters; ++i)
                p.write();
        });
    }
    for (auto &t : threads)
        t.join();
}

TEST(SharedMutex, ExclusiveExcludesReadersAndOtherWriters)
{
    constexpr std::uint64_t iters = 2000;
    ExclusionProbe p;
    hammer(p, 4, 2, iters);
    EXPECT_FALSE(p.violated.load());
    EXPECT_EQ(p.writes, 2 * iters);
}

TEST(SharedMutex, SharedHoldersOverlap)
{
    // Two readers meet inside the lock: each holds it shared and
    // waits for the other to arrive.  A lock that admitted one
    // reader at a time would keep the second out until the first
    // gave up at its deadline.
    SharedMutex mu;
    std::atomic<int> inside{0};
    std::atomic<int> met{0};
    auto reader = [&] {
        SharedLock lock(mu);
        inside.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (inside.load() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        if (inside.load() == 2)
            met.fetch_add(1);
    };
    std::thread a(reader);
    std::thread b(reader);
    a.join();
    b.join();
    EXPECT_EQ(met.load(), 2);
}

TEST(SharedMutex, ParkedWaitersAllWakeAfterALongWriter)
{
    // A writer holds the lock for ~5 ms, long past the bounded spin,
    // so the readers and the second writer behind it go to sleep.
    // Every one of them must be woken; a lost wake-up hangs here.
    constexpr int rounds = 5;
    constexpr int readers = 6;
    for (int round = 0; round < rounds; ++round) {
        SharedMutex mu;
        std::atomic<int> done{0};
        mu.lock();
        std::vector<std::thread> threads;
        for (int r = 0; r < readers; ++r) {
            threads.emplace_back([&] {
                SharedLock lock(mu);
                done.fetch_add(1);
            });
        }
        threads.emplace_back([&] {
            ExclusiveLock lock(mu);
            done.fetch_add(1);
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_EQ(done.load(), 0) << "a waiter got past a held lock";
        mu.unlock();
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(done.load(), readers + 1);
    }
}

TEST(SharedMutex, ParkedWriterWakesAfterLongReaders)
{
    // The mirror case: readers hold the lock shared for ~5 ms, so the
    // writer behind them sleeps until the last reader leaves.  The
    // last reader out must wake it.
    constexpr int rounds = 5;
    constexpr int readers = 3;
    for (int round = 0; round < rounds; ++round) {
        SharedMutex mu;
        std::atomic<int> holding{0};
        std::atomic<bool> written{false};
        std::vector<std::thread> threads;
        for (int r = 0; r < readers; ++r) {
            threads.emplace_back([&] {
                SharedLock lock(mu);
                holding.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                if (written.load())
                    written = false; // flag the overlap below
            });
        }
        while (holding.load() < readers)
            std::this_thread::yield();
        threads.emplace_back([&] {
            ExclusiveLock lock(mu);
            written = true;
        });
        for (auto &t : threads)
            t.join();
        EXPECT_TRUE(written.load()) << "the writer overlapped a reader";
    }
}

TEST(SharedMutex, MoreThreadsThanReaderSlots)
{
    // 16 threads share the lock's 8 reader slots, so slots carry more
    // than one reader at a time; exclusion must still hold.
    constexpr std::uint64_t iters = 1000;
    ExclusionProbe p;
    hammer(p, 13, 3, iters);
    EXPECT_FALSE(p.violated.load());
    EXPECT_EQ(p.writes, 3 * iters);
}

} // namespace
} // namespace envy
