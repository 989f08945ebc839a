/**
 * @file
 * The eNVy memory controller (paper §3, §5.1).
 *
 * Presents the flash array as a linear, word-addressable non-volatile
 * memory.  Reads translate through the MMU and go to flash or to the
 * SRAM write buffer.  Writes hit resident buffer pages in place;
 * otherwise a copy-on-write moves the page into the buffer (Fig 3):
 * copy the flash page to SRAM over the 256-byte-wide path, apply the
 * write, swing the page table, invalidate the old copy.  Flushing
 * pages from the buffer tail back to flash — and the cleaning that
 * makes room for those flushes — is delegated to the cleaning policy.
 *
 * The controller is purely functional: it reports how much device
 * time each operation consumed and lets the caller decide what that
 * means.  The timed simulation (envysim/timed_system.hh) drives
 * background flushing explicitly; in normal library use the
 * controller drains the buffer to its threshold automatically.
 */

#ifndef ENVY_ENVY_CONTROLLER_HH
#define ENVY_ENVY_CONTROLLER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>

#include "common/geometry.hh"
#include "common/thread_annotations.hh"
#include "envy/cleaner.hh"
#include "envy/mmu.hh"
#include "envy/policy/cleaning_policy.hh"
#include "envy/segment_space.hh"
#include "sram/write_buffer.hh"

namespace envy {

/**
 * RAII holder of one controller shard lock (PR 8).  Identical to
 * MutexLock, but a distinct type: the envy_analyze lock-discipline
 * rule tracks ShardLock scopes and flags flash program/erase calls
 * made inside one (a shard lock serialises host access to a page
 * group; device mutation belongs under the structural lock).
 */
class ENVY_SCOPED_CAPABILITY ShardLock
{
  public:
    explicit ShardLock(Mutex &mu) ENVY_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~ShardLock() ENVY_RELEASE() { mu_.unlock(); }

    ShardLock(const ShardLock &) = delete;
    ShardLock &operator=(const ShardLock &) = delete;

  private:
    Mutex &mu_;
};

class Controller
{
  public:
    Controller(const Geometry &geom, FlashArray &flash, Mmu &mmu,
               WriteBuffer &buffer, SegmentSpace &space,
               Cleaner &cleaner, CleaningPolicy &policy,
               bool auto_drain, obs::MetricsRegistry *metrics = nullptr);

    /** What a host access made the device do (for timing models). */
    struct AccessOutcome
    {
        bool hitSram = false;      //!< data was in the write buffer
        bool cow = false;          //!< a copy-on-write was performed
        std::uint64_t foregroundFlushes = 0; //!< full-buffer stalls
        Tick deviceBusy = 0; //!< flush/clean/erase time consumed
        bool tlbMiss = false; //!< a translation walked the page table
    };

    /**
     * Populate every logical page with zeroes, establishing the
     * array utilization.  Sequential puts consecutive runs of
     * logical pages in each segment; Striped deals them round-robin;
     * Aged additionally synthesises a steady-state segment picture —
     * most segments completely written (live data interleaved with
     * already-invalidated slots), free space concentrated in one
     * segment per @p aged_stride — so cleaning starts immediately
     * instead of after the array's initial free space has been
     * consumed (minutes of simulated time on a fresh 2 GB array).
     */
    enum class Placement { Sequential, Striped, Aged };
    void populate(Placement placement, std::uint32_t aged_stride = 16);

    /** Host-visible bytes. */
    std::uint64_t size() const { return geom_.logicalBytes().value(); }

    AccessOutcome read(Addr addr, std::span<std::uint8_t> out);
    AccessOutcome write(Addr addr, std::span<const std::uint8_t> in);

    /**
     * Lightweight host read for timing models: performs the MMU
     * translation and counting of a word read without moving data.
     *
     * @return true if the translation missed the TLB (the table walk
     *         costs an extra SRAM access).
     */
    bool probeRead(Addr addr);

    /**
     * Flush the buffer's tail page to flash (cleaning as needed).
     *
     * @return device time consumed (program + any cleaning/erasing).
     */
    Tick flushOne();

    /** Drain the whole buffer (orderly shutdown). */
    void flushAll();

    /** True when background flushing has work to do. */
    bool
    needsBackgroundFlush() const
    {
        return buffer_.aboveThreshold();
    }

    /**
     * Switch the host-facing paths between the historical serial mode
     * and the PR 8 sharded concurrent mode.  Serial mode (workers <= 1
     * and no cleaners) keeps the exact single-lock code path, so its
     * output stays byte-identical with earlier releases.  Concurrent
     * mode shards host access by page, serialises device mutation
     * under a structural reader/writer lock, and replaces inline
     * cleaning with peek-flush + counted backpressure waits.  Call
     * before any worker or cleaner thread touches the store.
     */
    void setConcurrency(unsigned num_workers, unsigned num_cleaners);

    bool concurrent() const { return concurrent_; }

    /**
     * Couple the concurrent data path to a durable journal (PR 10):
     * SRAM-hit writers additionally hold the structural lock *shared*
     * across the slot mutation, so quiesce() — which the commit
     * pipeline uses to capture dirty SRAM ranges — excludes them and
     * never journals a torn write.  No-op in serial mode.  Call
     * before any worker thread touches the store.
     */
    void setPersistentConcurrent(bool on)
    {
        persistentConcurrent_ = on;
    }

    bool persistentConcurrent() const { return persistentConcurrent_; }

    /**
     * Run @p fn with every store mutator excluded: structural lock
     * exclusive in concurrent mode (flushes, cleans, COWs, and —
     * with setPersistentConcurrent() — SRAM-hit writes all hold it),
     * the serial mu_ otherwise.  The commit pipeline's dirty-capture
     * window; @p fn must not re-enter the controller.
     */
    void quiesce(const std::function<void()> &fn);

    /**
     * One increment of proactive cleaning on behalf of a background
     * cleaner thread (CleanerPool): ask the policy to clean ahead if
     * any partition is below @p watermark free pages.
     *
     * @return true if a segment was cleaned.
     */
    bool backgroundCleanOnce(PageCount watermark);

    /** Wake producers stalled on backpressure (room was made). */
    void notifyRoom();

    /**
     * Device time (flush programs + any cleaning performed inline)
     * this thread has consumed through this controller's flush paths.
     * Per-actor timelines for the concurrency bench.
     */
    static Tick threadDeviceBusy() { return tlDeviceBusy_; }

    /**
     * Hook poked when a producer hits backpressure (buffer full and
     * the policy has no ready destination); the cleaner pool uses it
     * to wake immediately instead of at its next watermark poll.
     */
    std::function<void()> backpressureHook;

    const Geometry &geom() const { return geom_; }
    WriteBuffer &buffer() { return buffer_; }
    SegmentSpace &space() { return space_; }
    Cleaner &cleaner() { return cleaner_; }
    Mmu &mmu() { return mmu_; }
    CleaningPolicy &policy() { return policy_; }

    /**
     * §6 transaction hook: consulted when a copy-on-write supersedes
     * a flash copy.  Returning true preserves the old copy as a
     * pinned shadow (for rollback) instead of invalidating it.
     */
    std::function<bool(LogicalPageId, FlashPageAddr)> cowShadowHook;

    // Event counts (docs/OBSERVABILITY.md); a private registry holds
    // them when the controller is built without one.
    obs::Counter metHostReads;
    obs::Counter metHostWrites;
    obs::Counter metCows;
    obs::Counter metBufferHits;
    obs::Counter metForegroundFlushes;
    obs::Counter metFlushRetries;
    obs::Counter metBackpressureWaits; //!< producer waits for room
    obs::Counter metBackgroundCleans;  //!< cleans by the cleaner pool
    obs::Histogram metFlushTicks; //!< device time per flushOne()

  private:
    LogicalPageId pageOf(Addr addr) const
    {
        return LogicalPageId(addr / geom_.pageSize);
    }

    /** Copy a page into the write buffer (the COW of Fig 3). */
    BufferSlotId copyOnWrite(LogicalPageId page,
                             const PageTable::Location &stale_loc,
                             AccessOutcome &outcome)
        ENVY_REQUIRES(mu_);

    /**
     * flushOne() body; split out because copy-on-write (a full
     * buffer) and flushAll() flush while already holding mu_.
     */
    Tick flushOneLocked() ENVY_REQUIRES(mu_);

    /**
     * Shared flush machinery: program the tail page, swing the map,
     * pop.  @p peek_only asks the policy only for a destination that
     * already has room (never cleans); when none exists, *no_room is
     * set and nothing is mutated.  Callers hold mu_ (serial mode) or
     * structMu_ exclusive (concurrent mode) — annotated out of the
     * analysis because it serves both lock regimes.
     */
    Tick flushTailCore(bool peek_only, bool *no_room)
        ENVY_NO_THREAD_SAFETY_ANALYSIS;

    /**
     * COW body shared by the serial and concurrent paths (the caller
     * guarantees buffer room and a current @p loc under its lock
     * regime).
     */
    BufferSlotId cowCore(LogicalPageId page,
                         const PageTable::Location &loc,
                         AccessOutcome &outcome)
        ENVY_NO_THREAD_SAFETY_ANALYSIS;

    // Concurrent-mode twins of the host-facing paths (PR 8).
    AccessOutcome readConcurrent(Addr addr,
                                 std::span<std::uint8_t> out);
    AccessOutcome writeConcurrent(Addr addr,
                                  std::span<const std::uint8_t> in);
    void writePageConcurrent(LogicalPageId page,
                             std::span<const std::uint8_t> in,
                             std::uint32_t off, AccessOutcome &outcome)
        ENVY_NO_THREAD_SAFETY_ANALYSIS;
    /**
     * Apply an SRAM-hit write under the slot's stripe, revalidating
     * ownership.  @return false if the slot was recycled (caller
     * retranslates).  Annotated out because the stripe is picked
     * dynamically and the caller may wrap it in a shared structural
     * lock (persistent-concurrent mode).
     */
    bool hitWriteLocked(LogicalPageId page, BufferSlotId slot,
                        std::span<const std::uint8_t> in,
                        std::uint32_t off, AccessOutcome &outcome)
        ENVY_NO_THREAD_SAFETY_ANALYSIS;
    /** Stall until the full buffer has room (counted backpressure). */
    void makeRoomBlocking(AccessOutcome &outcome);
    /** Drain above-threshold occupancy without ever cleaning. */
    void drainOpportunistic();
    void flushAllConcurrent();

    Mutex &shardMuFor(LogicalPageId page)
    {
        return shardMu_[page.value() % numShards];
    }

    void checkRange(Addr addr, std::size_t len) const;

    Geometry geom_;
    FlashArray &flash_;
    Mmu &mmu_;
    WriteBuffer &buffer_;
    SegmentSpace &space_;
    Cleaner &cleaner_;
    CleaningPolicy &policy_;
    bool autoDrain_;

    // Serialises the host-facing mutation paths (read/write/flush)
    // and guards the bounce buffer in *serial* mode.  Everything the
    // controller calls below — cleaner, space, buffer — locks itself.
    mutable Mutex mu_;
    std::vector<std::uint8_t> scratch_ ENVY_GUARDED_BY(mu_);

    // --- PR 8 concurrent mode ------------------------------------
    // Lock order (docs/INTERNALS.md): shard lock -> structMu_ ->
    // write-buffer stripe -> component mutexes (buffer/space/cleaner
    // own mu_, MMU stripes).  Shard locks serialise host access per
    // page group; structMu_ exclusive serialises all device mutation
    // (COW, flush, clean); structMu_ shared covers host flash reads
    // against concurrent erases.
    bool concurrent_ = false;
    bool persistentConcurrent_ = false;
    unsigned numCleaners_ = 0;
    static constexpr std::uint64_t numShards = 64;
    std::deque<Mutex> shardMu_;
    SharedMutex structMu_;

    // Backpressure: producers wait here when the buffer is full and
    // the policy has no ready destination; flushers and background
    // cleaners notify after making room.
    Mutex waitMu_;
    std::condition_variable_any roomCv_;

    static constinit thread_local Tick tlDeviceBusy_;

    std::unique_ptr<obs::MetricsRegistry> ownMetrics_;
};

} // namespace envy

#endif // ENVY_ENVY_CONTROLLER_HH
