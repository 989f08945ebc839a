#include "envy/controller.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hh"
#include "faults/crash_point.hh"
#include "obs/trace.hh"

namespace envy {

constinit thread_local Tick Controller::tlDeviceBusy_ = 0;

namespace {

// Flush-latency buckets in device ticks (ns): a plain flush is one
// page program (4 us, up to ~2x with wear) and lands in (1 us, 10 us];
// a flush that pays for an inline clean adds at least one segment
// erase (50 ms) and lands in the tens-of-ms decades or above.
std::vector<std::uint64_t>
flushTickEdges()
{
    return {1'000, 10'000, 100'000, 1'000'000, 10'000'000, 30'000'000,
            100'000'000, 300'000'000, 1'000'000'000};
}

} // namespace

Controller::Controller(const Geometry &geom, FlashArray &flash,
                       Mmu &mmu, WriteBuffer &buffer,
                       SegmentSpace &space, Cleaner &cleaner,
                       CleaningPolicy &policy, bool auto_drain,
                       obs::MetricsRegistry *metrics)
    : geom_(geom),
      flash_(flash),
      mmu_(mmu),
      buffer_(buffer),
      space_(space),
      cleaner_(cleaner),
      policy_(policy),
      autoDrain_(auto_drain),
      scratch_(flash.storesData() ? geom.pageSize : 0)
{
    obs::MetricsRegistry &reg = obs::registryOr(metrics, ownMetrics_);
    metHostReads = reg.counter("ctl.host_reads", "accesses",
                               "host read accesses");
    metHostWrites = reg.counter("ctl.host_writes", "accesses",
                                "host write accesses");
    metCows = reg.counter("ctl.cows", "pages",
                          "copy-on-write operations");
    metBufferHits = reg.counter("ctl.buffer_hits", "accesses",
                                "writes absorbed by a resident buffer "
                                "page");
    metForegroundFlushes = reg.counter("ctl.foreground_flushes",
                                       "flushes",
                                       "flushes a host write had to "
                                       "wait for");
    metFlushRetries = reg.counter("ctl.flush_retries", "programs",
                                  "flush programs retried after a "
                                  "spec-failure");
    metBackpressureWaits = reg.counter("ctl.backpressure_waits",
                                       "waits",
                                       "producer waits for buffer room "
                                       "while cleaners catch up "
                                       "(concurrent mode)");
    metBackgroundCleans = reg.counter("ctl.background_cleans",
                                      "segments",
                                      "segments cleaned by the "
                                      "background cleaner pool");
    metFlushTicks = reg.histogram("ctl.flush_ticks", "ns",
                                  "device time consumed per flush, "
                                  "cleaning included",
                                  flushTickEdges());
    policy_.attach(space_, cleaner_);
    for (std::uint64_t i = 0; i < numShards; ++i)
        shardMu_.emplace_back();
}

void
Controller::setConcurrency(unsigned num_workers, unsigned num_cleaners)
{
    concurrent_ = num_workers > 1 || num_cleaners > 0;
    numCleaners_ = num_cleaners;
}

bool
Controller::backgroundCleanOnce(PageCount watermark)
{
    ExclusiveLock s(structMu_);
    const std::uint32_t seg = policy_.backgroundClean(watermark);
    if (seg == CleaningPolicy::noSegment)
        return false;
    metBackgroundCleans.add();
    return true;
}

void
Controller::notifyRoom()
{
    roomCv_.notify_all();
}

void
Controller::quiesce(const std::function<void()> &fn)
{
    if (concurrent_) {
        ExclusiveLock s(structMu_);
        fn();
        return;
    }
    MutexLock lock(mu_);
    fn();
}

// Bootstrap placement, before the store is in service: persistence
// arms only after it (EnvyStore's constructor), so a crash here
// leaves no store to recover and no window for the crash explorer.
// envy-analyze: allow(crash-point-coverage) bootstrap, not in service
void
Controller::populate(Placement placement, std::uint32_t aged_stride)
{
    MutexLock lock(mu_);
    const std::uint64_t pages = geom_.effectiveLogicalPages().value();
    const std::uint32_t segs = space_.numLogical();
    std::vector<std::uint8_t> zeros(
        flash_.storesData() ? geom_.pageSize : 0, 0);

    if (placement == Placement::Striped) {
        for (std::uint64_t p = 0; p < pages; ++p) {
            const SegmentId seg = space_.physOf(
                static_cast<std::uint32_t>(p % segs));
            const FlashPageAddr addr =
                flash_.appendPage(seg, LogicalPageId(p), zeros);
            mmu_.mapToFlash(LogicalPageId(p), addr);
        }
        return;
    }

    // Sequential and Aged place an even run of consecutive logical
    // pages in each segment.
    const std::uint64_t cap = geom_.pagesPerSegment().value();
    const std::uint64_t share = (pages + segs - 1) / segs;
    std::uint64_t next = 0;
    for (std::uint32_t s = 0; s < segs; ++s) {
        const std::uint64_t here =
            std::min(share, pages - std::min(pages, next));
        const SegmentId phys = space_.physOf(s);
        const bool aged = placement == Placement::Aged &&
                          aged_stride > 0 &&
                          s % aged_stride != aged_stride - 1;
        const std::uint64_t dead = aged ? cap - here : 0;
        // Interleave the dead filler slots evenly between the live
        // pages, approximating a segment that has seen scattered
        // copy-on-write invalidations.
        const std::uint64_t total = here + dead;
        std::uint64_t placed = 0;
        for (std::uint64_t i = 0; i < total; ++i) {
            if ((i + 1) * here / total > placed) {
                const LogicalPageId page(next + placed);
                const FlashPageAddr addr =
                    flash_.appendPage(phys, page, zeros);
                mmu_.mapToFlash(page, addr);
                ++placed;
            } else {
                // A slot that was programmed and later invalidated:
                // append under a scratch owner, then kill it.
                const FlashPageAddr addr =
                    flash_.appendPage(phys, LogicalPageId(0), zeros);
                flash_.invalidatePage(addr);
            }
        }
        next += here;
    }
}

void
Controller::checkRange(Addr addr, std::size_t len) const
{
    if (addr + len > size())
        ENVY_FATAL("controller: host access [", addr, ", ", addr + len,
                   ") beyond the ", size(), "-byte array");
}

Controller::AccessOutcome
Controller::read(Addr addr, std::span<std::uint8_t> out)
{
    if (concurrent_)
        return readConcurrent(addr, out);
    MutexLock lock(mu_);
    checkRange(addr, out.size());
    AccessOutcome outcome;
    std::size_t done = 0;
    while (done < out.size()) {
        const Addr a = addr + done;
        const LogicalPageId page = pageOf(a);
        const std::uint32_t off =
            static_cast<std::uint32_t>(a % geom_.pageSize);
        const std::size_t n = std::min<std::size_t>(
            out.size() - done, geom_.pageSize - off);
        metHostReads.add();

        const PageTable::Location loc =
            mmu_.lookup(page, &outcome.tlbMiss);
        switch (loc.kind) {
          case PageTable::LocKind::Sram:
            outcome.hitSram = true;
            if (flash_.storesData()) {
                // as_const: a read must not dirty the slot for the
                // persist layer's SRAM tracking.
                auto src = std::as_const(buffer_).slotData(loc.sramSlot);
                std::copy_n(src.begin() + off, n, out.begin() + done);
            }
            break;
          case PageTable::LocKind::Flash:
            if (flash_.storesData()) {
                if (off == 0 && n == geom_.pageSize) {
                    // Whole aligned page: land the wide-path read in
                    // the caller's buffer, no bounce through scratch.
                    flash_.readPage(loc.flash, out.subspan(done, n));
                } else {
                    flash_.readPage(loc.flash, scratch_);
                    std::copy_n(scratch_.begin() + off, n,
                                out.begin() + done);
                }
            }
            break;
          case PageTable::LocKind::Unmapped:
            // Never-written space reads as zeroes.
            std::fill_n(out.begin() + done, n, 0);
            break;
        }
        done += n;
    }
    return outcome;
}

bool
Controller::probeRead(Addr addr)
{
    checkRange(addr, 1);
    metHostReads.add();
    bool miss = false;
    mmu_.lookup(pageOf(addr), &miss);
    return miss;
}

BufferSlotId
Controller::cowCore(LogicalPageId page, const PageTable::Location &loc,
                    AccessOutcome &outcome)
{
    std::uint64_t origin;
    if (loc.kind == PageTable::LocKind::Flash) {
        const std::uint32_t seg = space_.logOf(loc.flash.segment);
        ENVY_ASSERT(seg != SegmentSpace::noLogical,
                    "controller: live page on the reserve segment");
        origin = policy_.originTag(seg);
    } else {
        origin = policy_.defaultOrigin(page);
    }

    const BufferSlotId slot = buffer_.push(page, origin);
    if (flash_.storesData()) {
        auto dst = buffer_.slotData(slot);
        if (loc.kind == PageTable::LocKind::Flash)
            flash_.readPage(loc.flash, dst);
        else
            std::fill(dst.begin(), dst.end(), 0);
    }
    ENVY_CRASH_POINT("ctl.cow.after_push");
    // The page table swing makes the new copy visible atomically...
    mmu_.mapToSram(page, slot);
    ENVY_CRASH_POINT("ctl.cow.after_map");
    // ...then the stale flash copy is invalidated — or kept as a
    // pinned shadow when a transaction wants rollback ability (§6).
    if (loc.kind == PageTable::LocKind::Flash) {
        if (cowShadowHook && cowShadowHook(page, loc.flash))
            flash_.convertToShadow(loc.flash);
        else
            flash_.invalidatePage(loc.flash);
    }
    ENVY_CRASH_POINT("ctl.cow.done");

    outcome.cow = true;
    metCows.add();
    ENVY_TRACE("ctl.cow", obs::tv("page", page.value()),
               obs::tv("slot", slot.value()),
               obs::tv("stalled_flushes", outcome.foregroundFlushes));
    return slot;
}

BufferSlotId
Controller::copyOnWrite(LogicalPageId page,
                        const PageTable::Location &stale_loc,
                        AccessOutcome &outcome)
{
    // Make room first: a full buffer stalls the host behind a flush
    // (and possibly a clean) — this is the latency cliff of Fig 15.
    PageTable::Location loc = stale_loc;
    while (buffer_.full()) {
        outcome.deviceBusy += flushOneLocked();
        ++outcome.foregroundFlushes;
        metForegroundFlushes.add();
        // Cleaning may have relocated the page we are copying.
        loc = mmu_.lookup(page, &outcome.tlbMiss);
    }
    return cowCore(page, loc, outcome);
}

Controller::AccessOutcome
Controller::write(Addr addr, std::span<const std::uint8_t> in)
{
    if (concurrent_)
        return writeConcurrent(addr, in);
    MutexLock lock(mu_);
    checkRange(addr, in.size());
    AccessOutcome outcome;
    std::size_t done = 0;
    while (done < in.size()) {
        const Addr a = addr + done;
        const LogicalPageId page = pageOf(a);
        const std::uint32_t off =
            static_cast<std::uint32_t>(a % geom_.pageSize);
        const std::size_t n = std::min<std::size_t>(
            in.size() - done, geom_.pageSize - off);
        metHostWrites.add();

        const PageTable::Location loc =
            mmu_.lookup(page, &outcome.tlbMiss);
        BufferSlotId slot;
        if (loc.kind == PageTable::LocKind::Sram) {
            slot = loc.sramSlot;
            outcome.hitSram = true;
            metBufferHits.add();
        } else {
            slot = copyOnWrite(page, loc, outcome);
        }
        if (flash_.storesData()) {
            auto dst = buffer_.slotData(slot);
            std::copy_n(in.begin() + done, n, dst.begin() + off);
        }
        done += n;
    }

    if (autoDrain_) {
        while (buffer_.aboveThreshold())
            flushOneLocked();
    }
    return outcome;
}

Tick
Controller::flushOne()
{
    if (concurrent_) {
        ExclusiveLock s(structMu_);
        if (buffer_.empty())
            return 0;
        bool no_room = false;
        return flushTailCore(false, &no_room);
    }
    MutexLock lock(mu_);
    return flushOneLocked();
}

Tick
Controller::flushOneLocked()
{
    bool no_room = false;
    return flushTailCore(false, &no_room);
}

Tick
Controller::flushTailCore(bool peek_only, bool *no_room)
{
    const WriteBuffer::TailInfo tail = buffer_.tail();
    // Thread-local cleaner time so inline cleaning is attributed to
    // the flushing thread (identical to the global delta in serial
    // mode; background cleaners keep their own clock).
    const Tick clean_busy0 = Cleaner::threadBusyTime();

    // Hold the tail slot's data stripe across [read data, program,
    // map swing, pop]: a concurrent hit-writer revalidates the slot
    // owner under the same stripe, so its bytes either land before
    // the program reads the slot or it observes the pop and retries
    // its translation.  Uncontended (and harmless) in serial mode.
    MutexLock stripe(buffer_.slotStripe(tail.slot));

    std::span<const std::uint8_t> data;
    if (flash_.storesData())
        data = std::as_const(buffer_).slotData(tail.slot);

    // A program can fail out of spec (§5.1: the status register
    // reports it); the slot is then retired and the page retried in
    // the next usable slot.  The policy is re-consulted each attempt
    // because a retirement may leave the destination without free
    // slots, forcing a clean.
    FlashPageAddr addr;
    SegmentId phys;
    for (;;) {
        std::uint32_t dest;
        if (peek_only) {
            // Concurrent fast path: only a destination that already
            // has room; cleaning belongs to the background pool.
            dest = policy_.peekDestination(tail.origin);
            if (dest == CleaningPolicy::noSegment) {
                *no_room = true;
                return 0;
            }
        } else {
            dest = policy_.flushDestination(tail.origin);
        }
        phys = space_.physOf(dest);
        ENVY_ASSERT(flash_.freeSlots(phys) > PageCount(0),
                    "controller: policy returned a full flush "
                    "destination");
        ENVY_CRASH_POINT("ctl.flush.before_program");
        const FlashArray::AppendResult res =
            flash_.tryAppendPage(phys, tail.logical, data);
        if (!res.failed) {
            addr = res.addr;
            break;
        }
        metFlushRetries.add();
        ENVY_CRASH_POINT("ctl.flush.after_program_failure");
    }
    ENVY_CRASH_POINT("ctl.flush.after_program");
    mmu_.mapToFlash(tail.logical, addr);
    ENVY_CRASH_POINT("ctl.flush.after_map");
    buffer_.popTail();
    space_.noteFlush();
    if (peek_only)
        policy_.noteFlush(tail.origin);
    ENVY_CRASH_POINT("ctl.flush.done");

    const Tick program = flash_.timing().programTimeAfter(
        flash_.eraseCycles(phys));
    const Tick busy =
        program + (Cleaner::threadBusyTime() - clean_busy0);
    tlDeviceBusy_ += busy;
    metFlushTicks.record(busy);
    ENVY_TRACE("ctl.flush", obs::tv("page", tail.logical.value()),
               obs::tv("segment", phys.value()),
               obs::tv("ticks", busy));
    return busy;
}

void
Controller::flushAll()
{
    if (concurrent_) {
        flushAllConcurrent();
        return;
    }
    MutexLock lock(mu_);
    while (!buffer_.empty())
        flushOneLocked();
}

// ---------------------------------------------------------------
// PR 8 concurrent mode.  Lock order: shard -> structMu_ -> buffer
// stripe -> component mutexes; see the lock-order table in
// docs/INTERNALS.md.

void
Controller::flushAllConcurrent()
{
    for (;;) {
        ExclusiveLock s(structMu_);
        if (buffer_.empty())
            return;
        bool no_room = false;
        flushTailCore(false, &no_room);
    }
}

void
Controller::drainOpportunistic()
{
    while (buffer_.aboveThreshold()) {
        {
            ExclusiveLock s(structMu_);
            if (!buffer_.aboveThreshold())
                return;
            bool no_room = false;
            flushTailCore(true, &no_room);
            if (!no_room)
                continue;
        }
        // No ready destination: this is the cleaners' cue, not a
        // reason to stall — the buffer still has head room.
        if (backpressureHook)
            backpressureHook();
        return;
    }
}

void
Controller::makeRoomBlocking(AccessOutcome &outcome)
{
    // Counted-wait backpressure (the paper's Fig 15 latency cliff,
    // made observable): wait for the cleaner pool to make room, and
    // only fall back to a synchronous inline clean when it cannot.
    constexpr int maxWaits = 4;
    for (int attempt = 0;; ++attempt) {
        {
            ExclusiveLock s(structMu_);
            if (!buffer_.full())
                return; // someone else made room
            bool no_room = false;
            const Tick busy = flushTailCore(true, &no_room);
            if (!no_room) {
                outcome.deviceBusy += busy;
                ++outcome.foregroundFlushes;
                metForegroundFlushes.add();
                notifyRoom();
                return;
            }
        }
        if (numCleaners_ == 0 || attempt >= maxWaits)
            break;
        metBackpressureWaits.add();
        ENVY_TRACE("ctl.backpressure", obs::tv("attempt", attempt));
        if (backpressureHook)
            backpressureHook();
        MutexLock wait(waitMu_);
        roomCv_.wait_for(wait, std::chrono::milliseconds(2));
    }

    // Last-resort slow path: clean inline on this thread.
    ExclusiveLock s(structMu_);
    if (!buffer_.full())
        return;
    bool no_room = false;
    outcome.deviceBusy += flushTailCore(false, &no_room);
    ++outcome.foregroundFlushes;
    metForegroundFlushes.add();
    notifyRoom();
}

bool
Controller::hitWriteLocked(LogicalPageId page, BufferSlotId slot,
                           std::span<const std::uint8_t> in,
                           std::uint32_t off, AccessOutcome &outcome)
{
    MutexLock stripe(buffer_.slotStripe(slot));
    // Revalidate under the stripe: the flusher holds it across
    // program + pop, so an owner match proves the slot still carries
    // this page's live copy.  Only this thread can COW the page (we
    // hold its shard lock).
    if (buffer_.slotOwner(slot) != page)
        return false; // recycled since the lookup; retranslate
    outcome.hitSram = true;
    metBufferHits.add();
    if (flash_.storesData()) {
        auto dst = buffer_.slotData(slot);
        std::copy(in.begin(), in.end(), dst.begin() + off);
    }
    return true;
}

void
Controller::writePageConcurrent(LogicalPageId page,
                                std::span<const std::uint8_t> in,
                                std::uint32_t off,
                                AccessOutcome &outcome)
{
    for (;;) {
        const PageTable::Location loc =
            mmu_.lookup(page, &outcome.tlbMiss);
        if (loc.kind == PageTable::LocKind::Sram) {
            bool hit;
            if (persistentConcurrent_) {
                // Shared structural lock across the slot mutation:
                // the commit pipeline captures dirty SRAM under the
                // exclusive side, so a capture never observes half
                // of this write (lock order: shard -> structMu_ ->
                // stripe, same as the flusher).
                SharedLock journalBarrier(structMu_);
                hit = hitWriteLocked(page, loc.sramSlot, in, off,
                                     outcome);
            } else {
                hit = hitWriteLocked(page, loc.sramSlot, in, off,
                                     outcome);
            }
            if (hit)
                return;
            continue;
        }
        if (buffer_.full()) {
            makeRoomBlocking(outcome);
            continue;
        }
        ExclusiveLock s(structMu_);
        if (buffer_.full())
            continue; // filled while we took the lock; retry
        // Re-translate under the structural lock: a cleaner may have
        // relocated the flash copy since the unlocked lookup.
        const PageTable::Location cur =
            mmu_.lookup(page, &outcome.tlbMiss);
        if (cur.kind == PageTable::LocKind::Sram)
            continue; // cannot happen while we hold the shard lock
        const BufferSlotId slot = cowCore(page, cur, outcome);
        // Safe without the stripe: flushers need structMu_, and no
        // other writer holds this page's shard lock.
        if (flash_.storesData()) {
            auto dst = buffer_.slotData(slot);
            std::copy(in.begin(), in.end(), dst.begin() + off);
        }
        return;
    }
}

Controller::AccessOutcome
Controller::writeConcurrent(Addr addr, std::span<const std::uint8_t> in)
{
    checkRange(addr, in.size());
    AccessOutcome outcome;
    std::size_t done = 0;
    while (done < in.size()) {
        const Addr a = addr + done;
        const LogicalPageId page = pageOf(a);
        const std::uint32_t off =
            static_cast<std::uint32_t>(a % geom_.pageSize);
        const std::size_t n = std::min<std::size_t>(
            in.size() - done, geom_.pageSize - off);
        metHostWrites.add();
        {
            ShardLock shard(shardMuFor(page));
            writePageConcurrent(page, in.subspan(done, n), off,
                                outcome);
        }
        done += n;
    }

    if (autoDrain_)
        drainOpportunistic();
    return outcome;
}

Controller::AccessOutcome
Controller::readConcurrent(Addr addr, std::span<std::uint8_t> out)
{
    // Bounce buffer for sub-page flash reads; thread-local because
    // concurrent readers must not share the serial-mode scratch_.
    static thread_local std::vector<std::uint8_t> tl_scratch;

    checkRange(addr, out.size());
    AccessOutcome outcome;
    std::size_t done = 0;
    while (done < out.size()) {
        const Addr a = addr + done;
        const LogicalPageId page = pageOf(a);
        const std::uint32_t off =
            static_cast<std::uint32_t>(a % geom_.pageSize);
        const std::size_t n = std::min<std::size_t>(
            out.size() - done, geom_.pageSize - off);
        metHostReads.add();

        ShardLock shard(shardMuFor(page));
        for (;;) {
            const PageTable::Location loc =
                mmu_.lookup(page, &outcome.tlbMiss);
            if (loc.kind == PageTable::LocKind::Unmapped) {
                std::fill_n(out.begin() + done, n, 0);
                break;
            }
            if (loc.kind == PageTable::LocKind::Sram) {
                MutexLock stripe(buffer_.slotStripe(loc.sramSlot));
                if (buffer_.slotOwner(loc.sramSlot) != page)
                    continue; // recycled; retranslate
                outcome.hitSram = true;
                if (flash_.storesData()) {
                    auto src =
                        std::as_const(buffer_).slotData(loc.sramSlot);
                    std::copy_n(src.begin() + off, n,
                                out.begin() + done);
                }
                break;
            }
            // Flash: a shared structural lock keeps cleaners (which
            // relocate and erase under the exclusive side) away while
            // the bank read runs.
            SharedLock s(structMu_);
            const PageTable::Location cur =
                mmu_.lookup(page, &outcome.tlbMiss);
            if (cur.kind != PageTable::LocKind::Flash ||
                !(cur.flash == loc.flash))
                continue; // moved before we got the lock; retry
            if (flash_.storesData()) {
                if (off == 0 && n == geom_.pageSize) {
                    flash_.readPage(cur.flash, out.subspan(done, n));
                } else {
                    if (tl_scratch.size() < geom_.pageSize)
                        tl_scratch.resize(geom_.pageSize);
                    flash_.readPage(cur.flash, tl_scratch);
                    std::copy_n(tl_scratch.begin() + off, n,
                                out.begin() + done);
                }
            }
            break;
        }
        done += n;
    }
    return outcome;
}

} // namespace envy
