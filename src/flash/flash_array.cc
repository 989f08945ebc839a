#include "flash/flash_array.hh"

#include <cstdlib>
#include <string_view>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "persist/flash_backing.hh"

namespace envy {

namespace {

/** ENVY_SLOW_DATAPLANE (any value but "0") forces the byte-at-a-time
 *  oracle for A/B runs without recompiling. */
bool
envSlowDataplane()
{
    const char *v = std::getenv("ENVY_SLOW_DATAPLANE");
    return v && *v && std::string_view(v) != "0";
}

} // namespace

FlashArray::FlashArray(const Geometry &geom, const FlashTiming &timing,
                       bool store_data, obs::MetricsRegistry *metrics,
                       bool slow_dataplane,
                       persist::FlashPersist *persist)
    : geom_(geom),
      timing_(timing),
      storeData_(store_data),
      slowDataplane_(slow_dataplane || envSlowDataplane()),
      persist_(persist)
{
    if (const char *problem = geom_.validate())
        ENVY_FATAL("flash: bad geometry: ", problem);

    obs::MetricsRegistry &reg = obs::registryOr(metrics, ownMetrics_);
    metPrograms = reg.counter("flash.programs", "pages",
                              "pages programmed into the array");
    metInvalidations = reg.counter("flash.invalidations", "pages",
                                   "pages marked dead by "
                                   "copy-on-write/clean");
    metErases = reg.counter("flash.erases", "segments",
                            "whole-segment erase operations");
    metPageReads = reg.counter("flash.page_reads", "pages",
                               "page reads via the wide path");
    metSlotsRetired = reg.counter("flash.slots_retired", "slots",
                                  "slots retired after a program "
                                  "spec-failure");
    metEraseRetries = reg.counter("flash.erase_retries", "erases",
                                  "erase attempts repeated after a "
                                  "transient failure");
    metEraseSpecFailures = reg.counter("flash.erase_spec_failures",
                                       "erases",
                                       "erases that overran their "
                                       "rated window");

    for (std::uint32_t b = 0; b < geom_.numBanks; ++b)
        banks_.emplace_back(geom_.pageSize, geom_.blockBytes,
                            geom_.blocksPerChip, timing_, store_data,
                            slowDataplane_, metrics,
                            persist_ ? persist_->bankBacking(b)
                                     : nullptr);

    segments_.resize(geom_.numSegments());
    for (auto &s : segments_) {
        s.owner.assign(geom_.pagesPerSegment().value(), ownerDead);
        s.retired.assign(geom_.pagesPerSegment().value(), false);
    }
}

FlashArray::SegmentState &
FlashArray::state(SegmentId seg)
{
    ENVY_ASSERT(seg.valid() && seg.value() < segments_.size(),
                "flash: bad segment id ", seg);
    return segments_[seg.value()];
}

const FlashArray::SegmentState &
FlashArray::state(SegmentId seg) const
{
    ENVY_ASSERT(seg.valid() && seg.value() < segments_.size(),
                "flash: bad segment id ", seg);
    return segments_[seg.value()];
}

void
FlashArray::retireCurrentSlot(SegmentId seg, SegmentState &s)
{
    const std::uint32_t slot = s.writePtr;
    s.retired[slot] = true;
    s.owner[slot] = ownerDead;
    ++s.retiredTotal;
    ++s.writePtr; // the slot is consumed, but holds nothing live
    if (persist_) {
        persist_->meta.setRetired(seg, SlotId(slot));
        persist_->meta.setWritePtr(seg, s.writePtr);
    }
}

FlashArray::AppendResult
FlashArray::tryAppendRaw(SegmentId seg, std::uint32_t owner,
                         std::span<const std::uint8_t> data)
{
    SegmentState &s = state(seg);
    const std::uint32_t cap =
        static_cast<std::uint32_t>(geom_.pagesPerSegment().value());

    // Skip slots retired in an earlier life of this segment.
    const std::uint32_t ptrBeforeSkip = s.writePtr;
    while (s.writePtr < cap && s.retired[s.writePtr]) {
        ++s.writePtr;
        ENVY_ASSERT(s.retiredAhead > 0,
                    "flash: retired-slot accounting");
        --s.retiredAhead;
    }
    if (persist_ && s.writePtr != ptrBeforeSkip)
        persist_->meta.setWritePtr(seg, s.writePtr);
    ENVY_ASSERT(s.writePtr < cap,
                "flash: append to a full segment ", seg);

    const SlotId slot(s.writePtr);
    const std::uint32_t block = geom_.blockOf(seg);
    FlashBank &owning_bank = bank(geom_.bankOf(seg));

    if (programFaultHook && programFaultHook(seg, slot))
        owning_bank.chip(0).forceProgramSpecFailure(block);

    if (storeData_) {
        ENVY_ASSERT(data.size() >= geom_.pageSize,
                    "flash: page data missing in functional mode");
        owning_bank.programPage(block, slot.value(), data);
    }

    // The controller checks the status of all chips in parallel
    // after every operation (paper section 5.1).
    if (!owning_bank.allProgrammedOk()) {
        // A spec-failure (wear overrun or injected fault) retires
        // the slot: the damage is physical, so the mark survives
        // erase and the slot is never programmed again.  Any other
        // program error means a slot was reused without an erase --
        // a controller bug, not a device failure.
        ENVY_ASSERT(owning_bank.blockSpecFailed(block),
                    "flash: program error in segment ", seg,
                    " slot ", slot);
        owning_bank.clearStatus();
        if (persist_)
            persist_->meta.setSpecFailed(seg);
        retireCurrentSlot(seg, s);
        metSlotsRetired.add();
        if (segmentChangedHook)
            segmentChangedHook(seg);
        return AppendResult{FlashPageAddr{}, true};
    }

    ++s.writePtr;
    s.owner[slot.value()] = owner;
    ++s.live;
    totalLive_ += PageCount(1);
    if (persist_) {
        // Cells were programmed above, before this metadata: a crash
        // in between leaves a "flash-ahead" tail that reopen scrubs
        // (docs/PERSISTENCE.md).
        persist_->meta.setOwner(seg, slot, owner);
        persist_->meta.setWritePtr(seg, s.writePtr);
    }
    metPrograms.add();
    if (segmentChangedHook)
        segmentChangedHook(seg);
    return AppendResult{FlashPageAddr{seg, slot}, false};
}

FlashPageAddr
FlashArray::appendRaw(SegmentId seg, std::uint32_t owner,
                      std::span<const std::uint8_t> data)
{
    for (;;) {
        const AppendResult r = tryAppendRaw(seg, owner, data);
        if (!r.failed)
            return r.addr;
    }
}

FlashPageAddr
FlashArray::appendPage(SegmentId seg, LogicalPageId logical,
                       std::span<const std::uint8_t> data)
{
    ENVY_ASSERT(logical.valid() && logical.value() < ownerShadow,
                "flash: bad logical page ", logical);
    return appendRaw(seg,
                     static_cast<std::uint32_t>(logical.value()),
                     data);
}

FlashArray::AppendResult
FlashArray::tryAppendPage(SegmentId seg, LogicalPageId logical,
                          std::span<const std::uint8_t> data)
{
    ENVY_ASSERT(logical.valid() && logical.value() < ownerShadow,
                "flash: bad logical page ", logical);
    return tryAppendRaw(seg,
                        static_cast<std::uint32_t>(logical.value()),
                        data);
}

FlashPageAddr
FlashArray::appendShadow(SegmentId seg,
                         std::span<const std::uint8_t> data)
{
    return appendRaw(seg, ownerShadow, data);
}

void
FlashArray::invalidatePage(FlashPageAddr addr)
{
    SegmentState &s = state(addr.segment);
    ENVY_ASSERT(addr.slot.value() < s.writePtr,
                "flash: invalidate of unwritten slot");
    ENVY_ASSERT(s.owner[addr.slot.value()] != ownerDead,
                "flash: double invalidate of segment ", addr.segment,
                " slot ", addr.slot);
    s.owner[addr.slot.value()] = ownerDead;
    ENVY_ASSERT(s.live > 0, "flash: live underflow");
    --s.live;
    totalLive_ -= PageCount(1);
    if (persist_)
        persist_->meta.setOwner(addr.segment, addr.slot, ownerDead);
    metInvalidations.add();
    if (segmentChangedHook)
        segmentChangedHook(addr.segment);
}

void
FlashArray::readPage(FlashPageAddr addr, std::span<std::uint8_t> out)
{
    const SegmentState &s = state(addr.segment);
    ENVY_ASSERT(addr.slot.value() < s.writePtr,
                "flash: read of unwritten slot");
    metPageReads.add();
    if (!storeData_)
        return;
    bank(geom_.bankOf(addr.segment)).readPage(
        geom_.blockOf(addr.segment), addr.slot.value(), out);
}

LogicalPageId
FlashArray::pageOwner(FlashPageAddr addr) const
{
    const SegmentState &s = state(addr.segment);
    if (addr.slot.value() >= s.writePtr ||
        s.owner[addr.slot.value()] >= ownerShadow)
        return LogicalPageId::invalid();
    return LogicalPageId(s.owner[addr.slot.value()]);
}

void
FlashArray::convertToShadow(FlashPageAddr addr)
{
    SegmentState &s = state(addr.segment);
    ENVY_ASSERT(addr.slot.value() < s.writePtr &&
                    s.owner[addr.slot.value()] < ownerShadow,
                "flash: only a live page can become a shadow");
    s.owner[addr.slot.value()] = ownerShadow;
    if (persist_)
        persist_->meta.setOwner(addr.segment, addr.slot,
                                ownerShadow);
    // Still counted live: the cleaner must carry shadows along.
}

bool
FlashArray::pageIsShadow(FlashPageAddr addr) const
{
    const SegmentState &s = state(addr.segment);
    return addr.slot.value() < s.writePtr &&
           s.owner[addr.slot.value()] == ownerShadow;
}

void
FlashArray::forEachShadow(
    SegmentId seg,
    const std::function<void(SlotId)> &fn) const
{
    const SegmentState &s = state(seg);
    for (std::uint32_t slot = 0; slot < s.writePtr; ++slot) {
        if (s.owner[slot] == ownerShadow)
            fn(SlotId(slot));
    }
}

bool
FlashArray::pageLive(FlashPageAddr addr) const
{
    return pageOwner(addr).valid();
}

PageCount
FlashArray::freeSlots(SegmentId seg) const
{
    const SegmentState &s = state(seg);
    return geom_.pagesPerSegment() -
           PageCount(std::uint64_t{s.writePtr} + s.retiredAhead);
}

PageCount
FlashArray::liveCount(SegmentId seg) const
{
    return PageCount(state(seg).live);
}

PageCount
FlashArray::invalidCount(SegmentId seg) const
{
    // Retired slots behind the write pointer are not reclaimable
    // dead space: an erase does not bring them back.
    const SegmentState &s = state(seg);
    const std::uint32_t retired_behind = s.retiredTotal - s.retiredAhead;
    return PageCount(s.writePtr - s.live - retired_behind);
}

PageCount
FlashArray::usedSlots(SegmentId seg) const
{
    return PageCount(state(seg).writePtr);
}

double
FlashArray::utilization(SegmentId seg) const
{
    return static_cast<double>(state(seg).live) /
           asDouble(geom_.pagesPerSegment());
}

std::uint64_t
FlashArray::eraseCycles(SegmentId seg) const
{
    return state(seg).eraseCycles;
}

Tick
FlashArray::eraseSegment(SegmentId seg)
{
    SegmentState &s = state(seg);
    ENVY_ASSERT(s.live == 0, "flash: erasing segment ", seg,
                " with ", s.live, " live pages");

    FlashBank &owning_bank = bank(geom_.bankOf(seg));
    const std::uint32_t block = geom_.blockOf(seg);

    Tick busy = 0;
    for (std::uint32_t attempt = 0;; ++attempt) {
        const bool transient = eraseFaultHook && eraseFaultHook(seg);
        busy += owning_bank.eraseSegment(block);
        ++s.eraseCycles;
        if (!transient)
            break;
        // Transient bad block: the erase did not verify; retry.
        metEraseRetries.add();
        ENVY_ASSERT(attempt < 8, "flash: segment ", seg,
                    " repeatedly failed to erase");
    }
    if (!owning_bank.allErasedOk()) {
        // Wear overrun (§2): the block is erased, just slower than
        // spec allows.  Record the failure and carry on; the block
        // stays usable and the chips remember it spec-failed.
        metEraseSpecFailures.add();
        owning_bank.clearStatus();
        if (persist_)
            persist_->meta.setSpecFailed(seg);
    }

    std::fill(s.owner.begin(), s.owner.begin() + s.writePtr, ownerDead);
    s.writePtr = 0;
    // Retired slots stay retired: the damage is physical.
    s.retiredAhead = s.retiredTotal;
    if (persist_)
        persist_->meta.resetAfterErase(seg, s.eraseCycles);
    metErases.add();
    ENVY_TRACE("flash.erase", obs::tv("segment", seg.value()),
               obs::tv("cycles", s.eraseCycles));
    if (segmentChangedHook)
        segmentChangedHook(seg);
    return busy;
}

bool
FlashArray::slotRetired(FlashPageAddr addr) const
{
    const SegmentState &s = state(addr.segment);
    ENVY_ASSERT(addr.slot.value() < geom_.pagesPerSegment().value(),
                "flash: bad slot ", addr.slot);
    return s.retired[addr.slot.value()];
}

PageCount
FlashArray::retiredCount(SegmentId seg) const
{
    return PageCount(state(seg).retiredTotal);
}

void
FlashArray::retireNextSlot(SegmentId seg)
{
    SegmentState &s = state(seg);
    ENVY_ASSERT(s.writePtr < geom_.pagesPerSegment().value(),
                "flash: retire in a full segment ", seg);
    ENVY_ASSERT(!s.retired[s.writePtr], "flash: slot already retired");
    retireCurrentSlot(seg, s);
    if (segmentChangedHook)
        segmentChangedHook(seg);
}

void
FlashArray::restoreRetiredAhead(SegmentId seg, SlotId slot)
{
    SegmentState &s = state(seg);
    ENVY_ASSERT(slot.value() < geom_.pagesPerSegment().value(),
                "flash: bad slot ", slot);
    ENVY_ASSERT(slot.value() >= s.writePtr,
                "flash: restoreRetiredAhead below the write pointer");
    ENVY_ASSERT(!s.retired[slot.value()],
                "flash: slot already retired");
    s.retired[slot.value()] = true;
    ++s.retiredTotal;
    ++s.retiredAhead;
    if (persist_)
        persist_->meta.setRetired(seg, slot);
    if (segmentChangedHook)
        segmentChangedHook(seg);
}

bool
FlashArray::segmentSpecFailed(SegmentId seg) const
{
    return bank(geom_.bankOf(seg)).blockSpecFailed(geom_.blockOf(seg));
}

std::vector<SegmentId>
FlashArray::specFailedSegments() const
{
    std::vector<SegmentId> out;
    for (std::uint64_t i = 0; i < geom_.numSegments(); ++i) {
        if (segmentSpecFailed(SegmentId(i)))
            out.push_back(SegmentId(i));
    }
    return out;
}

void
FlashArray::forEachLive(
    SegmentId seg,
    const std::function<void(SlotId, LogicalPageId)> &fn) const
{
    const SegmentState &s = state(seg);
    for (std::uint32_t slot = 0; slot < s.writePtr; ++slot) {
        if (s.owner[slot] < ownerShadow)
            fn(SlotId(slot), LogicalPageId(s.owner[slot]));
    }
}

void
FlashArray::restoreWear(SegmentId seg, std::uint64_t cycles)
{
    state(seg).eraseCycles = cycles;
    FlashBank &owning_bank = bank(geom_.bankOf(seg));
    for (std::uint32_t c = 0; c < geom_.pageSize; ++c)
        owning_bank.chip(c).restoreCycles(geom_.blockOf(seg), cycles);
    if (persist_)
        persist_->meta.setEraseCycles(seg, cycles);
}

void
FlashArray::restoreFromPersist()
{
    ENVY_ASSERT(persist_, "flash: restoreFromPersist without backing");
    const persist::FlashMetaView &m = persist_->meta;
    const std::uint32_t cap =
        static_cast<std::uint32_t>(geom_.pagesPerSegment().value());

    totalLive_ = PageCount(0);
    for (std::uint64_t i = 0; i < geom_.numSegments(); ++i) {
        const SegmentId seg(i);
        SegmentState &s = segments_[i];
        const std::uint32_t ptr = m.writePtr(seg);
        ENVY_ASSERT(ptr <= cap,
                    "persist: segment ", seg, " write pointer ", ptr,
                    " beyond capacity ", cap);
        s.writePtr = ptr;
        s.eraseCycles = m.eraseCycles(seg);
        s.live = 0;
        s.retiredTotal = 0;
        s.retiredAhead = 0;
        for (std::uint32_t slot = 0; slot < cap; ++slot) {
            const bool retired = m.retired(seg, SlotId(slot));
            s.retired[slot] = retired;
            if (retired) {
                ++s.retiredTotal;
                if (slot >= ptr)
                    ++s.retiredAhead;
            }
            // Beyond the write pointer the slot is erased whatever
            // the file says: a crash between setOwner and setWritePtr
            // can leave a stale owner word there.
            const std::uint32_t owner =
                slot < ptr ? m.owner(seg, SlotId(slot)) : ownerDead;
            s.owner[slot] = owner;
            if (slot < ptr && owner != ownerDead)
                ++s.live; // shadows included, as in convertToShadow
        }
        totalLive_ += PageCount(s.live);

        FlashBank &owning_bank = bank(geom_.bankOf(seg));
        const std::uint32_t block = geom_.blockOf(seg);
        for (std::uint32_t c = 0; c < geom_.pageSize; ++c)
            owning_bank.chip(c).restoreCycles(block, s.eraseCycles);
        if (m.specFailed(seg))
            owning_bank.chip(0).restoreSpecFailed(block);
        // Cells programmed ahead of the recorded write pointer (crash
        // between program and metadata update) go back to 0xFF so the
        // append-only AND-programming semantics hold.
        owning_bank.scrubTail(block, ptr);
    }
}

std::uint64_t
FlashArray::materializedBlocks() const
{
    std::uint64_t total = 0;
    for (const auto &b : banks_)
        total += b.materializedBlocks();
    return total;
}

bool
FlashArray::outOfSpec() const
{
    for (const auto &b : banks_) {
        if (b.outOfSpec())
            return true;
    }
    return false;
}

} // namespace envy
