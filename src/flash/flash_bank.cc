#include "flash/flash_bank.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace envy {

FlashBank::FlashBank(std::uint32_t chips_per_bank,
                     std::uint32_t block_bytes,
                     std::uint32_t blocks_per_chip,
                     const FlashTiming &timing, bool store_data,
                     bool slow_dataplane, obs::MetricsRegistry *metrics,
                     persist::BankBacking *backing)
    : chipsPerBank_(chips_per_bank),
      blockBytes_(block_bytes),
      blocksPerChip_(blocks_per_chip),
      storeData_(store_data),
      slowDataplane_(slow_dataplane),
      timing_(timing)
{
    if (storeData_) {
        // One page-major store shared by every chip: bank page p of
        // block b is contiguous, chips are per-lane views.  Heap
        // allocation keeps the chips' pointers stable across moves.
        store_ = std::make_unique<BankPageStore>(
            chipsPerBank_, blockBytes_, blocksPerChip_, metrics,
            backing);
    }
    chips_.reserve(chipsPerBank_);
    for (std::uint32_t i = 0; i < chipsPerBank_; ++i)
        chips_.emplace_back(block_bytes, blocks_per_chip, timing,
                            store_.get(), i);
}

Tick
FlashBank::readPageSlow(std::uint32_t block, std::uint32_t page_off,
                        std::span<std::uint8_t> out) const
{
    const std::uint64_t addr = byteAddr(block, page_off);
    for (std::uint32_t j = 0; j < chipsPerBank_; ++j)
        out[j] = chips_[j].read(addr);
    // One wide cycle regardless of width.
    return timing_.readTime;
}

Tick
FlashBank::readPage(std::uint32_t block, std::uint32_t page_off,
                    std::span<std::uint8_t> out) const
{
    ENVY_ASSERT(block < blocksPerChip_ && page_off < blockBytes_,
                "bank read out of range");
    ENVY_ASSERT(out.size() >= chipsPerBank_, "output span too small");
    if (slowDataplane_)
        return readPageSlow(block, page_off, out);

    // CUI enforcement at the page boundary: any lane not in
    // read-array mode (a chip left in ReadStatus returns its status
    // byte; a pending program/erase asserts) must take the exact
    // per-chip path.  The lockstep cache answers the common all-idle
    // case without touching pageSize chip objects.
    if (!lanesLockstep()) {
        for (std::uint32_t j = 0; j < chipsPerBank_; ++j) {
            if (!chips_[j].inReadArray())
                return readPageSlow(block, page_off, out);
        }
    }

    if (!storeData_) {
        std::memset(out.data(), 0xFF, chipsPerBank_);
        return timing_.readTime;
    }
    const std::span<const std::uint8_t> cells =
        store_->pageIfMaterialized(block, page_off);
    if (cells.empty())
        std::memset(out.data(), 0xFF, chipsPerBank_); // erased page
    else
        std::memcpy(out.data(), cells.data(), chipsPerBank_);
    return timing_.readTime;
}

Tick
FlashBank::programPageSlow(std::uint32_t block, std::uint32_t page_off,
                           std::span<const std::uint8_t> data)
{
    const std::uint64_t addr = byteAddr(block, page_off);
    Tick busy = 0;
    for (std::uint32_t j = 0; j < chipsPerBank_; ++j) {
        chips_[j].writeCommand(FlashCmd::ProgramSetup); // envy-analyze: allow(no-per-byte-page-loop) slow-path oracle
        busy = std::max(busy, chips_[j].programByte(addr, data[j])); // envy-analyze: allow(no-per-byte-page-loop) slow-path oracle
    }
    return busy;
}

Tick
FlashBank::programPage(std::uint32_t block, std::uint32_t page_off,
                       std::span<const std::uint8_t> data)
{
    ENVY_ASSERT(block < blocksPerChip_ && page_off < blockBytes_,
                "bank program out of range");
    ENVY_ASSERT(data.size() >= chipsPerBank_, "input span too small");
    if (slowDataplane_)
        return programPageSlow(block, page_off, data);

    // One wear/timing computation for the whole page: erase is
    // bank-wide, so wear is in lockstep and chip 0 speaks for every
    // lane (chips start at zero cycles and applyBankErase increments
    // them together).
    const Tick t = timing_.programTimeAfter(chips_[0].blockCycles(block));
    const bool overrun = t > timing_.maxProgramTime;

    // applyBankProgram (mode back to read-array, suspended cleared)
    // is a no-op on a lockstep-idle lane, so the all-idle case skips
    // the per-chip walk entirely.
    if (!lanesLockstep()) {
        for (auto &c : chips_)
            c.applyBankProgram(); // net ProgramSetup + programByte effect
    }

    if (!storeData_) {
        if (overrun) {
            // Latches programError per lane.
            lanesLockstep_.store(false, std::memory_order_relaxed);
            for (auto &c : chips_)
                c.noteProgramSpecFail(block);
        }
        return t;
    }

    const std::span<const std::uint8_t> present =
        store_->pageIfMaterialized(block, page_off);
    if (present.empty()) {
        // Erased page: no 0 -> 1 transition is possible.  Materialize
        // only when the data actually clears a bit, so all-ones
        // programs keep the store sparse (matches programByte).
        bool all_ones = true;
        for (std::uint32_t j = 0; j < chipsPerBank_; ++j)
            all_ones = all_ones && data[j] == 0xFF;
        if (!all_ones) {
            const std::span<std::uint8_t> cells =
                store_->pageForWrite(block, page_off);
            std::memcpy(cells.data(), data.data(), chipsPerBank_);
        }
        if (overrun) {
            lanesLockstep_.store(false, std::memory_order_relaxed);
            for (auto &c : chips_)
                c.noteProgramSpecFail(block);
        }
        return t;
    }

    // Error scan first (branchless, vectorizable): a lane requesting
    // a 0 -> 1 transition latches a program error and does not touch
    // its cell or its spec-failure record, exactly like programByte.
    std::uint8_t err = 0;
    for (std::uint32_t j = 0; j < chipsPerBank_; ++j)
        err = static_cast<std::uint8_t>(err | (data[j] & ~present[j]));
    const std::span<std::uint8_t> cells =
        store_->pageForWrite(block, page_off);
    if (err == 0) {
        for (std::uint32_t j = 0; j < chipsPerBank_; ++j)
            cells[j] = static_cast<std::uint8_t>(cells[j] & data[j]);
        if (overrun) {
            lanesLockstep_.store(false, std::memory_order_relaxed);
            for (auto &c : chips_)
                c.noteProgramSpecFail(block);
        }
        return t;
    }
    // Some lane latches programError below.
    lanesLockstep_.store(false, std::memory_order_relaxed);
    for (std::uint32_t j = 0; j < chipsPerBank_; ++j) {
        if ((data[j] & ~cells[j]) != 0) {
            chips_[j].noteProgramError();
        } else {
            cells[j] = static_cast<std::uint8_t>(cells[j] & data[j]);
            if (overrun)
                chips_[j].noteProgramSpecFail(block);
        }
    }
    return t;
}

Tick
FlashBank::eraseSegmentSlow(std::uint32_t block)
{
    Tick busy = 0;
    for (auto &chip : chips_) {
        chip.writeCommand(FlashCmd::EraseSetup);
        busy = std::max(busy, chip.eraseBlock(block));
    }
    return busy;
}

Tick
FlashBank::eraseSegment(std::uint32_t block)
{
    ENVY_ASSERT(block < blocksPerChip_, "bank erase out of range");
    if (slowDataplane_)
        return eraseSegmentSlow(block);

    const std::uint64_t cycles = chips_[0].blockCycles(block);
    const Tick t = timing_.eraseTimeAfter(cycles);
    const bool overrun = t > timing_.maxEraseTime;
    if (overrun) {
        // applyBankErase latches eraseError.
        lanesLockstep_.store(false, std::memory_order_relaxed);
    }
    for (auto &c : chips_) {
        ENVY_ASSERT(c.blockCycles(block) == cycles,
                    "flash: bank wear out of lockstep");
        c.applyBankErase(block, overrun);
    }
    if (store_)
        store_->release(block); // lazy erase: 0xFF on next touch
    return t;
}

bool
FlashBank::allReady() const
{
    if (lanesLockstep())
        return true;
    return std::all_of(chips_.begin(), chips_.end(),
                       [](const FlashChip &c) {
                           return (c.status() & FlashStatus::ready) != 0;
                       });
}

bool
FlashBank::allProgrammedOk() const
{
    if (lanesLockstep())
        return true;
    return std::all_of(chips_.begin(), chips_.end(),
                       [](const FlashChip &c) {
                           return (c.status() &
                                   FlashStatus::programError) == 0;
                       });
}

bool
FlashBank::allErasedOk() const
{
    if (lanesLockstep())
        return true;
    return std::all_of(chips_.begin(), chips_.end(),
                       [](const FlashChip &c) {
                           return (c.status() &
                                   FlashStatus::eraseError) == 0;
                       });
}

void
FlashBank::clearStatus()
{
    // ClearStatus leaves lanes in read-status mode on real parts; the
    // model mirrors whatever FlashChip does, so revalidate lazily.
    lanesLockstep_.store(false, std::memory_order_relaxed);
    for (auto &chip : chips_)
        chip.writeCommand(FlashCmd::ClearStatus);
}

bool
FlashBank::blockSpecFailed(std::uint32_t block) const
{
    return std::any_of(chips_.begin(), chips_.end(),
                       [block](const FlashChip &c) {
                           return c.blockSpecFailed(block);
                       });
}

std::vector<std::uint32_t>
FlashBank::specFailedBlocks() const
{
    std::vector<std::uint32_t> blocks;
    for (std::uint32_t b = 0; b < blocksPerChip_; ++b) {
        if (blockSpecFailed(b))
            blocks.push_back(b);
    }
    return blocks;
}

bool
FlashBank::outOfSpec() const
{
    return std::any_of(chips_.begin(), chips_.end(),
                       [](const FlashChip &c) { return c.outOfSpec(); });
}

std::uint64_t
FlashBank::segmentCycles(std::uint32_t block) const
{
    return chips_[0].blockCycles(block);
}

} // namespace envy
