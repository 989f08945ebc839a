#include "sram/write_buffer.hh"

#include "common/logging.hh"

namespace envy {

WriteBuffer::WriteBuffer(SramArray &sram, Addr base,
                         std::uint32_t capacity, std::uint32_t page_size,
                         bool store_data, std::uint32_t threshold,
                         obs::MetricsRegistry *metrics)
    : sram_(sram),
      base_(base),
      capacity_(capacity),
      pageSize_(page_size),
      storeData_(store_data),
      threshold_(threshold ? threshold : capacity / 2),
      dataBase_(base + slotsOff + Addr(capacity) * 8)
{
    ENVY_ASSERT(capacity_ >= 2, "buffer: needs at least two slots");
    ENVY_ASSERT(threshold_ <= capacity_,
                "buffer: threshold above capacity");
    ENVY_ASSERT(base_ + bytesNeeded(capacity, page_size, store_data) <=
                    sram.size(),
                "buffer: write buffer does not fit in SRAM");
    obs::MetricsRegistry &reg = obs::registryOr(metrics, ownMetrics_);
    metInserts = reg.counter("buf.inserts", "pages",
                             "pages inserted by copy-on-write");
    metFlushes = reg.counter("buf.flushes", "pages",
                             "pages released after flush");
    metOccupancy = reg.gauge("buf.occupancy", "pages",
                             "resident pages; high = high-water");
    MutexLock lock(mu_);
    // Fresh buffer: mark every slot unowned.
    owners_ = std::make_unique<std::atomic<std::uint32_t>[]>(capacity_);
    for (std::uint32_t s = 0; s < capacity_; ++s) {
        sram_.writeUint(slotMetaAddr(s), noOwner, 4);
        sram_.writeUint(slotMetaAddr(s) + 4, 0, 4);
        setOwnerLocked(s, noOwner);
    }
    origins_.assign(capacity_, 0);
    std::uint32_t table = 4;
    while (table < 2 * capacity_)
        table *= 2;
    probe_.assign(table, probeEmpty);
    probeMask_ = table - 1;
    syncHeader();
}

void
WriteBuffer::mapInsert(std::uint32_t key, std::uint32_t ring_slot)
{
    std::uint32_t i = probeHome(key);
    while (probe_[i] != probeEmpty) {
        ENVY_ASSERT(ownerLocked(probe_[i]) != key, "buffer: page ",
                    key, " is already resident");
        i = (i + 1) & probeMask_;
    }
    probe_[i] = ring_slot;
}

void
WriteBuffer::mapErase(std::uint32_t key)
{
    std::uint32_t i = probeHome(key);
    while (probe_[i] != probeEmpty && ownerLocked(probe_[i]) != key)
        i = (i + 1) & probeMask_;
    ENVY_ASSERT(probe_[i] != probeEmpty,
                "buffer: residency map out of lockstep");
    // Backward-shift deletion: pull later entries of the probe chain
    // into the hole so lookups never need tombstones.
    std::uint32_t hole = i;
    std::uint32_t j = (i + 1) & probeMask_;
    while (probe_[j] != probeEmpty) {
        const std::uint32_t home = probeHome(ownerLocked(probe_[j]));
        if (((j - home) & probeMask_) >= ((j - hole) & probeMask_)) {
            probe_[hole] = probe_[j];
            hole = j;
        }
        j = (j + 1) & probeMask_;
    }
    probe_[hole] = probeEmpty;
}

std::uint32_t
WriteBuffer::mapFind(std::uint32_t key) const
{
    std::uint32_t i = probeHome(key);
    while (probe_[i] != probeEmpty) {
        if (ownerLocked(probe_[i]) == key)
            return probe_[i];
        i = (i + 1) & probeMask_;
    }
    return probeEmpty;
}

std::uint64_t
WriteBuffer::bytesNeeded(std::uint32_t capacity, std::uint32_t page_size,
                         bool store_data)
{
    std::uint64_t n = slotsOff + std::uint64_t(capacity) * 8;
    if (store_data)
        n += std::uint64_t(capacity) * page_size;
    return n;
}

void
WriteBuffer::syncHeader()
{
    sram_.writeUint(base_ + headOff, head_, 4);
    sram_.writeUint(base_ + countOff, size(), 4);
}

BufferSlotId
WriteBuffer::push(LogicalPageId logical, std::uint64_t origin)
{
    MutexLock lock(mu_);
    const std::uint32_t count = size();
    ENVY_ASSERT(count < capacity_,
                "buffer: push into a full write buffer");
    ENVY_ASSERT(logical.valid() && logical.value() < noOwner,
                "buffer: bad logical page");
    const std::uint32_t slot = head_;
    sram_.writeUint(slotMetaAddr(slot),
                    static_cast<std::uint32_t>(logical.value()), 4);
    sram_.writeUint(slotMetaAddr(slot) + 4,
                    static_cast<std::uint32_t>(origin), 4);
    const auto owner = static_cast<std::uint32_t>(logical.value());
    mapInsert(owner, slot); // asserts the page was not resident
    // Publish the owner before the count: a lock-free reader that sees
    // the new occupancy also sees the slot it covers.
    setOwnerLocked(slot, owner);
    origins_[slot] = static_cast<std::uint32_t>(origin);
    head_ = (head_ + 1) % capacity_;
    setCountLocked(count + 1);
    syncHeader();
    metInserts.add();
    metOccupancy.set(count + 1);
    return BufferSlotId(slot);
}

WriteBuffer::TailInfo
WriteBuffer::tail() const
{
    MutexLock lock(mu_);
    const std::uint32_t count = size();
    ENVY_ASSERT(count > 0, "buffer: tail of an empty write buffer");
    const BufferSlotId slot((head_ + capacity_ - count) % capacity_);
    return TailInfo{slot, slotOwner(slot), slotOriginLocked(slot)};
}

void
WriteBuffer::popTail()
{
    MutexLock lock(mu_);
    const std::uint32_t count = size();
    ENVY_ASSERT(count > 0, "buffer: pop of an empty write buffer");
    const std::uint32_t slot = (head_ + capacity_ - count) % capacity_;
    sram_.writeUint(slotMetaAddr(slot), noOwner, 4);
    ENVY_ASSERT(ownerLocked(slot) != noOwner,
                "buffer: pop of an unowned tail slot");
    mapErase(ownerLocked(slot)); // before the owner mirror is cleared
    setOwnerLocked(slot, noOwner);
    setCountLocked(count - 1);
    syncHeader();
    metFlushes.add();
    metOccupancy.set(count - 1);
}

LogicalPageId
WriteBuffer::slotOwner(BufferSlotId slot) const
{
    ENVY_ASSERT(slot.value() < capacity_, "buffer: slot out of range");
    const std::uint32_t v =
        owners_[slot.value()].load(std::memory_order_acquire);
    if (v == noOwner)
        return LogicalPageId::invalid();
    return LogicalPageId(v);
}

std::uint64_t
WriteBuffer::slotOriginLocked(BufferSlotId slot) const
{
    ENVY_ASSERT(slot.value() < capacity_, "buffer: slot out of range");
    return origins_[slot.value()];
}

std::uint64_t
WriteBuffer::slotOrigin(BufferSlotId slot) const
{
    MutexLock lock(mu_);
    return slotOriginLocked(slot);
}

BufferSlotId
WriteBuffer::find(LogicalPageId logical) const
{
    MutexLock lock(mu_);
    const std::uint32_t slot =
        mapFind(static_cast<std::uint32_t>(logical.value()));
    return slot != probeEmpty ? BufferSlotId(slot)
                              : BufferSlotId::invalid();
}

std::span<std::uint8_t>
WriteBuffer::slotData(BufferSlotId slot)
{
    ENVY_ASSERT(storeData_, "buffer: slotData in metadata-only mode");
    ENVY_ASSERT(slot.value() < capacity_, "buffer: slot out of range");
    // mutableSpan (not raw().subspan) so dirty tracking sees the
    // page-data writes the controller does through this window.
    return sram_.mutableSpan(slotDataAddr(slot.value()), pageSize_);
}

std::span<const std::uint8_t>
WriteBuffer::slotData(BufferSlotId slot) const
{
    ENVY_ASSERT(storeData_, "buffer: slotData in metadata-only mode");
    ENVY_ASSERT(slot.value() < capacity_, "buffer: slot out of range");
    return std::span<const std::uint8_t>(sram_.raw())
        .subspan(slotDataAddr(slot.value()), pageSize_);
}

bool
WriteBuffer::slotResident(BufferSlotId slot) const
{
    return slotOwner(slot).valid();
}

void
WriteBuffer::reset()
{
    MutexLock lock(mu_);
    for (std::uint32_t s = 0; s < capacity_; ++s) {
        sram_.writeUint(slotMetaAddr(s), noOwner, 4);
        setOwnerLocked(s, noOwner);
    }
    origins_.assign(capacity_, 0);
    probe_.assign(probe_.size(), probeEmpty);
    head_ = 0;
    setCountLocked(0);
    syncHeader();
}

void
WriteBuffer::recover()
{
    MutexLock lock(mu_);
    head_ = static_cast<std::uint32_t>(
        sram_.readUint(base_ + headOff, 4));
    const auto count = static_cast<std::uint32_t>(
        sram_.readUint(base_ + countOff, 4));
    ENVY_ASSERT(head_ < capacity_ && count <= capacity_,
                "buffer: corrupt header after power failure");
    // The one legitimate full scan: rebuild the in-core mirrors and
    // the residency map from the durable SRAM slot table.
    probe_.assign(probe_.size(), probeEmpty);
    for (std::uint32_t s = 0; s < capacity_; ++s) {
        const auto owner = static_cast<std::uint32_t>(
            sram_.readUint(slotMetaAddr(s), 4));
        setOwnerLocked(s, owner);
        origins_[s] = static_cast<std::uint32_t>(
            sram_.readUint(slotMetaAddr(s) + 4, 4));
        if (owner != noOwner)
            mapInsert(owner, s);
    }
    setCountLocked(count);
}

} // namespace envy
