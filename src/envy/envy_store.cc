#include "envy/envy_store.hh"

#include "common/logging.hh"
#include "envy/recovery.hh"
#include "persist/backend.hh"
#include "persist/commit_pipeline.hh"

namespace envy {

EnvyStore::EnvyStore(const EnvyConfig &cfg)
    : cfg_(cfg)
{
    const Geometry &g = cfg_.geom;
    if (const char *problem = g.validate())
        ENVY_FATAL("store: bad geometry: ", problem);

    // Battery-backed SRAM layout: page table, segment-space state,
    // write buffer (metadata + page frames).
    ptBase_ = 0;
    spaceBase_ =
        ptBase_ + PageTable::bytesNeeded(g.physicalPages().value());
    bufferBase_ =
        spaceBase_ + SegmentSpace::bytesNeeded(g.numSegments());
    const std::uint32_t buffer_pages = static_cast<std::uint32_t>(
        g.effectiveWriteBufferPages().value());
    const std::uint64_t sram_bytes =
        bufferBase_ + WriteBuffer::bytesNeeded(buffer_pages, g.pageSize,
                                               cfg_.storeData);

    if (!cfg_.persistPath.empty()) {
        persist_ = std::make_unique<persist::PersistBackend>(
            cfg_, sram_bytes, &metrics_);
        if (persist_->reopening())
            cfg_.prePopulate = false; // state comes from the file
    }

    sram_ = std::make_unique<SramArray>(sram_bytes, true);
    flash_ = std::make_unique<FlashArray>(
        g, cfg_.timing, cfg_.storeData, &metrics_,
        cfg_.slowDataplane,
        persist_ ? persist_->flashPersist() : nullptr);
    pageTable_ = std::make_unique<PageTable>(
        *sram_, ptBase_, g.physicalPages().value());
    mmu_ = std::make_unique<Mmu>(*pageTable_, cfg_.tlbSize);
    buffer_ = std::make_unique<WriteBuffer>(
        *sram_, bufferBase_, buffer_pages, g.pageSize,
        cfg_.storeData, cfg_.bufferThreshold, &metrics_);
    space_ = std::make_unique<SegmentSpace>(*flash_, *sram_,
                                            spaceBase_, &metrics_);
    wearLeveler_ =
        std::make_unique<WearLeveler>(cfg_.wearThreshold, &metrics_);
    cleaner_ = std::make_unique<Cleaner>(*space_, *mmu_,
                                         wearLeveler_.get(), &metrics_);
    policy_ = makePolicy(cfg_.policy, cfg_.partitionSize);
    controller_ = std::make_unique<Controller>(
        g, *flash_, *mmu_, *buffer_, *space_, *cleaner_, *policy_,
        cfg_.autoDrain, &metrics_);

    if (cfg_.numWorkers > 1 || cfg_.numCleaners > 0) {
        controller_->setConcurrency(cfg_.numWorkers,
                                    cfg_.numCleaners);
        // Durable + concurrent (PR 10): SRAM-hit writers take the
        // structural lock shared so the commit pipeline's quiesced
        // dirty capture never sees a torn write.
        if (persist_)
            controller_->setPersistentConcurrent(true);
        if (cfg_.numCleaners > 0) {
            const PageCount watermark(
                cfg_.cleanerWatermark != 0
                    ? cfg_.cleanerWatermark
                    : space_->segmentCapacity().value() / 2);
            cleanerPool_ = std::make_unique<CleanerPool>(
                *controller_, cfg_.numCleaners, watermark,
                &metrics_);
            controller_->backpressureHook = [this] {
                cleanerPool_->poke();
            };
        }
    }

    if (persist_ && persist_->reopening()) {
        // Restart: overlay the journal-replayed SRAM image (the
        // components above initialised it as if empty) and rebuild
        // flash state from the store file, exactly like image loading
        // overlays a saved image before recovering.
        persist_->restoreSram(*sram_);
        flash_->restoreFromPersist();
    }

    if (cfg_.prePopulate)
        controller_->populate(cfg_.placement, cfg_.agedStride);

    if (persist_) {
        // Arm the journal only now: populate/restore work above is
        // covered wholesale by the checkpoint below, not journaled.
        persist_->activate(*sram_);
        if (persist_->reopening())
            persist_->finishReopen(Recovery::run(*this));
        else
            persist_->finishFresh();
    }

    if (persist_ && controller_->concurrent()) {
        // Group commit: one multi-range journal record per epoch,
        // flushed by a dedicated pipeline thread that coalesces
        // concurrent persistFlush()/persistCommit() callers.
        persist_->journal().setGroupCommit(true);
        commitPipeline_ = std::make_unique<persist::CommitPipeline>(
            *controller_, *persist_, *sram_, &metrics_);
        commitPipeline_->start();
    }

    if (cleanerPool_)
        cleanerPool_->start();
}

EnvyStore::~EnvyStore()
{
    // Stop every background thread before the shutdown checkpoint
    // walks SRAM: epoch thread first (it quiesces through the
    // controller), then the cleaners.
    if (commitPipeline_)
        commitPipeline_->stop();
    if (cleanerPool_)
        cleanerPool_->stop();
    if (persist_)
        persist_->shutdown();
}

std::uint64_t
EnvyStore::size() const
{
    return cfg_.geom.logicalBytes().value();
}

void
EnvyStore::read(Addr addr, std::span<std::uint8_t> out)
{
    controller_->read(addr, out);
}

void
EnvyStore::write(Addr addr, std::span<const std::uint8_t> in)
{
    controller_->write(addr, in);
    // Serial stores journal after every op; concurrent stores batch
    // through the pipeline — durability is claimed at persistFlush().
    if (persist_ && !commitPipeline_)
        persist_->opEnd();
}

std::uint8_t
EnvyStore::readU8(Addr addr)
{
    std::uint8_t v;
    read(addr, {&v, 1});
    return v;
}

std::uint32_t
EnvyStore::readU32(Addr addr)
{
    std::uint8_t b[4];
    read(addr, b);
    return std::uint32_t(b[0]) | std::uint32_t(b[1]) << 8 |
           std::uint32_t(b[2]) << 16 | std::uint32_t(b[3]) << 24;
}

std::uint64_t
EnvyStore::readU64(Addr addr)
{
    std::uint8_t b[8];
    read(addr, b);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

void
EnvyStore::writeU8(Addr addr, std::uint8_t v)
{
    write(addr, {&v, 1});
}

void
EnvyStore::writeU32(Addr addr, std::uint32_t v)
{
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    write(addr, b);
}

void
EnvyStore::writeU64(Addr addr, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    write(addr, b);
}

void
EnvyStore::flushAll()
{
    controller_->flushAll();
    persistFlush();
}

double
EnvyStore::cleaningCost() const
{
    return cleaner_->cleaningCost();
}

RecoveryReport
EnvyStore::powerFailAndRecover()
{
    // Quiesce every background thread: recovery rebuilds the very
    // structures they walk, and a "power failure" stops every thread.
    if (commitPipeline_)
        commitPipeline_->stop();
    if (cleanerPool_)
        cleanerPool_->stop();
    const RecoveryReport report = Recovery::run(*this);
    if (persist_)
        persist_->opEnd(); // recovery's SRAM repairs become durable
    if (cleanerPool_)
        cleanerPool_->start();
    if (commitPipeline_)
        commitPipeline_->start();
    return report;
}

const persist::PersistReport &
EnvyStore::persistReport() const
{
    ENVY_ASSERT(persist_, "store: persistReport on a volatile store");
    return persist_->report();
}

void
EnvyStore::persistFlush()
{
    if (!persist_)
        return;
    if (commitPipeline_)
        commitPipeline_->flushWait();
    else
        persist_->opEnd();
}

void
EnvyStore::persistSync()
{
    if (!persist_)
        return;
    if (commitPipeline_)
        commitPipeline_->syncWait();
    else
        persist_->opEndSync();
}

void
EnvyStore::persistCommit()
{
    if (!persist_)
        return;
    if (commitPipeline_)
        commitPipeline_->commitWait();
    else
        persist_->commit();
}

} // namespace envy
