/**
 * @file
 * Public facade of the eNVy storage system.
 *
 * An EnvyStore assembles the whole stack — flash array, battery-backed
 * SRAM (page table, segment state, write buffer), MMU, cleaner, policy
 * and controller — and presents the paper's programming model: a
 * linear, persistent, word-addressable memory array with transparent
 * in-place updates.
 *
 *     EnvyConfig cfg;               // paper's 2 GB system by default
 *     cfg.geom = Geometry::tiny();  // ...or something laptop-sized
 *     EnvyStore store(cfg);
 *     store.writeU64(0x1000, 42);
 *     assert(store.readU64(0x1000) == 42);
 */

#ifndef ENVY_ENVY_ENVY_STORE_HH
#define ENVY_ENVY_ENVY_STORE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/geometry.hh"
#include "envy/cleaner_pool.hh"
#include "envy/controller.hh"
#include "envy/page_table.hh"
#include "envy/recovery.hh"
#include "envy/wear_leveler.hh"
#include "flash/flash_array.hh"
#include "obs/metrics.hh"
#include "sram/sram_array.hh"

namespace envy {

namespace persist {
class CommitPipeline;
class PersistBackend;
struct PersistReport;
} // namespace persist

struct EnvyConfig
{
    Geometry geom = Geometry::tiny();
    FlashTiming timing;
    PolicyKind policy = PolicyKind::Hybrid;
    std::uint32_t partitionSize = 16;
    /** Keep real page contents (functional) or metadata only. */
    bool storeData = true;
    /** Route page operations through the byte-at-a-time CUI oracle
     *  instead of the bulk data-plane fast path (A/B testing; also
     *  forced by the ENVY_SLOW_DATAPLANE environment variable). */
    bool slowDataplane = false;
    /** Background flush threshold; 0 = half the buffer. */
    std::uint32_t bufferThreshold = 0;
    /** Wear-leveling trigger (max-min erase-cycle spread). */
    std::uint64_t wearThreshold = 100;
    Controller::Placement placement = Controller::Placement::Striped;
    /** Segments per free-space island for Placement::Aged. */
    std::uint32_t agedStride = 16;
    /** Populate all logical pages at construction. */
    bool prePopulate = true;
    /** Drain the buffer to threshold after every write. */
    bool autoDrain = true;
    std::uint32_t tlbSize = 1024;
    /**
     * Concurrency (PR 8, docs/PERFORMANCE.md §Concurrency).  With
     * numWorkers <= 1 and numCleaners == 0 (the defaults) the store
     * keeps the historical serial code path and its byte-identical
     * output.  Raising either switches the controller to sharded
     * concurrent mode: multiple client threads may call read()/
     * write() simultaneously, and numCleaners background threads
     * clean ahead of the per-partition free-space watermark.
     * Concurrent mode composes with durable persistence (PR 10):
     * with persistPath also set, SRAM dirty marking is atomic,
     * hit-writers hold the structural lock shared, and a
     * CommitPipeline thread group-commits persistFlush() callers
     * into shared journal epochs (docs/PERSISTENCE.md §group-commit).
     */
    unsigned numWorkers = 1;
    unsigned numCleaners = 0;
    /** Free pages per partition below which background cleaners
     *  engage; 0 = half a segment's capacity. */
    std::uint32_t cleanerWatermark = 0;
    /**
     * Durable persistence (docs/PERSISTENCE.md).  Empty (default):
     * everything lives in anonymous memory and dies with the process.
     * Set to a file path: cell data and flash metadata live in a
     * MAP_SHARED store file, SRAM is journaled to `<path>.journal`,
     * and constructing an EnvyStore on an existing store replays the
     * journal and runs restart recovery instead of populating.
     */
    std::string persistPath;
    /** Journal bytes between auto-checkpoints; 0 = max(256 KiB,
     *  4 x SRAM size). */
    std::uint64_t persistCheckpointBytes = 0;
};

class EnvyStore
{
  public:
    explicit EnvyStore(const EnvyConfig &cfg);
    ~EnvyStore();

    EnvyStore(const EnvyStore &) = delete;
    EnvyStore &operator=(const EnvyStore &) = delete;

    /** Host-visible bytes. */
    std::uint64_t size() const;

    // ---- the memory-mapped interface ----------------------------

    void read(Addr addr, std::span<std::uint8_t> out);
    void write(Addr addr, std::span<const std::uint8_t> in);

    std::uint8_t readU8(Addr addr);
    std::uint32_t readU32(Addr addr);
    std::uint64_t readU64(Addr addr);
    void writeU8(Addr addr, std::uint8_t v);
    void writeU32(Addr addr, std::uint32_t v);
    void writeU64(Addr addr, std::uint64_t v);

    /** Push every buffered page to flash (orderly shutdown). */
    void flushAll();

    // ---- introspection -------------------------------------------

    const EnvyConfig &config() const { return cfg_; }
    double cleaningCost() const;
    Controller &controller() { return *controller_; }
    /** Background cleaner threads; null unless cfg.numCleaners > 0. */
    CleanerPool *cleanerPool() { return cleanerPool_.get(); }
    FlashArray &flash() { return *flash_; }
    SramArray &sram() { return *sram_; }
    PageTable &pageTable() { return *pageTable_; }
    WriteBuffer &writeBuffer() { return *buffer_; }
    SegmentSpace &space() { return *space_; }
    Cleaner &cleanerRef() { return *cleaner_; }
    WearLeveler &wearLeveler() { return *wearLeveler_; }

    /**
     * The store's metrics registry (docs/OBSERVABILITY.md): every
     * component registers its counters here at construction, and
     * recovery re-registers idempotently after a power failure.
     * Snapshot it at window boundaries; the snapshot is isolated
     * from further mutation.
     */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Simulate a power failure and recovery: every in-core structure
     * is rebuilt from battery-backed SRAM and flash metadata, any
     * interrupted clean or wear rotation is completed, and orphaned
     * copies produced by a crash mid-operation are reclaimed.  See
     * recovery.cc.
     */
    RecoveryReport powerFailAndRecover();

    // ---- durable persistence (cfg.persistPath) -------------------

    /** True when this store is backed by a store file on disk. */
    bool persistent() const { return persist_ != nullptr; }

    /** What opening the store did (created vs replayed+recovered);
     *  only meaningful on a persistent store. */
    const persist::PersistReport &persistReport() const;

    /**
     * Make everything acknowledged so far SIGKILL-durable: append the
     * dirty SRAM ranges to the journal (plain write(2) — a completed
     * write survives process death).  Harnesses call this before
     * acknowledging work done through paths that bypass write(),
     * e.g. shadow-transaction commits.  On a concurrent store this
     * blocks on the commit pipeline's next group epoch instead of
     * running a private flush, so N concurrent callers share one
     * journal append.
     */
    void persistFlush();

    /**
     * persistFlush() plus the journal log force (fdatasync): the
     * appended records survive power loss, and on a concurrent store
     * one device barrier is shared by every caller in the epoch —
     * the group-commit amortisation durable acks ride
     * (serve::ServeConfig::syncAcks).  Flash-resident pages the
     * journal no longer covers still ride the checkpoint/commit
     * schedule; the full barrier is persistCommit().
     */
    void persistSync();

    /** Power-loss barrier: journal fdatasync + store-file msync
     *  (on a concurrent store, via the pipeline's sync epoch). */
    void persistCommit();

    /** The group-commit epoch thread; null unless the store is both
     *  persistent and concurrent. */
    persist::CommitPipeline *commitPipeline()
    {
        return commitPipeline_.get();
    }

  private:
    EnvyConfig cfg_;
    // Declared before the components: they hold handles into it, so
    // it must outlive them (destruction runs bottom-up).
    obs::MetricsRegistry metrics_;
    // Before the SRAM/flash: the journal snapshots the SramArray and
    // the FlashArray writes through the store file, so the backend
    // must outlive both.
    std::unique_ptr<persist::PersistBackend> persist_;
    std::unique_ptr<SramArray> sram_;
    std::unique_ptr<FlashArray> flash_;
    std::unique_ptr<PageTable> pageTable_;
    std::unique_ptr<Mmu> mmu_;
    std::unique_ptr<WriteBuffer> buffer_;
    std::unique_ptr<SegmentSpace> space_;
    std::unique_ptr<WearLeveler> wearLeveler_;
    std::unique_ptr<Cleaner> cleaner_;
    std::unique_ptr<CleaningPolicy> policy_;
    std::unique_ptr<Controller> controller_;
    // After the controller: cleaner threads must stop (join) before
    // anything they reach through it is torn down.
    std::unique_ptr<CleanerPool> cleanerPool_;
    // Last: the epoch thread reaches the controller, backend, and
    // SRAM, so it stops first (the dtor stops it explicitly too).
    std::unique_ptr<persist::CommitPipeline> commitPipeline_;

    // SRAM layout offsets.
    Addr ptBase_ = 0;
    Addr spaceBase_ = 0;
    Addr bufferBase_ = 0;

    friend class Recovery;
};

} // namespace envy

#endif // ENVY_ENVY_ENVY_STORE_HH
