/**
 * @file
 * MmapPool: the single place in the tree that owns raw file-mapping
 * syscalls (mmap / msync / fallocate / ftruncate — the envy-analyze
 * `no-raw-mmap` rule fences them in here).
 *
 * A pool is one sparse file mapped MAP_SHARED.  The file is sized
 * with ftruncate, so untouched regions are holes that cost no disk
 * and read back as zeros; `punch()` returns a region to hole state
 * (FALLOC_FL_PUNCH_HOLE, with a memset-to-zero fallback for
 * filesystems that refuse).  Because the mapping is shared, every
 * store to the span is visible to the kernel page cache immediately:
 * a SIGKILL loses nothing that was already stored through the
 * mapping, and only a power failure needs `sync()` (msync) to reach
 * the platter.  That asymmetry is what makes the fork/SIGKILL crash
 * harness a faithful test of the recovery protocol.
 */

#ifndef ENVY_PERSIST_MMAP_POOL_HH
#define ENVY_PERSIST_MMAP_POOL_HH

#include <cstdint>
#include <span>
#include <string>

namespace envy {
namespace persist {

class MmapPool
{
  public:
    /**
     * Map @p path read-write, creating it if needed, and grow it to
     * @p bytes (never shrinks an existing file).  Fatal on any
     * syscall failure: a half-open pool is not a state the caller
     * can reason about.
     */
    MmapPool(const std::string &path, std::uint64_t bytes);
    ~MmapPool();

    MmapPool(const MmapPool &) = delete;
    MmapPool &operator=(const MmapPool &) = delete;

    std::uint64_t bytes() const { return bytes_; }
    const std::string &path() const { return path_; }

    /** Whole mapping. */
    std::span<std::uint8_t> span();
    std::span<const std::uint8_t> span() const;

    /** Sub-range view; fatal if out of bounds. */
    std::span<std::uint8_t> span(std::uint64_t off, std::uint64_t len);

    /**
     * Return [off, off+len) to hole state.  The range reads back as
     * zeros afterwards either way; disk space is only reclaimed when
     * the filesystem supports hole punching.
     */
    void punch(std::uint64_t off, std::uint64_t len);

    /** msync a sub-range (MS_SYNC): durable even across power loss. */
    void sync(std::uint64_t off, std::uint64_t len);

    /** msync the entire mapping. */
    void syncAll() { sync(0, bytes_); }

  private:
    std::string path_;
    int fd_ = -1;
    std::uint8_t *map_ = nullptr;
    std::uint64_t bytes_ = 0;
};

} // namespace persist
} // namespace envy

#endif // ENVY_PERSIST_MMAP_POOL_HH
