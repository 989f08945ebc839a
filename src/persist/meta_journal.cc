#include "persist/meta_journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "faults/crash_point.hh"
#include "persist/checksum.hh"

namespace envy {
namespace persist {

namespace {

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/**
 * Append the file header: the magic, then a reserved zero u64.  Sized
 * and copied in place rather than vector::insert of the magic, which
 * GCC 12 under -fsanitize=thread reports as -Wstringop-overflow.
 */
void
putHeader(std::vector<std::uint8_t> &out)
{
    const std::size_t at = out.size();
    out.resize(at + MetaJournal::headerBytes);
    std::memcpy(out.data() + at, MetaJournal::magic, 8);
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(p[i]) << (8 * i);
    return v;
}

void
writeFully(int fd, const std::uint8_t *buf, std::uint64_t len,
           std::uint64_t off, const std::string &path)
{
    while (len > 0) {
        const ssize_t n = ::pwrite(fd, buf, len,
                                   static_cast<off_t>(off));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ENVY_FATAL("persist: write '", path,
                       "': ", std::strerror(errno));
        }
        buf += n;
        len -= static_cast<std::uint64_t>(n);
        off += static_cast<std::uint64_t>(n);
    }
}

} // namespace

MetaJournal::MetaJournal(std::string path, std::uint64_t sram_bytes,
                         obs::MetricsRegistry *metrics)
    : path_(std::move(path)), sramBytes_(sram_bytes)
{
    metRecords_ = obs::counterOf(metrics, "persist.journal_records",
                                 "records",
                                 "journal records appended");
    metBytes_ = obs::counterOf(metrics, "persist.journal_bytes",
                               "bytes", "journal bytes appended");
    metFlushes_ = obs::counterOf(metrics, "persist.journal_flushes",
                                 "flushes",
                                 "journal flush batches");
    metCommits_ = obs::counterOf(metrics, "persist.commits", "commits",
                                 "journal fdatasync commits");
    metCheckpoints_ = obs::counterOf(metrics, "persist.checkpoints",
                                     "checkpoints",
                                     "journal compactions");
}

MetaJournal::~MetaJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
MetaJournal::openForAppend(std::uint64_t end_off)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
    if (fd_ < 0)
        ENVY_FATAL("persist: cannot open journal '", path_,
                   "': ", std::strerror(errno));
    endOff_ = end_off;
}

void
MetaJournal::createFresh()
{
    std::remove(tmpPath().c_str()); // stale temp from a dead process
    MutexLock lock(journalMu_);
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = ::open(path_.c_str(),
                 O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd_ < 0)
        ENVY_FATAL("persist: cannot create journal '", path_,
                   "': ", std::strerror(errno));
    std::vector<std::uint8_t> header;
    putHeader(header);
    writeFully(fd_, header.data(), header.size(), 0, path_);
    endOff_ = headerBytes;
    seq_ = 1;
    bytesSinceCheckpoint_.store(0, std::memory_order_relaxed);
}

MetaJournal::ReplayResult
MetaJournal::replay()
{
    std::remove(tmpPath().c_str()); // checkpoint died before rename
    ReplayResult res;

    const int fd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) {
        res.error = "cannot open journal '" + path_ + "': " +
                    std::strerror(errno);
        return res;
    }
    std::vector<std::uint8_t> file;
    {
        std::uint8_t buf[1 << 16];
        std::uint64_t off = 0;
        for (;;) {
            const ssize_t n =
                ::pread(fd, buf, sizeof(buf),
                        static_cast<off_t>(off));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                ::close(fd);
                res.error = "cannot read journal '" + path_ + "': " +
                            std::strerror(errno);
                return res;
            }
            if (n == 0)
                break;
            file.insert(file.end(), buf, buf + n);
            off += static_cast<std::uint64_t>(n);
        }
    }

    if (file.size() < headerBytes ||
        std::memcmp(file.data(), magic, 8) != 0) {
        ::close(fd);
        res.error = "'" + path_ + "' is not an eNVy journal";
        return res;
    }

    res.sram.assign(sramBytes_, 0);
    std::uint64_t off = headerBytes;
    std::uint64_t prevSeq = 0;
    bool sawCheckpoint = false;
    while (off < file.size()) {
        // A record that does not parse is the torn tail: stop, keep
        // everything before it.
        if (file.size() - off < recordOverhead)
            break;
        const std::uint8_t *rec = file.data() + off;
        const std::uint32_t len = getU32(rec);
        // Worst-case Group payload: every granule dirty with one
        // range header per granule — still under 2x the image plus
        // slack, so anything larger is garbage, not a record.
        if (len > 2 * sramBytes_ + 32 ||
            recordOverhead + len > file.size() - off)
            break;
        const std::uint8_t type = rec[4];
        const std::uint64_t seq = getU64(rec + 5);
        const std::uint32_t want = getU32(rec + 13 + len);
        if (crc32({rec, 13 + len}) != want)
            break;
        if (prevSeq != 0 && seq != prevSeq + 1)
            break;
        const std::uint8_t *payload = rec + 13;
        if (type == recCheckpoint) {
            if (len != sramBytes_)
                break;
            std::memcpy(res.sram.data(), payload, len);
            sawCheckpoint = true;
        } else if (type == recSramWrite) {
            if (!sawCheckpoint || len < 8)
                break;
            const std::uint64_t addr = getU64(payload);
            const std::uint64_t n = len - 8;
            if (addr > sramBytes_ || n > sramBytes_ - addr)
                break;
            std::memcpy(res.sram.data() + addr, payload + 8, n);
        } else if (type == recGroup) {
            // A group frame is atomic: validate every sub-range
            // before applying any, so a malformed frame (impossible
            // without CRC collision, but cheap to check) drops whole.
            if (!sawCheckpoint || len == 0)
                break;
            std::uint64_t p = 0;
            bool good = true;
            while (p < len) {
                if (len - p < groupRangeOverhead) {
                    good = false;
                    break;
                }
                const std::uint64_t addr = getU64(payload + p);
                const std::uint32_t n = getU32(payload + p + 8);
                p += groupRangeOverhead;
                if (n > len - p || addr > sramBytes_ ||
                    n > sramBytes_ - addr) {
                    good = false;
                    break;
                }
                p += n;
            }
            if (!good || p != len)
                break;
            p = 0;
            while (p < len) {
                const std::uint64_t addr = getU64(payload + p);
                const std::uint32_t n = getU32(payload + p + 8);
                p += groupRangeOverhead;
                std::memcpy(res.sram.data() + addr, payload + p, n);
                p += n;
            }
        } else {
            break;
        }
        prevSeq = seq;
        off += recordOverhead + len;
        ++res.records;
    }

    if (!sawCheckpoint) {
        ::close(fd);
        res.error = "journal '" + path_ +
                    "' holds no valid checkpoint record";
        return res;
    }

    res.truncatedBytes = file.size() - off;
    if (res.truncatedBytes > 0 &&
        ::ftruncate(fd, static_cast<off_t>(off)) != 0) {
        ::close(fd);
        res.error = std::string("cannot truncate torn journal tail: ") +
                    std::strerror(errno);
        return res;
    }

    MutexLock lock(journalMu_);
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
    endOff_ = off;
    seq_ = prevSeq + 1;
    bytesSinceCheckpoint_.store(off - headerBytes,
                                std::memory_order_relaxed);
    res.ok = true;
    return res;
}

void
MetaJournal::activate(DrainFn drain, SnapshotFn snapshot)
{
    ENVY_ASSERT(fd_ >= 0, "journal not created/replayed");
    drain_ = std::move(drain);
    snapshot_ = std::move(snapshot);
    active_ = true;
}

void
MetaJournal::deactivate()
{
    active_ = false;
}

void
MetaJournal::appendRecord(std::vector<std::uint8_t> &out,
                          std::uint8_t type,
                          std::span<const std::uint8_t> payload)
{
    const std::size_t start = out.size();
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out.push_back(type);
    putU64(out, seq_++);
    out.insert(out.end(), payload.begin(), payload.end());
    putU32(out, crc32({out.data() + start, out.size() - start}));
    metRecords_.add();
}

namespace {

/**
 * Finish a record whose 13-byte header was reserved at @p start and
 * whose payload has been appended in place: patch the header, append
 * the CRC.  A free function so the drain lambdas on the flush hot
 * path can seal without touching journalMu_-guarded state.
 */
void
sealRecord(std::vector<std::uint8_t> &out, std::size_t start,
           std::uint8_t type, std::uint64_t seq)
{
    const std::uint32_t len = static_cast<std::uint32_t>(
        out.size() - start - (MetaJournal::recordOverhead - 4));
    std::uint8_t *h = out.data() + start;
    for (int i = 0; i < 4; ++i)
        h[i] = static_cast<std::uint8_t>(len >> (8 * i));
    h[4] = type;
    for (int i = 0; i < 8; ++i)
        h[5 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
    putU32(out, crc32({out.data() + start, out.size() - start}));
}

} // namespace

void
MetaJournal::flush()
{
    if (!active_)
        return;
    // journalMu_ is a leaf lock: the drain callback only reads SRAM
    // (the caller already excludes mutators), and holding it across
    // the write(2) is the point — appends are sequenced here.
    //
    // Records are serialized straight into the reused buffer (header
    // space reserved, payload streamed in place, header patched and
    // CRC appended by sealRecord) — no per-range staging vectors,
    // no payload double-copy.  Flash-meta barriers call this once
    // per meta write, so the empty-drain case must stay near-free.
    MutexLock lock(journalMu_);
    std::vector<std::uint8_t> &out = flushBuf_;
    out.clear();
    std::uint64_t seq = seq_;
    if (groupCommit_) {
        // One Group record around the whole batch.
        out.resize(recordOverhead - 4);
        drain_([&](std::uint64_t addr,
                   std::span<const std::uint8_t> bytes) {
            putU64(out, addr);
            putU32(out, static_cast<std::uint32_t>(bytes.size()));
            out.insert(out.end(), bytes.begin(), bytes.end());
        });
        if (out.size() == recordOverhead - 4)
            return;
        sealRecord(out, 0, recGroup, seq++);
        metRecords_.add();
    } else {
        // One SramWrite record per dirty range.
        drain_([&](std::uint64_t addr,
                   std::span<const std::uint8_t> bytes) {
            const std::size_t start = out.size();
            out.resize(start + (recordOverhead - 4));
            putU64(out, addr);
            out.insert(out.end(), bytes.begin(), bytes.end());
            sealRecord(out, start, recSramWrite, seq++);
        });
        if (out.empty())
            return;
        metRecords_.add(seq - seq_);
    }
    seq_ = seq;
    writeFully(fd_, out.data(), out.size(), endOff_, path_);
    endOff_ += out.size();
    bytesSinceCheckpoint_.fetch_add(out.size(),
                                    std::memory_order_relaxed);
    metBytes_.add(out.size());
    metFlushes_.add();
    ENVY_CRASH_POINT("persist.journal.after_flush");
}

void
MetaJournal::syncOnly()
{
    if (!active_)
        return;
    MutexLock lock(journalMu_);
    if (::fdatasync(fd_) != 0)
        ENVY_FATAL("persist: fdatasync '", path_,
                   "': ", std::strerror(errno));
    metCommits_.add();
}

void
MetaJournal::commit()
{
    if (!active_)
        return;
    flush();
    syncOnly();
}

void
MetaJournal::syncDirectoryOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return; // best-effort: rename is already SIGKILL-durable
    ::fsync(fd);
    ::close(fd);
}

void
MetaJournal::checkpoint()
{
    if (!active_)
        return;

    // Pending dirty ranges are covered by the snapshot; drop them so
    // the new journal does not replay them twice.
    drain_([](std::uint64_t, std::span<const std::uint8_t>) {});

    checkpointFromImage(snapshot_());
}

void
MetaJournal::checkpointFromImage(std::span<const std::uint8_t> image)
{
    if (!active_)
        return;
    ENVY_ASSERT(image.size() == sramBytes_);

    MutexLock lock(journalMu_);
    std::vector<std::uint8_t> out;
    out.reserve(headerBytes + recordOverhead + image.size());
    putHeader(out);
    appendRecord(out, recCheckpoint, image);

    const std::string tmp = tmpPath();
    const int tfd = ::open(tmp.c_str(),
                           O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644);
    if (tfd < 0)
        ENVY_FATAL("persist: cannot create '", tmp,
                   "': ", std::strerror(errno));
    writeFully(tfd, out.data(), out.size(), 0, tmp);
    if (::fdatasync(tfd) != 0)
        ENVY_FATAL("persist: fdatasync '", tmp,
                   "': ", std::strerror(errno));
    ::close(tfd);

    ENVY_CRASH_POINT("persist.checkpoint.before_rename");
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        ENVY_FATAL("persist: rename '", tmp, "' -> '", path_,
                   "': ", std::strerror(errno));
    syncDirectoryOf(path_);
    ENVY_CRASH_POINT("persist.checkpoint.after_rename");

    openForAppend(out.size());
    bytesSinceCheckpoint_.store(0, std::memory_order_relaxed);
    metBytes_.add(out.size());
    metCheckpoints_.add();
}

} // namespace persist
} // namespace envy
