/**
 * @file
 * Tests for whole-system images: a store serialised to a host file
 * and reloaded must be byte-identical to the host, keep its wear
 * history, and keep working (including its buffered, not-yet-flushed
 * state).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "db/btree.hh"
#include "envy/image.hh"
#include "sim/random.hh"

namespace envy {
namespace {

std::string
tempImage(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

EnvyConfig
imageConfig()
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 32;
    return cfg;
}

TEST(EnvyImage, RoundTripsHostBytes)
{
    const std::string path = tempImage("roundtrip.img");
    std::vector<std::uint8_t> ref;
    {
        EnvyStore store(imageConfig());
        ref.assign(store.size(), 0);
        Rng rng(1);
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t a = rng.below(store.size() - 8);
            const std::uint64_t v = rng.next();
            std::uint8_t buf[8];
            for (int b = 0; b < 8; ++b) {
                buf[b] = static_cast<std::uint8_t>(v >> (8 * b));
                ref[a + b] = buf[b];
            }
            store.write(a, buf);
        }
        EnvyImage::save(store, path);
    } // original store destroyed

    auto store = EnvyImage::load(path);
    ASSERT_EQ(store->size(), ref.size());
    std::vector<std::uint8_t> buf(4096);
    for (std::uint64_t a = 0; a < store->size(); a += buf.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(buf.size(), store->size() - a);
        store->read(a, {buf.data(), n});
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], ref[a + i]) << "byte " << a + i;
    }
    std::remove(path.c_str());
}

TEST(EnvyImage, BufferedStateSurvives)
{
    const std::string path = tempImage("buffered.img");
    {
        EnvyConfig cfg = imageConfig();
        cfg.autoDrain = false; // keep pages in the SRAM buffer
        EnvyStore store(cfg);
        for (int i = 0; i < 10; ++i)
            store.writeU32(i * 4096, 0xAB000000u + i);
        EXPECT_FALSE(store.writeBuffer().empty());
        EnvyImage::save(store, path);
    }
    auto store = EnvyImage::load(path);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(store->readU32(i * 4096), 0xAB000000u + i);
    std::remove(path.c_str());
}

TEST(EnvyImage, WearHistorySurvives)
{
    const std::string path = tempImage("wear.img");
    std::vector<std::uint64_t> cycles;
    {
        EnvyStore store(imageConfig());
        Rng rng(2);
        for (int i = 0; i < 30000; ++i)
            store.writeU8(rng.below(store.size()), 1);
        ASSERT_GT(store.flash().metErases.value(), 0u);
        for (std::uint32_t s = 0;
             s < store.flash().numSegments(); ++s)
            cycles.push_back(
                store.flash().eraseCycles(SegmentId(s)));
        EnvyImage::save(store, path);
    }
    auto store = EnvyImage::load(path);
    for (std::uint32_t s = 0; s < store->flash().numSegments(); ++s)
        EXPECT_EQ(store->flash().eraseCycles(SegmentId(s)),
                  cycles[s]);
    std::remove(path.c_str());
}

TEST(EnvyImage, LoadedStoreKeepsWorking)
{
    const std::string path = tempImage("working.img");
    {
        EnvyStore store(imageConfig());
        BTree tree(store, 0, 128 * KiB);
        for (std::uint64_t k = 0; k < 200; ++k)
            tree.insert(k, k * 3);
        EnvyImage::save(store, path);
    }
    auto store = EnvyImage::load(path);
    BTree tree = BTree::open(*store, 0, 128 * KiB);
    for (std::uint64_t k = 0; k < 200; ++k)
        ASSERT_EQ(tree.lookup(k), k * 3);
    // Writable, cleanable, and re-saveable.
    for (std::uint64_t k = 200; k < 400; ++k)
        tree.insert(k, k * 3);
    EXPECT_TRUE(tree.validate());
    EnvyImage::save(*store, path);
    auto again = EnvyImage::load(path);
    BTree t2 = BTree::open(*again, 0, 128 * KiB);
    EXPECT_EQ(t2.size(), 400u);
    std::remove(path.c_str());
}

TEST(EnvyImage, MetadataOnlyStoresImageToo)
{
    const std::string path = tempImage("meta.img");
    std::uint64_t live;
    {
        EnvyConfig cfg = imageConfig();
        cfg.storeData = false;
        EnvyStore store(cfg);
        Rng rng(3);
        for (int i = 0; i < 20000; ++i)
            store.writeU8(rng.below(store.size()), 1);
        store.flushAll();
        live = store.flash().totalLive().value();
        EnvyImage::save(store, path);
    }
    auto store = EnvyImage::load(path);
    EXPECT_FALSE(store->flash().storesData());
    EXPECT_EQ(store->flash().totalLive().value(), live);
    std::remove(path.c_str());
}

TEST(EnvyImage, RetiredSlotsSurviveTheRoundTrip)
{
    const std::string path = tempImage("retired.img");
    std::vector<std::uint8_t> ref;
    std::uint64_t retired;
    {
        EnvyStore store(imageConfig());
        ref.assign(store.size(), 0);

        // Spec-fail a handful of programs so slots retire, some of
        // them in segments that later get erased (retired slots then
        // sit ahead of the write pointer).
        int fails = 4;
        store.flash().programFaultHook =
            [&](SegmentId, SlotId) { return fails-- > 0; };

        Rng rng(9);
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t a = rng.below(store.size() - 8);
            const std::uint64_t v = rng.next();
            std::uint8_t buf[8];
            for (int b = 0; b < 8; ++b) {
                buf[b] = static_cast<std::uint8_t>(v >> (8 * b));
                ref[a + b] = buf[b];
            }
            store.write(a, buf);
        }
        store.flash().programFaultHook = nullptr;

        retired = store.flash().metSlotsRetired.value();
        ASSERT_EQ(retired, 4u);
        EnvyImage::save(store, path);
    }

    auto store = EnvyImage::load(path);
    std::uint64_t found = 0;
    for (std::uint32_t s = 0; s < store->flash().numSegments(); ++s)
        found += store->flash().retiredCount(SegmentId{s}).value();
    EXPECT_EQ(found, retired);

    std::vector<std::uint8_t> buf(4096);
    for (std::uint64_t a = 0; a < store->size(); a += buf.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(buf.size(), store->size() - a);
        store->read(a, {buf.data(), n});
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], ref[a + i]) << "byte " << a + i;
    }
    std::remove(path.c_str());
}

TEST(EnvyImageDeathTest, GarbageFileIsRejected)
{
    const std::string path = tempImage("garbage.img");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not an image", f);
    std::fclose(f);
    EXPECT_DEATH(EnvyImage::load(path), "not an eNVy image");
    std::remove(path.c_str());
}

// ---- corrupt-input hardening: tryLoad returns a typed error -------

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
    std::fclose(f);
}

void
patchU64(std::vector<std::uint8_t> &bytes, std::size_t off,
         std::uint64_t v)
{
    ASSERT_LE(off + 8, bytes.size());
    for (int i = 0; i < 8; ++i)
        bytes[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

/** A small saved image plus its interesting offsets. */
struct SavedImage
{
    // Header: 8-byte magic then 13 u64 config fields.
    static constexpr std::size_t pageSizeOff = 8;
    static constexpr std::size_t policyOff = 8 + 7 * 8;
    static constexpr std::size_t sramSizeOff = 8 + 13 * 8;

    std::string path;
    std::vector<std::uint8_t> bytes;
    std::uint64_t sramBytes = 0;

    /** First segment's first owner word (the store is populated, so
     *  segment 0 has used slots). */
    std::size_t
    firstOwnerOff() const
    {
        return sramSizeOff + 8 + sramBytes + 3 * 8;
    }
};

SavedImage
savedImage(const char *name)
{
    SavedImage img;
    img.path = tempImage(name);
    EnvyStore store(imageConfig());
    store.writeU64(0, 0x1122334455667788ull);
    EnvyImage::save(store, img.path);
    img.bytes = readAll(img.path);
    img.sramBytes = store.sram().size();
    return img;
}

std::string
expectRejected(const SavedImage &img)
{
    writeAll(img.path, img.bytes);
    std::string error;
    std::unique_ptr<EnvyStore> store =
        EnvyImage::tryLoad(img.path, error);
    EXPECT_EQ(store, nullptr);
    EXPECT_FALSE(error.empty());
    std::remove(img.path.c_str());
    return error;
}

TEST(EnvyImage, TryLoadReportsMissingAndGarbageFiles)
{
    std::string error;
    EXPECT_EQ(EnvyImage::tryLoad(tempImage("nosuch.img"), error),
              nullptr);
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

    SavedImage img = savedImage("notimage.img");
    img.bytes.assign({'j', 'u', 'n', 'k'});
    EXPECT_NE(expectRejected(img).find("not an eNVy image"),
              std::string::npos);
}

TEST(EnvyImage, TryLoadReportsTruncationAtEverySection)
{
    const SavedImage img = savedImage("trunc.img");
    // Mid-header, mid-SRAM, mid-flash: each prefix must come back as
    // a clean error, never a crash.
    const std::size_t cuts[] = {
        img.bytes.size() - 1,
        SavedImage::sramSizeOff + 8 + img.sramBytes / 2,
        SavedImage::sramSizeOff + 4,
        SavedImage::policyOff + 3,
    };
    for (const std::size_t cut : cuts) {
        SavedImage t = img;
        t.bytes.resize(cut);
        EXPECT_NE(expectRejected(t).find("truncated"),
                  std::string::npos)
            << "cut at " << cut;
    }
}

TEST(EnvyImage, TryLoadReportsBadHeaderFields)
{
    SavedImage img = savedImage("badgeom.img");
    patchU64(img.bytes, SavedImage::pageSizeOff, 0);
    EXPECT_NE(expectRejected(img).find("header"), std::string::npos);

    img = savedImage("badpolicy.img");
    patchU64(img.bytes, SavedImage::policyOff, 99);
    EXPECT_NE(expectRejected(img).find("unknown policy"),
              std::string::npos);

    img = savedImage("badsram.img");
    patchU64(img.bytes, SavedImage::sramSizeOff, 12345);
    EXPECT_NE(expectRejected(img).find("SRAM size mismatch"),
              std::string::npos);
}

TEST(EnvyImage, TryLoadReportsCorruptSegmentRecords)
{
    // Segment records follow the SRAM blob: used, cycles, ahead,
    // retired slots, then per-slot owner words.
    const std::size_t segOff = SavedImage::sramSizeOff + 8;

    SavedImage img = savedImage("badused.img");
    patchU64(img.bytes, segOff + img.sramBytes, 1u << 20);
    EXPECT_NE(expectRejected(img).find("exceed the capacity"),
              std::string::npos);

    img = savedImage("badahead.img");
    patchU64(img.bytes, segOff + img.sramBytes + 16, 1u << 20);
    EXPECT_NE(expectRejected(img).find("retired-ahead"),
              std::string::npos);

    img = savedImage("badowner.img");
    // Not one of the dead/shadow/retired sentinels, far beyond the
    // logical page count.
    patchU64(img.bytes, img.firstOwnerOff(), 0xFFFF0000ull);
    EXPECT_NE(expectRejected(img).find("beyond the"),
              std::string::npos);
}

TEST(EnvyImage, TryLoadReportsTrailingBytes)
{
    SavedImage img = savedImage("trailing.img");
    img.bytes.push_back(0xAB);
    EXPECT_NE(expectRejected(img).find("after the last segment"),
              std::string::npos);
}

TEST(EnvyImage, TryLoadStillLoadsAValidImage)
{
    const SavedImage img = savedImage("valid.img");
    writeAll(img.path, img.bytes);
    std::string error;
    std::unique_ptr<EnvyStore> store =
        EnvyImage::tryLoad(img.path, error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->readU64(0), 0x1122334455667788ull);
    std::remove(img.path.c_str());
}

} // namespace
} // namespace envy
