/**
 * @file
 * A persistent key-value store in ~100 lines, composed from the
 * library's pieces: the B-tree index for keys, a mapped arena for
 * value storage, and whole-system images for persistence across
 * process runs — the paper's "substantial reductions in code size"
 * claim made concrete (no serialisation layer anywhere).
 *
 *   ./kvstore db.img set color red
 *   ./kvstore db.img set answer 42
 *   ./kvstore db.img get answer
 *   ./kvstore db.img list
 *   ./kvstore db.img stats
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "db/btree.hh"
#include "envy/image.hh"
#include "envy/mapped.hh"

using namespace envy;

namespace {

// Store layout: [0x40: value-heap cursor][0x100: tree region]
// [heapBase: values as {len:2, bytes}].
constexpr Addr cursorAddr = 0x40;
constexpr Addr treeBase = 0x100;
constexpr std::uint64_t treeBytes = 256 * KiB;
constexpr Addr heapBase = treeBase + treeBytes;

std::uint64_t
hashKey(const std::string &key)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : key) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h ? h : 1;
}

std::string
readValue(EnvyStore &store, Addr at)
{
    const std::uint16_t len =
        static_cast<std::uint16_t>(store.readU32(at) & 0xFFFF);
    std::string v(len, '\0');
    store.read(at + 4, {reinterpret_cast<std::uint8_t *>(v.data()),
                        v.size()});
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: %s <image> set <key> <value...>\n"
                     "       %s <image> get <key>\n"
                     "       %s <image> list | stats\n",
                     argv[0], argv[0], argv[0]);
        return 2;
    }
    const std::string path = argv[1];
    const std::string cmd = argv[2];

    // Open the image if it exists, otherwise format a fresh store.
    std::unique_ptr<EnvyStore> store;
    std::unique_ptr<BTree> tree;
    if (std::filesystem::exists(path)) {
        store = EnvyImage::load(path);
        tree = std::make_unique<BTree>(
            BTree::open(*store, treeBase, treeBytes));
    } else {
        EnvyConfig cfg;
        cfg.geom = Geometry::tiny();
        store = std::make_unique<EnvyStore>(cfg);
        tree = std::make_unique<BTree>(*store, treeBase, treeBytes);
        store->writeU64(cursorAddr, heapBase);
    }

    if (cmd == "set" && argc >= 5) {
        std::string value = argv[4];
        for (int i = 5; i < argc; ++i)
            value += std::string(" ") + argv[i];
        const Addr at = store->readU64(cursorAddr);
        store->writeU32(at, static_cast<std::uint32_t>(value.size()));
        store->write(at + 4,
                     {reinterpret_cast<const std::uint8_t *>(
                          value.data()),
                      value.size()});
        store->writeU64(cursorAddr, at + 4 + value.size());
        tree->insert(hashKey(argv[3]), at);
        EnvyImage::save(*store, path);
        std::printf("%s = \"%s\"\n", argv[3], value.c_str());
    } else if (cmd == "get" && argc == 4) {
        const auto at = tree->lookup(hashKey(argv[3]));
        if (!at) {
            std::printf("(not found)\n");
            return 1;
        }
        std::printf("%s\n", readValue(*store, *at).c_str());
    } else if (cmd == "list") {
        tree->scan([&](std::uint64_t key, std::uint64_t at) {
            std::printf("%016llx -> \"%s\"\n",
                        static_cast<unsigned long long>(key),
                        readValue(*store, at).c_str());
        });
    } else if (cmd == "stats") {
        std::printf("keys: %llu, tree height %u, store %llu bytes\n",
                    static_cast<unsigned long long>(tree->size()),
                    tree->height(),
                    static_cast<unsigned long long>(store->size()));
        std::printf("copy-on-writes %llu, cleans %llu, cleaning "
                    "cost %.2f, wear spread %llu\n",
                    static_cast<unsigned long long>(
                        store->controller().metCows.value()),
                    static_cast<unsigned long long>(
                        store->cleanerRef().metSegmentsCleaned.value()),
                    store->cleaningCost(),
                    static_cast<unsigned long long>(
                        store->wearLeveler().spread(store->space())));
    } else {
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        return 2;
    }
    return 0;
}
