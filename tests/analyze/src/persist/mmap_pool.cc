// Near-miss fixture for no-raw-mmap at an exempt path: src/persist/
// is where the mapping and durability syscalls live.  No findings
// expected.

namespace envy {
namespace persist {

void *
MmapPool::map(int fd, std::size_t len)
{
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    ::msync(base, len, MS_SYNC);
    return base;
}

} // namespace persist
} // namespace envy
