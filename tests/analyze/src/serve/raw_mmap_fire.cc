// Firing fixture for no-raw-mmap: mapping and durability syscalls
// outside src/persist/.
//
// expect-finding: no-raw-mmap
// expect-finding: no-raw-mmap
// expect-finding: no-raw-mmap

namespace envy {

void
Snapshot::writeOut(int fd, std::size_t len)
{
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    ::ftruncate(fd, static_cast<off_t>(len));
    ::fdatasync(fd);
    keep(base);
}

} // namespace envy
