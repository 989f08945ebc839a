// Near-miss fixture for no-raw-mmap outside src/persist/: names that
// merely contain a syscall's name, and the syscalls in a comment and
// a string.  No findings expected.

namespace envy {

void
Snapshot::describeMapping()
{
    // ::mmap() and fdatasync() live in src/persist/.
    const std::size_t bytes = mmapBytes_ + store_.msyncCount;
    describe("fdatasync(fd) belongs to MetaJournal", bytes);
}

} // namespace envy
