// Firing fixture for no-raw-alloc: new and the malloc family.
//
// expect-finding: no-raw-alloc
// expect-finding: no-raw-alloc
// expect-finding: no-raw-alloc

namespace envy {

void
Arena::grow(std::size_t n)
{
    char *bytes = static_cast<char *>(malloc(n));
    int *slots = new int[4];
    bytes = static_cast<char *>(realloc(bytes, 2 * n));
    keep(bytes, slots);
}

} // namespace envy
