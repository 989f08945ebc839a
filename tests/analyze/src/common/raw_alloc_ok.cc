// Near-miss fixture for no-raw-alloc: owned containers, identifiers
// that merely contain "new", the words in comments and strings, and a
// digit separator.  No findings expected.

namespace envy {

void
Arena::grow(std::size_t n)
{
    auto bytes = std::make_unique<char[]>(n);
    std::vector<int> slots(4);
    const std::size_t newSize = renewed(n);
    // new and malloc() in a comment allocate nothing.
    describe("new or malloc(n) here would dodge the arena");
    // 1'000 is one number.  A tokenizer that took its quote for the
    // start of a char literal would swallow the string's opening
    // quote and read the `new` inside it as code.
    const std::size_t cap = 1'000; const char *hint = "don't new";
    keep(bytes, slots, newSize, cap, hint);
}

} // namespace envy
