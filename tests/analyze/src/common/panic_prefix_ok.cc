// Near-miss fixture for panic-prefix: prefixed messages (on the
// macro's line or the next), a non-literal message that cannot be
// checked statically, the macro's own definition and a string that
// quotes it.  No findings expected.

#define ENVY_PANIC(...) ::envy::panicAt(__FILE__, __LINE__, __VA_ARGS__)

namespace envy {

void
checkBanks(int banks, const std::string &why)
{
    if (banks == 0)
        ENVY_PANIC("geometry: no banks configured");
    if (banks < 0)
        ENVY_FATAL("geometry-v2: negative bank count ", banks);
    if (banks > 64)
        ENVY_PANIC(
            "geometry: too many banks for one controller");
    if (banks > 128)
        ENVY_PANIC(why);
    describe("ENVY_PANIC(\"Unprefixed\")");
}

} // namespace envy
