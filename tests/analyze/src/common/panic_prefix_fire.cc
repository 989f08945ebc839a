// Firing fixture for panic-prefix: literal panic/fatal messages
// without a lowercase "subsystem: " prefix, including one whose
// literal starts on the line after the macro.
//
// expect-finding: panic-prefix
// expect-finding: panic-prefix
// expect-finding: panic-prefix

namespace envy {

void
checkBanks(int banks)
{
    if (banks == 0)
        ENVY_PANIC("no banks configured");
    if (banks < 0)
        ENVY_FATAL("Geometry: negative bank count ", banks);
    if (banks > 64)
        ENVY_PANIC(
            "too many banks for one controller");
}

} // namespace envy
