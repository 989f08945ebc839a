// Near-miss fixture for no-per-byte-page-loop at an exempt path: the
// chip model defines the per-byte CUI.  No findings expected.

namespace envy {

Tick
FlashChip::programByte(std::uint64_t addr, std::uint8_t value)
{
    writeCommand(FlashCmd::ProgramSetup);
    return store(addr, value);
}

} // namespace envy
