// Firing fixture for no-per-byte-page-loop: a bank programming a page
// one CUI byte at a time instead of through programPage.  The
// allow()-listed line is the shape of the real bank's slow-path
// oracle; other CUI commands are not per-byte programming.
//
// expect-finding: no-per-byte-page-loop
// expect-finding: no-per-byte-page-loop

namespace envy {

Tick
FlashBank::programByBytes(std::uint64_t addr, const std::uint8_t *data)
{
    Tick busy = 0;
    for (std::uint32_t j = 0; j < chipsPerBank_; ++j) {
        chips_[j].writeCommand(FlashCmd::ProgramSetup);
        busy = std::max(busy, chips_[j].programByte(addr, data[j]));
    }
    chips_[0].writeCommand(FlashCmd::ProgramSetup); // envy-analyze: allow(no-per-byte-page-loop) oracle
    chips_[0].writeCommand(FlashCmd::ReadArray);
    return busy;
}

} // namespace envy
