#include "bench.hh"

#include <cstring>
#include <stdexcept>

namespace envybench {

namespace {

constexpr std::size_t kMinValueBytes = 16;
constexpr std::size_t kBalanceEnd = 24;

std::uint32_t
valueChecksum(const std::uint8_t *b, std::size_t n)
{
    // Everything but the checksum field itself (bytes 12..15).
    const std::uint32_t head = envy::serve::fnv1a({b, 12});
    return envy::serve::fnv1a({b + 16, n - 16}, head);
}

} // namespace

std::string
encodeValue(const ValueFields &f, std::size_t bytes)
{
    if (bytes < kMinValueBytes)
        throw std::invalid_argument("value too small for its fields");
    std::string out(bytes, '\0');
    auto *b = reinterpret_cast<std::uint8_t *>(out.data());
    std::memcpy(b, &f.key, 8);
    std::memcpy(b + 8, &f.version, 4);
    if (bytes >= kBalanceEnd)
        std::memcpy(b + 16, &f.balance, 8);
    for (std::size_t i = kBalanceEnd; i < bytes; i++)
        b[i] = static_cast<std::uint8_t>(f.key * 31 + f.version * 17 + i);
    const std::uint32_t sum = valueChecksum(b, bytes);
    std::memcpy(b + 12, &sum, 4);
    return out;
}

bool
decodeValue(std::string_view bytes, ValueFields &out)
{
    if (bytes.size() < kMinValueBytes)
        return false;
    const auto *b = reinterpret_cast<const std::uint8_t *>(bytes.data());
    std::uint32_t sum = 0;
    std::memcpy(&sum, b + 12, 4);
    if (sum != valueChecksum(b, bytes.size()))
        return false;
    std::memcpy(&out.key, b, 8);
    std::memcpy(&out.version, b + 8, 4);
    out.balance = 0;
    if (bytes.size() >= kBalanceEnd)
        std::memcpy(&out.balance, b + 16, 8);
    return true;
}

Ledger::Ledger(std::uint64_t keys, std::uint32_t valueBytes)
    : valueBytes_(valueBytes), sent_(keys), acked_(keys),
      pendingBalance_(keys), balance_(keys)
{
    reset();
}

void
Ledger::reset()
{
    for (std::size_t k = 0; k < sent_.size(); k++) {
        sent_[k].store(1, std::memory_order_relaxed);
        acked_[k].store(1, std::memory_order_relaxed);
        pendingBalance_[k] = 0;
        balance_[k] = 0;
    }
}

std::string
Ledger::prefillValue(std::uint64_t key) const
{
    return encodeValue({key, 1, 0}, valueBytes_);
}

std::string
Ledger::beginWrite(std::uint64_t key, std::int64_t delta)
{
    const std::uint32_t v = sent(key) + 1;
    pendingBalance_[key] = balance_[key] + delta;
    std::string value =
        encodeValue({key, v, pendingBalance_[key]}, valueBytes_);
    // Published before the bytes leave: no reader can see v while
    // sent() still reads lower.
    sent_[key].store(v, std::memory_order_release);
    return value;
}

void
Ledger::endWrite(std::uint64_t key, bool ok)
{
    if (ok) {
        balance_[key] = pendingBalance_[key];
        acked_[key].store(sent(key), std::memory_order_release);
    } else {
        // Not executed (shed or refused): the version never landed.
        sent_[key].store(acked(key), std::memory_order_release);
    }
}

bool
Ledger::checkRead(std::uint64_t key, std::string_view value,
                  std::uint32_t lo, std::uint32_t hi,
                  std::string *why) const
{
    ValueFields f;
    if (!decodeValue(value, f)) {
        *why = "key " + std::to_string(key) + ": bad checksum or size " +
               std::to_string(value.size());
        return false;
    }
    if (f.key != key) {
        *why = "asked key " + std::to_string(key) + ", got key " +
               std::to_string(f.key);
        return false;
    }
    if (f.version < lo || f.version > hi) {
        *why = "key " + std::to_string(key) + ": version " +
               std::to_string(f.version) + " outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]";
        return false;
    }
    return true;
}

bool
Ledger::checkFinal(std::uint64_t key, std::string_view value,
                   std::string *why) const
{
    const std::uint32_t v = acked(key);
    if (!checkRead(key, value, v, v, why))
        return false;
    ValueFields f;
    decodeValue(value, f);
    if (valueBytes_ >= kBalanceEnd && f.balance != balance_[key]) {
        *why = "key " + std::to_string(key) + ": balance " +
               std::to_string(f.balance) + ", acked " +
               std::to_string(balance_[key]);
        return false;
    }
    return true;
}

} // namespace envybench
