/**
 * @file
 * The profile wire format's primitive layer, used by the profile
 * writer/loader (v2/v3): little-endian u64 fields, length-prefixed
 * strings over streams, and a bounded Reader that records truncation
 * instead of aborting — the property every recoverable loader in the
 * system is built on. The crash-recovery structures (journal,
 * snapshot) use the same field encoding through the in-memory codec
 * in support/byte_codec.hh.
 */

#ifndef FLOWGUARD_CORE_PROFILE_WIRE_HH
#define FLOWGUARD_CORE_PROFILE_WIRE_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

namespace flowguard::wire {

inline void
write64(std::ostream &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.put(static_cast<char>(value >> (8 * i)));
}

inline void
writeString(std::ostream &out, const std::string &s)
{
    write64(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/** Bounded reader that records truncation instead of aborting. */
struct Reader
{
    std::istream &in;
    bool truncated = false;

    uint64_t
    u64()
    {
        uint64_t value = 0;
        for (int i = 0; i < 8; ++i) {
            const int byte = in.get();
            if (byte < 0) {
                truncated = true;
                return 0;
            }
            value |= static_cast<uint64_t>(byte) << (8 * i);
        }
        return value;
    }

    uint8_t
    u8()
    {
        const int byte = in.get();
        if (byte < 0) {
            truncated = true;
            return 0;
        }
        return static_cast<uint8_t>(byte);
    }

    std::string
    str()
    {
        const uint64_t len = u64();
        if (truncated || len > (1ULL << 20)) {
            truncated = true;
            return {};
        }
        std::string s(len, '\0');
        in.read(s.data(), static_cast<std::streamsize>(len));
        if (static_cast<uint64_t>(in.gcount()) != len)
            truncated = true;
        return s;
    }
};

} // namespace flowguard::wire

#endif // FLOWGUARD_CORE_PROFILE_WIRE_HH
