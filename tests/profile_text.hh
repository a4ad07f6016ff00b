/**
 * @file
 * Profile text helpers shared by the profile reader suites
 * (test_profile_io, test_mutation): a profile's written text, a written
 * file's payload, and a payload framed with its checksum, so that the
 * field parser, not the checksum check, judges an edited payload.
 */

#ifndef MIPP_TESTS_PROFILE_TEXT_HH
#define MIPP_TESTS_PROFILE_TEXT_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

#include "profiler/profile_io.hh"

namespace mipp::profile_text {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** One FNV-1a 64 step: the profile checksum, a byte at a time. */
inline uint64_t
fnvStep(uint64_t h, char c)
{
    return (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
}

inline std::string
written(const Profile &p)
{
    std::ostringstream os;
    writeProfile(p, os);
    return os.str();
}

/** The bytes between the header line and the checksum line; for text
 *  without that frame, everything after the first line. */
inline std::string
payloadOf(const std::string &text)
{
    size_t nl = text.find('\n');
    size_t start = nl == std::string::npos ? 0 : nl + 1;
    size_t sum = text.rfind("\nchecksum ");
    size_t stop = sum == std::string::npos || sum + 1 < start ? text.size()
                                                              : sum + 1;
    return text.substr(start, stop - start);
}

/** @p payload framed with a header and its checksum @p fnv. */
inline std::string
framed(std::string_view payload, uint64_t fnv)
{
    char sum[17];
    std::snprintf(sum, sizeof sum, "%016" PRIx64, fnv);
    std::string text = "mipp-profile 2\n";
    text.append(payload);
    text.append("checksum ").append(sum).append("\n");
    return text;
}

/** @p payload framed with a header and its correct checksum. */
inline std::string
framed(std::string_view payload)
{
    uint64_t h = kFnvOffset;
    for (char c : payload)
        h = fnvStep(h, c);
    return framed(payload, h);
}

} // namespace mipp::profile_text

#endif // MIPP_TESTS_PROFILE_TEXT_HH
