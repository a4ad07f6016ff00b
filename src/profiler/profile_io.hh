/**
 * @file
 * Profile persistence, hardened against untrusted bytes.
 *
 * The paper's workflow separates the (slow, one-time) profiling tool from
 * the (fast, repeated) modeling tool and ships profiles between them as
 * files — and, since the serve daemon, as uploads over a socket. The
 * format is versioned, human-inspectable text with exact round-tripping
 * of every statistic the model consumes, framed for integrity:
 *
 *     mipp-profile 2\n
 *     <payload: name/totals/histograms/memops/windows..., ends "end">
 *     checksum <16 lowercase hex digits>\n
 *
 * The checksum is FNV-1a (64-bit) over the payload bytes, so truncation
 * and bit flips are detected before any field is interpreted. Parsing
 * itself is defensive: every field extraction is checked, every count is
 * bounded both by configurable ProfileLimits and by the bytes actually
 * present (a 10^18 element count in a 1 KB file is rejected before any
 * allocation), and cross-references (window memCounts indices into the
 * memop table) are validated. Malformed input of any shape yields a
 * Status of Corrupt / InvalidArgument / ResourceExhausted — never UB,
 * OOM, or a crash (tests/test_profile_io.cc drives a malformed corpus
 * through this promise, tests/test_mutation.cc every truncation and
 * seeded byte mutations).
 *
 * Token grammar. Fields are separated by any C-locale whitespace
 * (space, tab, CR, LF, VT, FF), so CRLF files read like LF ones. A
 * keyword ("name", "chains", "w", ...) is a whole whitespace-delimited
 * token. A number starts after the whitespace with an optional '+',
 * then decimal digits; a '-' is accepted only on signed fields (stride)
 * and floating fields. Floating fields take a decimal fraction and
 * exponent, must be finite (inf and nan are rejected), and must be
 * representable in the field's type: an overflowing or
 * underflow-to-zero value is rejected. The profile's name is the
 * length-prefixed run of raw bytes after one separator byte. The writer
 * prints integers in decimal and doubles (float fields promoted) as
 * printf's %.17g, so every value round-trips to the same bits.
 */

#ifndef MIPP_PROFILER_PROFILE_IO_HH
#define MIPP_PROFILER_PROFILE_IO_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "profiler/profile.hh"
#include "util/status.hh"

namespace mipp {

/**
 * Caps applied while deserializing untrusted profile bytes. Defaults
 * comfortably hold any profile this repo's profiler emits; a server can
 * tighten them per deployment.
 */
struct ProfileLimits {
    size_t maxBytes = 256u << 20;    ///< whole-stream size cap
    size_t maxNameLen = 4096;
    size_t maxRobSizes = 64;
    size_t maxMemOps = 1u << 20;
    size_t maxStridesPerOp = 1u << 20;
    size_t maxWindows = 4u << 20;
    /** Bin indices above this are rejected: LogHistogram::binLower
     *  would overflow near 2^55, and no real reuse distance gets close
     *  (see binIndex octave math). */
    size_t maxHistogramBin = 512;
};

/** Serialize @p profile to @p os (format version 2, checksummed). */
void writeProfile(const Profile &profile, std::ostream &os);

/** Serialize to a file. @return false on I/O failure. */
bool saveProfile(const Profile &profile, const std::string &path);

/**
 * Parse a profile previously written by writeProfile, validating magic,
 * version, checksum and all bounds. On failure @p out is left in an
 * unspecified but valid state.
 */
Status readProfileChecked(std::istream &is, Profile &out,
                          const ProfileLimits &limits = {});

/** readProfileChecked over an in-memory buffer (server upload path),
 *  read in place: no copy of @p data is made. */
Status parseProfile(std::string_view data, Profile &out,
                    const ProfileLimits &limits = {});

/** Load from a file. */
Status loadProfileChecked(const std::string &path, Profile &out,
                          const ProfileLimits &limits = {});

} // namespace mipp

#endif // MIPP_PROFILER_PROFILE_IO_HH
