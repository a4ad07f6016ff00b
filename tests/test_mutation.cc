/**
 * @file
 * Deterministic mutation search over the two parsers that take bytes
 * from outside the process on the serve upload path: parseProfile and
 * json::parse. Seeds are the checked-in profile corpus (tests/corpus/)
 * and one suite profile wrapped in a `load-profile` request line. Each
 * seed is cut at every byte and mutated at seeded random positions.
 * Profile payloads are re-framed with a recomputed checksum, so the
 * field parser, not the checksum check, sees every cut and mutation.
 *
 * Every input must come back Ok or as a structured Corrupt /
 * InvalidArgument / ResourceExhausted, and a profile that parses must
 * write back to bytes that parse to the same bytes. The iteration
 * counts are fixed and small enough for a sanitizer build; a crash this
 * finds belongs in tests/corpus/ as a new sample.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "profile_text.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

using namespace profile_text;

constexpr uint64_t kSeed = 0x6d697070;   // fixed: the search repeats
constexpr int kMutationsPerSeed = 250;

bool
structured(const Status &st)
{
    switch (st.code()) {
      case StatusCode::Ok:
      case StatusCode::Corrupt:
      case StatusCode::InvalidArgument:
      case StatusCode::ResourceExhausted:
        return true;
      default:
        return false;
    }
}

/** Parse @p text, input @p index of kind @p kind from seed @p seed; an
 *  Ok profile must round-trip to stable bytes. */
void
checkProfile(const std::string &text, const std::string &seed,
             const char *kind, size_t index)
{
    Profile p;
    Status st = parseProfile(text, p);
    ASSERT_TRUE(structured(st))
        << seed << " " << kind << " " << index << ": " << st.toString();
    if (!st.isOk())
        return;
    const std::string once = written(p);
    Profile q;
    st = parseProfile(once, q);
    ASSERT_TRUE(st.isOk()) << seed << " " << kind << " " << index
                           << ": rewritten profile: " << st.toString();
    EXPECT_EQ(written(q), once) << seed << " " << kind << " " << index;
}

/** One seeded edit of @p s: a bit flip, a byte from the grammar's
 *  alphabet, a deleted or a duplicated byte, or a boundary number. */
void
mutate(std::string &s, std::mt19937_64 &rng)
{
    static const std::string kAlphabet = " \t\r\n-+.e0189\"\\";
    static const char *kNumbers[] = {
        "18446744073709551615", "18446744073709551616", "4294967296",
        "-1", "0", "513", "1e308", "-9223372036854775808"};
    if (s.empty()) {
        s = kNumbers[rng() % std::size(kNumbers)];
        return;
    }
    size_t at = rng() % s.size();
    switch (rng() % 5) {
      case 0: s[at] = static_cast<char>(s[at] ^ (1u << (rng() % 8))); break;
      case 1: s[at] = kAlphabet[rng() % kAlphabet.size()]; break;
      case 2: s.erase(at, 1); break;
      case 3: s.insert(at, 1, s[at]); break;
      default: {
        size_t end = s.find_first_of(" \n", at);
        s.replace(at, (end == std::string::npos ? s.size() : end) - at,
                  kNumbers[rng() % std::size(kNumbers)]);
      }
    }
}

const std::string &
suiteProfileText()
{
    static const std::string text = written(profileTrace(
        generateWorkload(suiteWorkload("stream_add"), 25000),
        {.name = "stream_add"}));
    return text;
}

std::vector<std::pair<std::string, std::string>>
corpusSeeds()
{
    std::vector<std::pair<std::string, std::string>> seeds;
    for (const auto &entry :
         std::filesystem::directory_iterator(MIPP_TEST_CORPUS_DIR)) {
        if (entry.path().extension() != ".profile")
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        seeds.emplace_back(entry.path().filename().string(), bytes.str());
    }
    std::sort(seeds.begin(), seeds.end());
    return seeds;
}

TEST(ParserMutation, ProfileCutsAndEditsAreStructured)
{
    const auto seeds = corpusSeeds();
    ASSERT_GE(seeds.size(), 8u);
    std::mt19937_64 rng(kSeed);
    std::vector<std::string> cutSoFar;
    for (const auto &[name, text] : seeds) {
        const std::string payload = payloadOf(text);
        checkProfile(text, name, "as is", 0);
        // Most samples are one profile with one defect: a cut no longer
        // than the prefix shared with an earlier seed was checked there.
        size_t shared = 0;
        for (const std::string &earlier : cutSoFar)
            shared = std::max<size_t>(
                shared, std::mismatch(payload.begin(), payload.end(),
                                      earlier.begin(), earlier.end())
                                .first -
                            payload.begin());
        // The checksum of each cut extends the previous cut's.
        uint64_t fnv = kFnvOffset;
        for (size_t k = 0; k <= payload.size(); ++k) {
            if (k > shared || cutSoFar.empty())
                checkProfile(framed(std::string_view(payload).substr(0, k),
                                    fnv),
                             name, "cut at", k);
            if (k < payload.size())
                fnv = fnvStep(fnv, payload[k]);
        }
        cutSoFar.push_back(payload);
        for (int i = 0; i < kMutationsPerSeed; ++i) {
            std::string mutated = payload;
            for (int edits = 1 + static_cast<int>(rng() % 3); edits > 0;
                 --edits)
                mutate(mutated, rng);
            checkProfile(framed(mutated), name, "mutation", i);
        }
        if (HasFatalFailure())
            return;
    }
}

TEST(ParserMutation, LoadProfileRequestCutsAndEditsAreStructured)
{
    const std::string line =
        std::string(R"({"op":"load-profile","name":"seed","data":)") +
        json::quote(suiteProfileText()) + "}";
    json::Value doc;
    ASSERT_TRUE(json::parse(line, doc).isOk());
    ASSERT_EQ(doc["data"].str(), suiteProfileText());

    // A cut line is never a whole document.
    for (size_t k = 0; k < line.size(); ++k) {
        Status st = json::parse(std::string_view(line).substr(0, k), doc);
        ASSERT_EQ(st.code(), StatusCode::Corrupt) << "cut at " << k;
    }

    std::mt19937_64 rng(kSeed);
    for (int i = 0; i < kMutationsPerSeed * 2; ++i) {
        std::string mutated = line;
        mutate(mutated, rng);
        Status st = json::parse(mutated, doc);
        ASSERT_TRUE(structured(st)) << "mutation " << i << ": "
                                    << st.toString();
        if (st.isOk() && doc["data"].isString())
            checkProfile(framed(payloadOf(doc["data"].str())), "request",
                         "mutation", i);
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace mipp
