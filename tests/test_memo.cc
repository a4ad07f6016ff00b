/**
 * @file
 * Tests for the grow-only Memo behind every evaluation-engine table:
 * build-once semantics, stable value addresses across growth, keys of
 * different lengths, colliding hashes and the last-hit shortcut.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/memo.hh"

namespace mipp {
namespace {

/** Look up @p words in @p m, building `words[0] + 1000` on a miss and
 *  counting the builds in @p builds. */
int &
lookup(Memo<int> &m, std::vector<uint64_t> words, int &builds)
{
    m.key() = words;
    return m.get([&] {
        ++builds;
        return static_cast<int>(words[0]) + 1000;
    });
}

TEST(Memo, BuildsEachKeyOnce)
{
    Memo<int> m;
    int builds = 0;
    EXPECT_EQ(lookup(m, {1, 2}, builds), 1001);
    EXPECT_EQ(lookup(m, {1, 2}, builds), 1001);
    EXPECT_EQ(lookup(m, {3, 4}, builds), 1003);
    EXPECT_EQ(lookup(m, {1, 2}, builds), 1001);
    EXPECT_EQ(builds, 2);
}

TEST(Memo, KeyLengthIsPartOfTheKey)
{
    // A key that is a prefix of another is a different key.
    Memo<int> m;
    int builds = 0;
    m.key() = {5};
    EXPECT_EQ(m.get([&] { ++builds; return 1; }), 1);
    m.key() = {5, 0};
    EXPECT_EQ(m.get([&] { ++builds; return 2; }), 2);
    m.key() = {5};
    EXPECT_EQ(m.get([&] { ++builds; return 3; }), 1);
    EXPECT_EQ(builds, 2);
}

TEST(Memo, ValuesKeepTheirAddressesAsTheTableGrows)
{
    Memo<int> m;
    int builds = 0;
    const int *first = &lookup(m, {0}, builds);
    for (uint64_t k = 1; k < 5000; ++k)
        lookup(m, {k, k * 7}, builds);
    EXPECT_EQ(&lookup(m, {0}, builds), first);
    EXPECT_EQ(*first, 1000);
    EXPECT_EQ(builds, 5000);
    for (uint64_t k = 1; k < 5000; ++k)
        EXPECT_EQ(lookup(m, {k, k * 7}, builds), static_cast<int>(k) + 1000);
    EXPECT_EQ(builds, 5000);
}

TEST(Memo, CollidingKeysKeepTheirOwnValues)
{
    // FNV-1a over two words: h = ((H ^ w0) * P ^ w1) * P. Choosing w1'
    // to cancel the difference in w0 makes (w0', w1') hash like (w0, w1).
    const uint64_t w0 = 11, w1 = 22, w0b = 12;
    const uint64_t P = Memo<int>::kFnvPrime, H = Memo<int>::kFnvOffset;
    const uint64_t w1b = w1 ^ ((H ^ w0) * P) ^ ((H ^ w0b) * P);
    const std::vector<uint64_t> a = {w0, w1}, b = {w0b, w1b};
    ASSERT_NE(a, b);
    ASSERT_EQ(Memo<int>::hash(a), Memo<int>::hash(b));

    Memo<int> m;
    int builds = 0;
    EXPECT_EQ(lookup(m, a, builds), 1011);
    EXPECT_EQ(lookup(m, b, builds), 1012);
    EXPECT_EQ(builds, 2);
    // Alternate so neither lookup is answered by the last hit: both go
    // through the shared hash chain and the exact compare.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(lookup(m, a, builds), 1011);
        EXPECT_EQ(lookup(m, b, builds), 1012);
    }
    EXPECT_EQ(builds, 2);
}

TEST(Memo, LastHitIsNotReturnedForADifferentKey)
{
    Memo<int> m;
    int builds = 0;
    EXPECT_EQ(lookup(m, {1, 1}, builds), 1001);
    EXPECT_EQ(lookup(m, {2, 1}, builds), 1002);  // miss after a hit
    EXPECT_EQ(lookup(m, {1, 1}, builds), 1001);  // hit after a miss
    EXPECT_EQ(lookup(m, {1, 1}, builds), 1001);  // repeated: last hit
    EXPECT_EQ(lookup(m, {2, 1}, builds), 1002);  // hit after a hit
    EXPECT_EQ(builds, 2);
}

} // namespace
} // namespace mipp
