/**
 * @file
 * Round-trip tests for profile serialization: a reloaded profile must
 * produce bit-identical model results.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "model/interval_model.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

Profile
roundTrip(const Profile &p)
{
    std::stringstream ss;
    writeProfile(p, ss);
    Profile q;
    Status st = readProfileChecked(ss, q);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return q;
}

TEST(ProfileIo, ScalarFieldsSurvive)
{
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 80000);
    Profile p = profileTrace(t, {.name = "mix_mid"});
    Profile q = roundTrip(p);
    EXPECT_EQ(q.name, p.name);
    EXPECT_EQ(q.totalUops, p.totalUops);
    EXPECT_EQ(q.profiledUops, p.profiledUops);
    EXPECT_EQ(q.profiledInsts, p.profiledInsts);
    EXPECT_EQ(q.sampling.windowSize, p.sampling.windowSize);
    EXPECT_EQ(q.srcOperands, p.srcOperands);
    EXPECT_EQ(q.uopCounts, p.uopCounts);
    EXPECT_EQ(q.robSizes, p.robSizes);
}

TEST(ProfileIo, DistributionsSurvive)
{
    Trace t = generateWorkload(suiteWorkload("stencil"), 80000);
    Profile p = profileTrace(t, {.name = "stencil"});
    Profile q = roundTrip(p);

    EXPECT_EQ(q.reuseLoads.total(), p.reuseLoads.total());
    EXPECT_EQ(q.reuseLoads.infiniteCount(), p.reuseLoads.infiniteCount());
    for (size_t b = 0; b < p.reuseLoads.numBins(); ++b)
        ASSERT_EQ(q.reuseLoads.binCount(b), p.reuseLoads.binCount(b));

    EXPECT_DOUBLE_EQ(q.branch.entropy(), p.branch.entropy());
    EXPECT_EQ(q.branch.branches, p.branch.branches);

    for (size_t i = 0; i < p.robSizes.size(); ++i) {
        EXPECT_DOUBLE_EQ(q.chains.apAt(i), p.chains.apAt(i));
        EXPECT_DOUBLE_EQ(q.chains.abpAt(i), p.chains.abpAt(i));
        EXPECT_DOUBLE_EQ(q.chains.cpAt(i), p.chains.cpAt(i));
    }

    ASSERT_EQ(q.memOps.size(), p.memOps.size());
    for (size_t i = 0; i < p.memOps.size(); ++i) {
        EXPECT_EQ(q.memOps[i].pc, p.memOps[i].pc);
        EXPECT_EQ(q.memOps[i].count, p.memOps[i].count);
        EXPECT_EQ(q.memOps[i].strides, p.memOps[i].strides);
        EXPECT_EQ(q.memOps[i].strideClass(), p.memOps[i].strideClass());
    }

    ASSERT_EQ(q.windows.size(), p.windows.size());
    for (size_t i = 0; i < p.windows.size(); ++i) {
        EXPECT_EQ(q.windows[i].uopCounts, p.windows[i].uopCounts);
        EXPECT_EQ(q.windows[i].memCounts, p.windows[i].memCounts);
        EXPECT_FLOAT_EQ(q.windows[i].branchEntropy,
                        p.windows[i].branchEntropy);
    }
}

TEST(ProfileIo, ModelResultsIdenticalAfterRoundTrip)
{
    for (const char *name : {"stream_add", "ptr_chase", "mix_mid"}) {
        Trace t = generateWorkload(suiteWorkload(name), 100000);
        Profile p = profileTrace(t, {.name = name});
        Profile q = roundTrip(p);
        CoreConfig cfg = CoreConfig::nehalemReference();
        auto a = evaluateModel(p, cfg);
        auto b = evaluateModel(q, cfg);
        EXPECT_DOUBLE_EQ(a.cycles, b.cycles) << name;
        EXPECT_DOUBLE_EQ(a.mlp, b.mlp) << name;
        EXPECT_DOUBLE_EQ(a.branchMissRate, b.branchMissRate) << name;
    }
}

TEST(ProfileIo, RejectsGarbage)
{
    std::stringstream ss("this is not a profile");
    Profile out;
    EXPECT_FALSE(readProfileChecked(ss, out).isOk());
}

TEST(ProfileIo, RejectsWrongVersion)
{
    std::stringstream ss("mipp-profile 99\n");
    Profile out;
    EXPECT_FALSE(readProfileChecked(ss, out).isOk());
}

TEST(ProfileIo, RejectsTruncated)
{
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 50000);
    Profile p = profileTrace(t, {});
    std::stringstream ss;
    writeProfile(p, ss);
    std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    Profile out;
    EXPECT_FALSE(readProfileChecked(cut, out).isOk());
}

TEST(ProfileIo, FileSaveAndLoad)
{
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 50000);
    Profile p = profileTrace(t, {.name = "loopy_small"});
    std::string path = "/tmp/mipp_test_profile.txt";
    ASSERT_TRUE(saveProfile(p, path));
    Profile q;
    ASSERT_TRUE(loadProfileChecked(path, q).isOk());
    EXPECT_EQ(q.name, "loopy_small");
    EXPECT_EQ(q.totalUops, p.totalUops);
    std::remove(path.c_str());
}

TEST(ProfileIo, LoadMissingFileThrows)
{
    Profile q;
    EXPECT_EQ(loadProfileChecked("/nonexistent/x.profile", q).code(),
              StatusCode::InvalidArgument);
}

TEST(ProfileIo, ChecksumCatchesSingleBitFlip)
{
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 20000);
    Profile p = profileTrace(t, {.name = "loopy_small"});
    std::stringstream ss;
    writeProfile(p, ss);
    std::string text = ss.str();
    text[text.size() / 2] ^= 0x01;

    Profile out;
    Status st = parseProfile(text, out);
    EXPECT_EQ(st.code(), StatusCode::Corrupt) << st.toString();
    EXPECT_NE(st.message().find("checksum"), std::string::npos);
}

TEST(ProfileIo, OversizedInputIsResourceExhaustedNotOom)
{
    ProfileLimits tiny;
    tiny.maxBytes = 1024;
    std::string big(4096, 'x');
    Profile out;
    EXPECT_EQ(parseProfile(big, out, tiny).code(),
              StatusCode::ResourceExhausted);

    std::stringstream ss(big);
    EXPECT_EQ(readProfileChecked(ss, out, tiny).code(),
              StatusCode::ResourceExhausted);
}

TEST(ProfileIo, CountNotBackedByBytesIsRejectedBeforeAllocation)
{
    // A syntactically valid frame whose memops count claims far more
    // items than the remaining bytes could hold: the reader must
    // reject it from the byte budget, not attempt the allocation.
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 20000);
    Profile p = profileTrace(t, {});
    p.memOps.clear();
    p.windows.clear();
    std::stringstream ss;
    writeProfile(p, ss);
    std::string text = ss.str();
    size_t at = text.find("memops 0");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 8, "memops 500000");
    // Stale checksum now — this test targets the count check, so
    // recompute is not needed: checksum already fails first. Assert
    // Corrupt either way, and never a crash/OOM.
    Profile out;
    EXPECT_EQ(parseProfile(text, out).code(), StatusCode::Corrupt);
}

/**
 * Table-driven sweep of the checked-in malformed-profile corpus
 * (tests/corpus/): every sample must come back as a structured Corrupt /
 * InvalidArgument — parseProfile must never crash, hang or OOM on
 * attacker-shaped bytes. The corpus is derived from a real profile:
 * truncation, version skew, allocation-driving count inflation (with a
 * *valid* checksum, so the bounds checks themselves are exercised),
 * single-bit corruption, noise and an empty file.
 */
TEST(ProfileIoCorpus, EverySampleIsAStructuredError)
{
    struct Sample {
        const char *file;
        StatusCode expect;
    };
    const Sample corpus[] = {
        {"truncated.profile", StatusCode::Corrupt},
        {"version_skew.profile", StatusCode::InvalidArgument},
        {"oversized_count.profile", StatusCode::Corrupt},
        {"bitflip.profile", StatusCode::Corrupt},
        {"garbage.profile", StatusCode::Corrupt},
        {"bad_robsizes.profile", StatusCode::Corrupt},
        {"huge_bin.profile", StatusCode::Corrupt},
        {"empty.profile", StatusCode::Corrupt},
    };
    for (const Sample &s : corpus) {
        std::string path =
            std::string(MIPP_TEST_CORPUS_DIR) + "/" + s.file;
        Profile out;
        Status st = loadProfileChecked(path, out);
        EXPECT_EQ(st.code(), s.expect)
            << s.file << ": " << st.toString();
        EXPECT_FALSE(st.message().empty()) << s.file;
    }
}

TEST(ProfileIoCorpus, CorruptSamplesLeaveCheckedApiNoexceptPath)
{
    // The file loader reports a corrupt sample as a Status, not by
    // throwing.
    std::string path =
        std::string(MIPP_TEST_CORPUS_DIR) + "/bitflip.profile";
    Profile out;
    Status st;
    EXPECT_NO_THROW(st = loadProfileChecked(path, out));
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
}

} // namespace
} // namespace mipp
