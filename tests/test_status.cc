/**
 * @file
 * Tests for the structured error taxonomy: code/name mapping, Status
 * semantics, and the StatusError bridge that keeps legacy exception
 * handlers working.
 */

#include <gtest/gtest.h>

#include "util/status.hh"

namespace mipp {
namespace {

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.isOk());
    EXPECT_TRUE(static_cast<bool>(s));
    EXPECT_EQ(s.code(), StatusCode::Ok);
    EXPECT_EQ(s.toString(), "Ok");
}

TEST(Status, FactoriesCarryCodeAndMessage)
{
    EXPECT_EQ(invalidArgument("x").code(), StatusCode::InvalidArgument);
    EXPECT_EQ(deadlineExceeded("x").code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(resourceExhausted("x").code(),
              StatusCode::ResourceExhausted);
    EXPECT_EQ(corrupt("x").code(), StatusCode::Corrupt);
    EXPECT_EQ(internalError("x").code(), StatusCode::Internal);

    Status s = corrupt("checksum mismatch");
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.message(), "checksum mismatch");
    EXPECT_EQ(s.toString(), "Corrupt: checksum mismatch");
}

TEST(Status, CodeNamesRoundTrip)
{
    // The wire names serve replies and CLI errors carry.
    EXPECT_EQ(statusCodeName(StatusCode::Ok), "Ok");
    EXPECT_EQ(statusCodeName(StatusCode::InvalidArgument),
              "InvalidArgument");
    EXPECT_EQ(statusCodeName(StatusCode::DeadlineExceeded),
              "DeadlineExceeded");
    EXPECT_EQ(statusCodeName(StatusCode::ResourceExhausted),
              "ResourceExhausted");
    EXPECT_EQ(statusCodeName(StatusCode::Corrupt), "Corrupt");
    EXPECT_EQ(statusCodeName(StatusCode::Internal), "Internal");
}

TEST(Status, ThrowIfErrorPassesOkAndThrowsOthers)
{
    EXPECT_NO_THROW(throwIfError(Status()));
    EXPECT_THROW(throwIfError(invalidArgument("bad")), StatusError);
}

TEST(Status, StatusErrorPreservesCodeAndIsARuntimeError)
{
    try {
        throw StatusError(resourceExhausted("queue full"));
    } catch (const std::runtime_error &e) {
        // Legacy handlers catch it as runtime_error...
        EXPECT_NE(std::string(e.what()).find("queue full"),
                  std::string::npos);
    }
    try {
        throw StatusError(corrupt("bad bytes"));
    } catch (const StatusError &e) {
        // ...new handlers recover the structured code.
        EXPECT_EQ(e.code(), StatusCode::Corrupt);
        EXPECT_EQ(e.status().message(), "bad bytes");
    }
}

} // namespace
} // namespace mipp
