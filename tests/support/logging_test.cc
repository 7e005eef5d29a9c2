/**
 * @file
 * Unit tests for the logging/error-termination helpers.
 */

#include <gtest/gtest.h>

#include <string>

#include "support/logging.hh"

namespace {

using namespace flowguard;

TEST(Logging, PanicThrowsSimErrorWithPanicKind)
{
    try {
        fg_panic("broken invariant ", 42);
        FAIL() << "panic returned";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), SimError::Kind::Panic);
        EXPECT_NE(std::string(error.what()).find("broken invariant 42"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("logging_test.cc"),
                  std::string::npos);
    }
}

TEST(Logging, FatalThrowsSimErrorWithFatalKind)
{
    try {
        fg_fatal("user error: ", "bad config");
        FAIL() << "fatal returned";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), SimError::Kind::Fatal);
        EXPECT_NE(std::string(error.what()).find("bad config"),
                  std::string::npos);
    }
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    EXPECT_NO_THROW(fg_assert(1 + 1 == 2, "arithmetic works"));
}

TEST(Logging, AssertPanicsOnFalseCondition)
{
    EXPECT_THROW(fg_assert(false, "must fire"), SimError);
}

TEST(Logging, AssertMessageNamesTheCondition)
{
    try {
        int value = 3;
        fg_assert(value == 4, "value query");
        FAIL();
    } catch (const SimError &error) {
        EXPECT_NE(std::string(error.what()).find("value == 4"),
                  std::string::npos);
    }
}

TEST(Logging, ErrorsThrowToggleIsQueryable)
{
    EXPECT_TRUE(errorsThrow());    // the test default
    setErrorsThrow(true);
    EXPECT_TRUE(errorsThrow());
}

TEST(Logging, VerbosityToggle)
{
    const bool before = logVerbose();
    setLogVerbose(true);
    EXPECT_TRUE(logVerbose());
    setLogVerbose(false);
    EXPECT_FALSE(logVerbose());
    setLogVerbose(before);
}

/** Restores the global logging knobs this suite twiddles. */
class LogHookTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _verbose = logVerbose();
        _repeat = logRepeatEvery();
        resetLogDedup();
    }

    void
    TearDown() override
    {
        setLogVerbose(_verbose);
        setLogRepeatEvery(_repeat);
        resetLogDedup();
    }

    bool _verbose = false;
    uint64_t _repeat = 100;
};

TEST_F(LogHookTest, WithoutHookOrVerbosityNothingIsFormatted)
{
    setLogVerbose(false);
    // Not verbose: suppression bookkeeping must not even see the
    // message (the fast bail is before formatting).
    warn("nobody listens");
    EXPECT_EQ(logSuppressed(), 0u);
}

TEST_F(LogHookTest, DuplicatesPrintFirstThenEveryNth)
{
    setLogVerbose(true);
    setLogRepeatEvery(3);
    for (int i = 0; i < 7; ++i)
        warn("same message");
    // Occurrences 1, 4 and 7 print; 2, 3, 5 and 6 are suppressed.
    EXPECT_EQ(logSuppressed(), 4u);
}

TEST_F(LogHookTest, DistinctMessagesAreNotSuppressed)
{
    setLogVerbose(true);
    setLogRepeatEvery(2);
    warn("message A");
    warn("message B");
    warn("message A");   // second A: suppressed
    EXPECT_EQ(logSuppressed(), 1u);
}

TEST_F(LogHookTest, RepeatEveryOneDisablesSuppression)
{
    setLogVerbose(true);
    setLogRepeatEvery(1);
    for (int i = 0; i < 5; ++i)
        warn("chatty");
    EXPECT_EQ(logSuppressed(), 0u);
}

TEST_F(LogHookTest, ResetClearsTheDedupTable)
{
    setLogVerbose(true);
    setLogRepeatEvery(10);
    warn("repeated");
    warn("repeated");
    EXPECT_EQ(logSuppressed(), 1u);
    resetLogDedup();
    EXPECT_EQ(logSuppressed(), 0u);
    warn("repeated");    // first again after reset: printed
    EXPECT_EQ(logSuppressed(), 0u);
}

} // namespace
