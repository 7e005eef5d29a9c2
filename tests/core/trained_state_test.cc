/**
 * @file
 * Trained state has one producer and one format:
 *
 *  - a profile holds trained state only: a protected run that taught
 *    the graph runtime credit, TNT sequences and n-grams leaves the
 *    profile byte-identical, path-insensitive or path-sensitive (the
 *    n-grams are written sorted, so the bytes depend on the set and
 *    not on its history), and the after-run profile of a
 *    path-sensitive guard loads into the trained state;
 *  - training after a protected run gives every observed edge trained
 *    credit, so dropping the runtime overlay leaves what training
 *    alone leaves;
 *  - the profile bytes of two small trained guards are pinned by
 *    digest, so a change to the trainer or the codec that moves a
 *    byte shows here.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/path_index.hh"
#include "core/flowguard.hh"
#include "core/profile_io.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;

workloads::ServerSpec
vulnSpec()
{
    auto spec = workloads::serverSuite(/*implant_vuln=*/true)[0];
    spec.workPerRequest = 100;
    return spec;
}

struct Server
{
    workloads::ServerSpec spec = vulnSpec();
    workloads::SyntheticApp app = workloads::buildServerApp(spec);

    std::vector<uint8_t>
    requests(size_t count, uint64_t seed) const
    {
        return workloads::makeBenignStream(count, seed, spec.numHandlers,
                                           spec.numParserStates);
    }

    FlowGuard
    guard(bool path_sensitive) const
    {
        FlowGuardConfig config;
        config.pathSensitive = path_sensitive;
        FlowGuard guard(app.program, config);
        guard.analyze();
        return guard;
    }
};

std::string
profileOf(const FlowGuard &guard)
{
    std::stringstream out;
    saveProfile(guard, out);
    return out.str();
}

/** FNV-1a over the profile bytes. */
uint64_t
digest(const std::string &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<uint8_t>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Every edge's credit, TNT list (in order) and varied mark, and the
 *  n-gram set, agree. */
void
expectSameState(const FlowGuard &got, const FlowGuard &want)
{
    const analysis::ItcCfg &a = got.itc();
    const analysis::ItcCfg &b = want.itc();
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_EQ(a.highCreditCount(), b.highCreditCount());
    for (size_t e = 0; e < a.numEdges(); ++e) {
        const int64_t edge = static_cast<int64_t>(e);
        ASSERT_EQ(a.highCredit(edge), b.highCredit(edge)) << "edge " << e;
        ASSERT_EQ(a.tntVaried(edge), b.tntVaried(edge)) << "edge " << e;
        ASSERT_EQ(a.tntSequences(edge), b.tntSequences(edge))
            << "edge " << e;
    }
    ASSERT_EQ(got.paths() != nullptr, want.paths() != nullptr);
    if (got.paths()) {
        EXPECT_TRUE(got.paths()->hashes() == want.paths()->hashes());
    }
}

TEST(TrainedState, RunLeavesPathInsensitiveProfileBytes)
{
    Server server;
    FlowGuard guard = server.guard(false);
    guard.trainWithCorpus({server.requests(2, 1)});
    const std::string before = profileOf(guard);

    const auto outcome = guard.run(server.requests(30, 7));
    ASSERT_FALSE(outcome.attackDetected);
    // The run taught the graph something, or the test shows nothing.
    ASSERT_GT(outcome.monitor.slowChecks, 0u);

    // Compared whole, not printed: a profile is kilobytes of binary.
    EXPECT_TRUE(profileOf(guard) == before);
}

TEST(TrainedState, PathSensitiveProfileAfterRunLoadsTrainedState)
{
    Server server;
    FlowGuard trained = server.guard(true);
    trained.trainWithCorpus({server.requests(2, 1)});

    FlowGuard ran = server.guard(true);
    ran.trainWithCorpus({server.requests(2, 1)});
    const auto outcome = ran.run(server.requests(30, 7));
    ASSERT_FALSE(outcome.attackDetected);
    ASSERT_GT(outcome.monitor.slowChecks, 0u);
    ASSERT_GT(ran.paths()->size(), trained.paths()->size());

    std::stringstream profile(profileOf(ran));
    FlowGuard loaded(server.app.program, ran.config());
    const ProfileLoadResult result = tryLoadProfile(loaded, profile);
    ASSERT_TRUE(result.ok()) << result.message;
    expectSameState(loaded, trained);
}

TEST(TrainedState, RunLeavesPathSensitiveProfileBytes)
{
    // The run grows (and rehashes) the n-gram set; the trained part
    // it writes is the same set, so the bytes must be the same too.
    Server server;
    FlowGuard guard = server.guard(true);
    guard.trainWithCorpus({server.requests(2, 1)});
    const std::string before = profileOf(guard);
    const size_t trained_paths = guard.paths()->size();

    const auto outcome = guard.run(server.requests(30, 7));
    ASSERT_FALSE(outcome.attackDetected);
    ASSERT_GT(guard.paths()->size(), trained_paths);

    EXPECT_TRUE(profileOf(guard) == before);
}

TEST(TrainedState, TrainingAfterRunGivesTrainedCredit)
{
    Server server;
    const std::vector<fuzz::Input> corpus = {server.requests(2, 1)};
    FlowGuard alone = server.guard(true);
    alone.trainWithCorpus(corpus);

    FlowGuard after_run = server.guard(true);
    const auto outcome = after_run.run(server.requests(30, 7));
    ASSERT_GT(outcome.monitor.slowChecks, 0u);
    after_run.trainWithCorpus(corpus);
    after_run.itc().clearRuntime();
    after_run.mutablePaths()->clearRuntime();

    expectSameState(after_run, alone);
}

TEST(TrainedState, ProfileBytesArePinned)
{
    Server server;
    FlowGuard plain = server.guard(false);
    plain.trainWithCorpus({server.requests(4, 1), server.requests(3, 2)});
    FlowGuard pathy = server.guard(true);
    pathy.trainWithCorpus({server.requests(4, 1), server.requests(3, 2)});

    // Recorded from the stream-codec writer that kept a v2 reader; the
    // path-sensitive digest again once the n-grams were written sorted
    // (it was 0x7a4bd306c67b94f5 in hash-set order).
    const std::string plain_bytes = profileOf(plain);
    const std::string pathy_bytes = profileOf(pathy);
    EXPECT_EQ(plain_bytes.size(), 3747u);
    EXPECT_EQ(digest(plain_bytes), 0x4e4f0114bba8e289ULL);
    EXPECT_EQ(pathy_bytes.size(), 4235u);
    EXPECT_EQ(digest(pathy_bytes), 0xd8aa65ac5712e549ULL);
}

} // namespace
