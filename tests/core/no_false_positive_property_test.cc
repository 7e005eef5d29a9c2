/**
 * @file
 * The headline property (§7.1.2 "FlowGuard introduces no false
 * positive"): over a sweep of randomly generated server applications
 * and random benign request streams, a protected run must never be
 * killed — low-credit windows may route to the slow path, which must
 * then vouch for them.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "core/flowguard.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;

struct SweepParam
{
    uint64_t seed;
    size_t handlers;
    size_t states;
    size_t fillers;
    size_t slots;
};

/** Names each instance after its parameters ("seed101_h2_s2_f8_t3");
 *  without it the test ID is a byte dump of the struct. */
void
PrintTo(const SweepParam &p, std::ostream *os)
{
    *os << "seed" << p.seed << "_h" << p.handlers << "_s" << p.states
        << "_f" << p.fillers << "_t" << p.slots;
}

class NoFalsePositiveSweep
    : public ::testing::TestWithParam<SweepParam>
{};

TEST_P(NoFalsePositiveSweep, BenignRunsNeverKilled)
{
    const auto &p = GetParam();
    workloads::ServerSpec spec;
    spec.name = "sweep";
    spec.seed = p.seed;
    spec.numHandlers = p.handlers;
    spec.numParserStates = p.states;
    spec.numFillerFuncs = p.fillers;
    spec.fillerTableSlots = p.slots;
    spec.workPerRequest = 50;
    spec.cr3 = 0x4000 + p.seed;
    auto app = workloads::buildServerApp(spec);

    FlowGuard guard(app.program);
    guard.analyze();
    // Sparse training on purpose: the slow path must carry the rest.
    guard.trainWithCorpus({workloads::makeBenignStream(
        3, p.seed, spec.numHandlers, spec.numParserStates)});

    for (uint64_t stream = 0; stream < 3; ++stream) {
        auto input = workloads::makeBenignStream(
            10, 1000 + p.seed * 10 + stream, spec.numHandlers,
            spec.numParserStates);
        auto outcome = guard.run(input);
        EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted)
            << "seed " << p.seed << " stream " << stream;
        EXPECT_FALSE(outcome.attackDetected)
            << "false positive: seed " << p.seed << " stream "
            << stream;
        EXPECT_GT(outcome.monitor.checks, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NoFalsePositiveSweep,
    ::testing::Values(SweepParam{101, 2, 2, 8, 3},
                      SweepParam{102, 5, 3, 30, 10},
                      SweepParam{103, 8, 6, 60, 20},
                      SweepParam{104, 3, 1, 0, 0},
                      SweepParam{105, 1, 4, 15, 15},
                      SweepParam{106, 12, 2, 40, 5}));

TEST(NoFalsePositive, UtilitiesAndSpecSuiteSurviveProtection)
{
    for (const auto &spec : workloads::utilitySuite()) {
        auto app = workloads::buildUtilityApp(spec);
        FlowGuard guard(app.program);
        guard.analyze();
        std::vector<uint8_t> input(2048);
        for (size_t i = 0; i < input.size(); ++i)
            input[i] = static_cast<uint8_t>(i * 13 + 7);
        guard.trainWithCorpus({input});
        auto outcome = guard.run(input);
        EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted) << spec.name;
        EXPECT_FALSE(outcome.attackDetected) << spec.name;
    }
    for (const auto &spec : workloads::specSuite()) {
        auto app = workloads::buildSpecKernel(spec);
        FlowGuard guard(app.program);
        guard.analyze();
        guard.trainWithCorpus({{0}});
        auto outcome = guard.run({});
        EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted) << spec.name;
        EXPECT_FALSE(outcome.attackDetected) << spec.name;
    }
}

} // namespace
