/**
 * @file
 * Workload generator sanity: every synthetic app runs to a clean exit
 * on benign input, and the ITC invariant holds on every app's trace.
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "decode/fast_decoder.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using workloads::SyntheticApp;

void
expectCleanRun(const SyntheticApp &app,
               const std::vector<uint8_t> &input)
{
    auto result = workloads::runOnce(app.program, input);
    EXPECT_EQ(result.stop, cpu::Cpu::Stop::Halted) << app.name;
    EXPECT_GT(result.instructions, 100u) << app.name;
}

void
expectItcInvariant(const SyntheticApp &app,
                   const std::vector<uint8_t> &input)
{
    trace::Topa topa({1 << 22});
    trace::IptConfig config;
    trace::IptEncoder encoder(config, topa);
    auto run = workloads::runOnce(app.program, input, &encoder);
    ASSERT_EQ(run.stop, cpu::Cpu::Stop::Halted) << app.name;
    encoder.flushTnt();

    analysis::Cfg cfg = analysis::buildCfg(app.program);
    analysis::ItcCfg itc = analysis::ItcCfg::build(cfg);

    decode::TraceCursor cursor;
    ASSERT_FALSE(
        cursor.decode(trace::StreamView{topa.view()}, SIZE_MAX).malformed)
        << app.name;
    const auto transitions = cursor.views();
    ASSERT_GT(transitions.size(), 3u) << app.name;
    size_t checked = 0;
    for (const auto &t : transitions) {
        if (t.from == 0)
            continue;
        ASSERT_GE(itc.findEdge(t.from, t.to), 0)
            << app.name << std::hex << ": 0x" << t.from << " -> 0x"
            << t.to;
        ++checked;
    }
    // dd is deliberately branch- and syscall-light (Figure 5b), so
    // the floor is low; everything else produces far more.
    EXPECT_GE(checked, 3u) << app.name;
}

TEST(Workloads, ServersRunAndSatisfyItcInvariant)
{
    for (const auto &spec : workloads::serverSuite()) {
        SyntheticApp app = workloads::buildServerApp(spec);
        auto input = workloads::makeBenignStream(
            20, 7, spec.numHandlers, spec.numParserStates);
        expectCleanRun(app, input);
        expectItcInvariant(app, input);
    }
}

TEST(Workloads, VulnerableServerStillBenignOnCleanInput)
{
    auto specs = workloads::serverSuite(/*implant_vuln=*/true);
    SyntheticApp app = workloads::buildServerApp(specs[0]);
    auto input = workloads::makeBenignStream(
        20, 9, specs[0].numHandlers, specs[0].numParserStates);
    expectCleanRun(app, input);
    expectItcInvariant(app, input);
}

TEST(Workloads, UtilitiesRunAndSatisfyItcInvariant)
{
    for (const auto &spec : workloads::utilitySuite()) {
        SyntheticApp app = workloads::buildUtilityApp(spec);
        std::vector<uint8_t> input(4096, 0x5a);
        expectCleanRun(app, input);
        expectItcInvariant(app, input);
    }
}

TEST(Workloads, SpecKernelsRunAndSatisfyItcInvariant)
{
    for (const auto &spec : workloads::specSuite()) {
        SyntheticApp app = workloads::buildSpecKernel(spec);
        expectCleanRun(app, {});
        expectItcInvariant(app, {});
    }
}

} // namespace
