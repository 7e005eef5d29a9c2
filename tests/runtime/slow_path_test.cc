/**
 * @file
 * Unit tests for the slow-path checker: shadow-stack enforcement,
 * underflow fallback to call/return matching, TypeArmor forward
 * edges, indirect jump validation and decode-failure handling, and
 * the window of a ring cut mid-stream with no PSB in it.
 */

#include <gtest/gtest.h>

#include <functional>

#include "analysis/cfg_builder.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "runtime/scheduler.hh"
#include "runtime/slow_path.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;
using namespace flowguard::runtime;

/** Captures an IPT trace of a run of `prog` on `input`. */
std::vector<uint8_t>
captureTrace(const Program &prog, const std::vector<uint8_t> &input = {})
{
    trace::Topa topa({1 << 20});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    kernel.setInput(input);
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&encoder);
    cpu.run(1'000'000);
    encoder.flushTnt();
    return topa.snapshot();
}

TEST(SlowPath, BenignFlowPasses)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("cb", /*exported=*/false);
    mod.alu(AluOp::Add, 6, 0);
    mod.ret();
    mod.function("main");
    mod.movImm(0, 3);
    mod.movImmFunc(1, "cb");
    mod.callInd(1);
    mod.call("leaf");
    mod.halt();
    mod.function("leaf");
    mod.cmpImm(6, 2);
    mod.jcc(Cond::Lt, "out");
    mod.label("out");
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();

    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);
    auto result = checker.check(captureTrace(prog));
    EXPECT_EQ(result.verdict, CheckVerdict::Pass) << result.reason;
    EXPECT_GT(result.branchesChecked, 0u);
}

TEST(SlowPath, HijackedReturnIsShadowStackViolation)
{
    // victim overwrites its own return address; full decode sees the
    // call and the mismatched return.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("gadget", /*exported=*/false);
    mod.movImm(0, 1);
    mod.halt();
    mod.function("victim", /*exported=*/false);
    mod.movImmFunc(3, "gadget");
    mod.store(sp_reg, 0, 3);
    mod.ret();
    mod.function("main");
    mod.call("victim");
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();

    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);
    auto result = checker.check(captureTrace(prog));
    EXPECT_EQ(result.verdict, CheckVerdict::Violation);
    // The very first call is subsumed by the PGE, so the hijacked
    // return is caught either by the shadow stack or by the
    // underflow fallback — both name the return.
    EXPECT_NE(result.reason.find("return"), std::string::npos)
        << result.reason;
    EXPECT_EQ(result.violatingTarget, prog.funcAddr("m", "gadget"));
}

TEST(SlowPath, HijackedReturnWithWarmShadowStack)
{
    // Same hijack, but with an earlier indirect branch so the decode
    // window contains the call itself: the shadow stack catches it.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("gadget", /*exported=*/false);
    mod.movImm(0, 1);
    mod.halt();
    mod.function("victim", /*exported=*/false);
    mod.movImmFunc(3, "gadget");
    mod.store(sp_reg, 0, 3);
    mod.ret();
    mod.function("entry", /*exported=*/false);
    mod.call("victim");
    mod.halt();
    mod.function("main");
    mod.movImmFunc(1, "entry");
    mod.jmpInd(1);              // warms the trace before the call
    Program prog = Loader().addExecutable(mod.build()).link();

    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);
    auto result = checker.check(captureTrace(prog));
    EXPECT_EQ(result.verdict, CheckVerdict::Violation);
    EXPECT_NE(result.reason.find("shadow-stack"), std::string::npos)
        << result.reason;
}

TEST(SlowPath, UnderflowFallsBackToCallReturnMatching)
{
    // A window that begins inside a callee: its return underflows the
    // window's shadow stack but matches the O-CFG return edges.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.funcPtrTable("stages", {"stage"});
    mod.function("main");
    mod.call("leaf");
    mod.halt();
    mod.function("leaf");
    mod.movImmData(1, "stages");
    mod.load(1, 1, 0);
    mod.jmpInd(1);              // resolved tail dispatch into stage
    mod.jumpTableHint("stages", 1);
    mod.function("stage", /*exported=*/false);
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();

    // Build a window starting at the PSB right before the jmpInd TIP:
    // decode sees TIP(stage), then stage's ret — shadow stack empty.
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "stage"), last_ip);
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "main") + 5, last_ip);

    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);
    auto result = checker.check(bytes);
    EXPECT_EQ(result.verdict, CheckVerdict::Pass) << result.reason;
}

TEST(SlowPath, UnderflowToWildAddressViolates)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("leaf");
    mod.halt();
    mod.function("leaf");
    mod.nop();
    mod.ret();
    mod.function("unrelated", /*exported=*/false);
    mod.nop();
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();

    // Forge: a return into `unrelated`, never a return site.
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "leaf") + 1, last_ip);
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "unrelated"), last_ip);

    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);
    auto result = checker.check(bytes);
    EXPECT_EQ(result.verdict, CheckVerdict::Violation);
}

TEST(SlowPath, ForwardEdgeArityMismatchViolates)
{
    // Forge a trace where an indirect call lands on a function whose
    // consumed arity exceeds what the site prepared.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("greedy", /*exported=*/false);   // consumes 3 args
    mod.alu(AluOp::Add, 6, 0);
    mod.alu(AluOp::Add, 6, 1);
    mod.alu(AluOp::Add, 6, 2);
    mod.ret();
    mod.function("modest", /*exported=*/false);   // consumes 0
    mod.ret();
    mod.function("main");
    mod.movImm(0, 1);               // prepares exactly one argument
    mod.movImmFunc(6, "modest");
    mod.movImmFunc(7, "greedy");    // both address-taken
    mod.callInd(6);
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();

    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);

    // Benign run (calls modest): passes.
    EXPECT_EQ(checker.check(captureTrace(prog)).verdict,
              CheckVerdict::Pass);

    // Forged flow into greedy: the call site prepared 1, greedy
    // consumes 3.
    const uint64_t call_site =
        prog.funcAddr("m", "main") + 6 + 6 + 6;
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "main"), last_ip);
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "greedy"), last_ip);
    (void)call_site;
    auto result = checker.check(bytes);
    EXPECT_EQ(result.verdict, CheckVerdict::Violation);
    EXPECT_NE(result.reason.find("forward-edge"), std::string::npos);
}

TEST(SlowPath, IndirectCallMidFunctionViolates)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("target", /*exported=*/false);
    mod.nop();
    mod.nop();
    mod.ret();
    mod.function("main");
    mod.movImmFunc(1, "target");
    mod.callInd(1);
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();

    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);

    // Forged: the indirect call lands one instruction inside target.
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "main"), last_ip);
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "target") + 1, last_ip);
    auto result = checker.check(bytes);
    EXPECT_EQ(result.verdict, CheckVerdict::Violation);
}

TEST(SlowPath, RingCutMidStreamWithoutPsbWalksNothing)
{
    // A 512-byte ring and a PSB every 1024 bytes: once the ring wraps,
    // most views hold no PSB. Their bytes start mid-stream, so no PSB
    // anchors an IP in them, and the slow path must report a sync loss
    // and walk nothing rather than decode them from byte 0: on the
    // live ring, and from the copy the scheduler queues, which keeps
    // the window's stream offset.
    workloads::ServerSpec spec;
    spec.name = "cut";
    spec.seed = 24;
    spec.cr3 = 0x2400;
    const auto app = workloads::buildServerApp(spec);
    const analysis::TypeArmorInfo ta =
        analysis::analyzeTypeArmor(app.program);
    const analysis::Cfg cfg = analysis::buildCfg(app.program, &ta);

    // The window holds no step, only a sync loss over all its bytes.
    const auto expect_sync_loss = [](const SlowPathResult &result,
                                     const SlowPathChecker &checker,
                                     size_t size) {
        EXPECT_EQ(result.verdict, CheckVerdict::Pass);
        EXPECT_EQ(result.reason, "no sync point in window");
        EXPECT_EQ(result.instructionsWalked, 0u);
        EXPECT_EQ(result.branchesChecked, 0u);
        EXPECT_TRUE(checker.window().steps.empty());
        EXPECT_EQ(checker.window().resyncs, 1u);
        EXPECT_EQ(checker.window().bytesSkipped, size);
    };

    SlowPathChecker live(cfg, ta);
    SlowPathChecker queued(cfg, ta);
    std::vector<SlowPathResult> from_copies;
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 100;
    CheckScheduler scheduler(
        config,
        [&](const CheckRequest &request) {
            CheckExecution exec;
            exec.verdict = CheckVerdict::Pass;
            exec.costCycles = 1'000;
            if (request.window.stream == 0) {
                from_copies.push_back(queued.check(request.window));
                expect_sync_loss(from_copies.back(), queued,
                                 request.window.bytes.size());
            }
            return exec;
        },
        [](const CheckRequest &, bool) {},
        [](const CheckRequest &, const CheckExecution &, uint64_t) {});

    trace::Topa topa({256, 256});
    trace::IptConfig ipt;
    ipt.psbPeriodBytes = 1024;
    trace::IptEncoder encoder(ipt, topa);
    size_t unsynced = 0;
    uint64_t now = 0;
    struct Sampler : cpu::TraceSink
    {
        std::function<void()> sample;
        size_t seen = 0;

        void
        onBranch(const cpu::BranchEvent &) override
        {
            if (++seen % 37 == 0)
                sample();
        }
    } sampler;
    sampler.sample = [&] {
        const trace::StreamView view = topa.streamView();
        if (view.offset == 0 ||
            trace::findNextPsb(view.bytes.data(), view.bytes.size(), 0) !=
                SIZE_MAX)
            return;
        ++unsynced;
        SCOPED_TRACE("view at " + std::to_string(view.offset));
        expect_sync_loss(live.check(view), live, view.bytes.size());
        // The first request occupies the core past its deadline, so the
        // second is queued unexecuted and runs from its copy.
        CheckRequest late;
        late.window = view;
        CheckRequest copied;
        copied.window = view;
        scheduler.submit(std::move(late), now);
        scheduler.submit(std::move(copied), now);
        now += 10'000;
        scheduler.drain(now);
    };

    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        20, 5, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&encoder);
    cpu.addTraceSink(&sampler);
    EXPECT_EQ(cpu.run(5'000'000), cpu::Cpu::Stop::Halted);

    EXPECT_GT(unsynced, 10u);
    EXPECT_EQ(from_copies.size(), unsynced);
}

TEST(SlowPath, EmptyWindowPasses)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();
    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    analysis::Cfg cfg = analysis::buildCfg(prog, &ta);
    SlowPathChecker checker(cfg, ta);
    auto result = checker.check(std::span<const uint8_t>{});
    EXPECT_EQ(result.verdict, CheckVerdict::Pass);
}

} // namespace
