/**
 * @file
 * Differential oracle for the interpreter.
 *
 * `ref::Cpu` below is the interpreter as it was before the dense code
 * index: it finds every instruction through an address → instruction
 * hash map (the old `Program::fetch`), validates every branch target
 * the same way, scans the modules linearly for the DEP check, and
 * runs on a page map with no cache (`ref::Memory`) under a kernel
 * that moves syscall buffers one byte at a time (`ref::Kernel`). It
 * is kept here, test-only, as the specification: the production
 * interpreter, with its cached instruction index, link-time successor
 * indices, page cache and bulk syscall I/O, must retire the same
 * instructions and publish the same BranchEvents on every input, and
 * end in the same registers, memory, fault, exit code and output.
 *
 * Inputs: every workloads image under seeded request streams (each
 * run twice across a reset, as training does), the ROP, SROP and
 * ret2lib chains against the vulnerable server, and seeded random
 * programs that branch into the middle of instructions, into the gap
 * between modules and off a module's end, store into code, and
 * sigreturn to forged pcs.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "isa/syscalls.hh"
#include "support/random.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using cpu::BranchEvent;
using cpu::BranchKind;
using isa::Cond;
using isa::Instruction;
using isa::Opcode;
using isa::Syscall;

// --- the reference: the map-based interpreter, verbatim in behaviour ----

namespace ref {

/** The page map without a cache. */
class Memory
{
  public:
    static constexpr uint64_t page_size = 4096;
    using Page = std::array<uint8_t, page_size>;

    uint8_t
    read8(uint64_t addr) const
    {
        const Page *page = findPage(addr);
        return page ? (*page)[addr % page_size] : 0;
    }

    uint64_t
    read64(uint64_t addr) const
    {
        if (addr % page_size <= page_size - 8) {
            const Page *page = findPage(addr);
            if (!page)
                return 0;
            uint64_t value = 0;
            const uint8_t *src = page->data() + addr % page_size;
            for (int i = 7; i >= 0; --i)
                value = (value << 8) | src[i];
            return value;
        }
        uint64_t value = 0;
        for (int i = 7; i >= 0; --i)
            value = (value << 8) | read8(addr + static_cast<uint64_t>(i));
        return value;
    }

    void
    write8(uint64_t addr, uint8_t value)
    {
        touchPage(addr)[addr % page_size] = value;
    }

    void
    write64(uint64_t addr, uint64_t value)
    {
        if (addr % page_size <= page_size - 8) {
            Page &page = touchPage(addr);
            uint8_t *dst = page.data() + addr % page_size;
            for (int i = 0; i < 8; ++i)
                dst[i] = static_cast<uint8_t>(value >> (8 * i));
            return;
        }
        for (int i = 0; i < 8; ++i)
            write8(addr + static_cast<uint64_t>(i),
                   static_cast<uint8_t>(value >> (8 * i)));
    }

    void
    writeBytes(uint64_t addr, const std::vector<uint8_t> &in)
    {
        for (uint64_t i = 0; i < in.size(); ++i)
            write8(addr + i, in[i]);
    }

    void clear() { _pages.clear(); }

    const std::unordered_map<uint64_t, Page> &pages() const
    {
        return _pages;
    }

  private:
    const Page *
    findPage(uint64_t addr) const
    {
        auto it = _pages.find(addr / page_size);
        return it == _pages.end() ? nullptr : &it->second;
    }

    Page &
    touchPage(uint64_t addr)
    {
        auto [it, inserted] = _pages.try_emplace(addr / page_size);
        if (inserted)
            it->second.fill(0);
        return it->second;
    }

    std::unordered_map<uint64_t, Page> _pages;
};

class Cpu;

/** The kernel's syscall surface with byte-at-a-time buffer moves. */
class Kernel
{
  public:
    void
    setInput(std::vector<uint8_t> input)
    {
        _input = std::move(input);
        _inputPos = 0;
    }

    void
    reset()
    {
        _input.clear();
        _inputPos = 0;
        _output.clear();
        _mmapCursor = isa::layout::mmap_base;
        _jitCursor = isa::layout::jit_base;
        _timeNow = 1'700'000'000;
        _totalSyscalls = 0;
    }

    cpu::SyscallResult dispatch(Cpu &cpu, int64_t number);

    const std::vector<uint8_t> &output() const { return _output; }
    uint64_t totalSyscalls() const { return _totalSyscalls; }

  private:
    std::vector<uint8_t> _input;
    size_t _inputPos = 0;
    std::vector<uint8_t> _output;
    uint64_t _mmapCursor = isa::layout::mmap_base;
    uint64_t _jitCursor = isa::layout::jit_base;
    uint64_t _timeNow = 1'700'000'000;
    uint64_t _totalSyscalls = 0;
};

class Cpu
{
  public:
    using Stop = cpu::Cpu::Stop;
    using FaultInfo = cpu::Cpu::FaultInfo;
    using BranchStats = cpu::Cpu::BranchStats;
    static constexpr int sp_reg = isa::sp_reg;

    explicit Cpu(const isa::Program &prog) : _prog(prog)
    {
        for (size_t i = 0; i < prog.numInsts(); ++i)
            _addrToInst[prog.instAddr(i)] = static_cast<uint32_t>(i);
        reset();
    }

    void
    reset()
    {
        _mem.clear();
        _regs.fill(0);
        for (const auto &image : _prog.initialData())
            _mem.writeBytes(image.addr, image.bytes);
        _pc = _prog.entry();
        _regs[sp_reg] = _prog.stackTop();
        _cmp = 0;
        _instCount = 0;
        _branchStats = BranchStats{};
        _fault = FaultInfo{};
        _exitCode = 0;
        _state = Stop::Running;
    }

    Stop
    run(uint64_t max_insts)
    {
        if (_state != Stop::Running)
            return _state;
        for (uint64_t i = 0; i < max_insts; ++i) {
            Stop s = doStep();
            if (s != Stop::Running)
                return s;
        }
        return Stop::InstLimit;
    }

    uint64_t reg(int index) const { return _regs[index]; }
    void setReg(int index, uint64_t value) { _regs[index] = value; }
    uint64_t pc() const { return _pc; }
    void setPc(uint64_t pc) { _pc = pc; }
    uint64_t sp() const { return _regs[sp_reg]; }
    Memory &memory() { return _mem; }
    const Memory &memory() const { return _mem; }
    const isa::Program &program() const { return _prog; }
    void setKernel(Kernel *kernel) { _kernel = kernel; }

    uint64_t instCount() const { return _instCount; }
    const BranchStats &branchStats() const { return _branchStats; }
    const FaultInfo &fault() const { return _fault; }
    int64_t exitCode() const { return _exitCode; }
    Stop state() const { return _state; }

    std::vector<BranchEvent> events;

  private:
    const Instruction *
    fetch(uint64_t addr) const
    {
        auto it = _addrToInst.find(addr);
        if (it == _addrToInst.end())
            return nullptr;
        return &_prog.inst(it->second);
    }

    bool
    isCode(uint64_t addr) const
    {
        for (const auto &mod : _prog.modules())
            if (addr >= mod.codeBase && addr < mod.codeEnd)
                return true;
        return false;
    }

    void
    push64(uint64_t value)
    {
        _regs[sp_reg] -= 8;
        _mem.write64(_regs[sp_reg], value);
    }

    uint64_t
    pop64()
    {
        uint64_t value = _mem.read64(_regs[sp_reg]);
        _regs[sp_reg] += 8;
        return value;
    }

    void
    emitBranch(BranchKind kind, uint64_t source, uint64_t target)
    {
        ++_branchStats[kind];
        events.push_back({kind, source, target, _prog.cr3()});
    }

    Stop
    raiseFault(FaultInfo::Kind kind, uint64_t addr)
    {
        _fault = {kind, _pc, addr};
        _state = Stop::Fault;
        return _state;
    }

    bool
    evalCond(Cond cond) const
    {
        switch (cond) {
          case Cond::Eq: return _cmp == 0;
          case Cond::Ne: return _cmp != 0;
          case Cond::Lt: return _cmp < 0;
          case Cond::Ge: return _cmp >= 0;
          case Cond::Gt: return _cmp > 0;
          case Cond::Le: return _cmp <= 0;
        }
        return false;
    }

    static uint64_t
    alu(isa::AluOp op, uint64_t a, uint64_t b)
    {
        switch (op) {
          case isa::AluOp::Add: return a + b;
          case isa::AluOp::Sub: return a - b;
          case isa::AluOp::Mul: return a * b;
          case isa::AluOp::Xor: return a ^ b;
          case isa::AluOp::And: return a & b;
          case isa::AluOp::Or:  return a | b;
          case isa::AluOp::Shl: return a << (b & 63);
          case isa::AluOp::Shr: return a >> (b & 63);
        }
        return 0;
    }

    Stop doStep();

    const isa::Program &_prog;
    std::unordered_map<uint64_t, uint32_t> _addrToInst;
    Memory _mem;
    std::array<uint64_t, isa::num_regs> _regs{};
    uint64_t _pc = 0;
    int _cmp = 0;
    Kernel *_kernel = nullptr;

    uint64_t _instCount = 0;
    BranchStats _branchStats;
    FaultInfo _fault;
    int64_t _exitCode = 0;
    Stop _state = Stop::Running;
};

Cpu::Stop
Cpu::doStep()
{
    const Instruction *inst = fetch(_pc);
    if (!inst)
        return raiseFault(FaultInfo::Kind::BadFetch, _pc);

    ++_instCount;
    const uint64_t pc = _pc;
    const uint64_t next = pc + isa::instSize(inst->op);

    switch (inst->op) {
      case Opcode::Nop:
        _pc = next;
        break;
      case Opcode::Alu:
        _regs[inst->rd] = alu(inst->aluOp, _regs[inst->rd],
                              _regs[inst->rs]);
        _pc = next;
        break;
      case Opcode::AluImm:
        _regs[inst->rd] = alu(inst->aluOp, _regs[inst->rd],
                              static_cast<uint64_t>(inst->imm));
        _pc = next;
        break;
      case Opcode::MovImm:
        _regs[inst->rd] = static_cast<uint64_t>(inst->imm);
        _pc = next;
        break;
      case Opcode::MovReg:
        _regs[inst->rd] = _regs[inst->rs];
        _pc = next;
        break;
      case Opcode::Load:
        _regs[inst->rd] =
            _mem.read64(_regs[inst->rs] +
                        static_cast<uint64_t>(inst->imm));
        _pc = next;
        break;
      case Opcode::Store: {
        uint64_t addr =
            _regs[inst->rd] + static_cast<uint64_t>(inst->imm);
        if (isCode(addr))
            return raiseFault(FaultInfo::Kind::CodeWrite, addr);
        _mem.write64(addr, _regs[inst->rs]);
        _pc = next;
        break;
      }
      case Opcode::Cmp: {
        uint64_t a = _regs[inst->rd];
        uint64_t b = _regs[inst->rs];
        _cmp = a < b ? -1 : (a == b ? 0 : 1);
        _pc = next;
        break;
      }
      case Opcode::CmpImm: {
        uint64_t a = _regs[inst->rd];
        uint64_t b = static_cast<uint64_t>(inst->imm);
        _cmp = a < b ? -1 : (a == b ? 0 : 1);
        _pc = next;
        break;
      }
      case Opcode::Jcc: {
        bool taken = evalCond(inst->cond);
        emitBranch(taken ? BranchKind::CondTaken
                         : BranchKind::CondNotTaken,
                   pc, taken ? inst->target : next);
        _pc = taken ? inst->target : next;
        break;
      }
      case Opcode::Jmp:
        emitBranch(BranchKind::DirectJump, pc, inst->target);
        _pc = inst->target;
        break;
      case Opcode::JmpInd: {
        uint64_t target = _regs[inst->rs];
        if (!fetch(target))
            return raiseFault(FaultInfo::Kind::BadBranch, target);
        emitBranch(BranchKind::IndirectJump, pc, target);
        _pc = target;
        break;
      }
      case Opcode::Call:
        push64(next);
        emitBranch(BranchKind::DirectCall, pc, inst->target);
        _pc = inst->target;
        break;
      case Opcode::CallInd: {
        uint64_t target = _regs[inst->rs];
        if (!fetch(target))
            return raiseFault(FaultInfo::Kind::BadBranch, target);
        push64(next);
        emitBranch(BranchKind::IndirectCall, pc, target);
        _pc = target;
        break;
      }
      case Opcode::Ret: {
        uint64_t target = pop64();
        if (!fetch(target))
            return raiseFault(FaultInfo::Kind::BadBranch, target);
        emitBranch(BranchKind::Return, pc, target);
        _pc = target;
        break;
      }
      case Opcode::Syscall: {
        emitBranch(BranchKind::SyscallEntry, pc, 0);
        cpu::SyscallResult result;
        if (_kernel)
            result = _kernel->dispatch(*this, inst->imm);
        switch (result.action) {
          case cpu::SyscallResult::Action::Continue:
            _regs[0] = static_cast<uint64_t>(result.retval);
            _pc = next;
            emitBranch(BranchKind::SyscallExit, pc, _pc);
            break;
          case cpu::SyscallResult::Action::PcSet:
            emitBranch(BranchKind::SyscallExit, pc, _pc);
            if (!fetch(_pc))
                return raiseFault(FaultInfo::Kind::BadBranch, _pc);
            break;
          case cpu::SyscallResult::Action::Exit:
            _exitCode = result.retval;
            _state = Stop::Halted;
            return _state;
          case cpu::SyscallResult::Action::Kill:
            _state = Stop::Killed;
            return _state;
        }
        break;
      }
      case Opcode::Halt:
        _state = Stop::Halted;
        return _state;
    }
    return Stop::Running;
}

cpu::SyscallResult
Kernel::dispatch(Cpu &cpu, int64_t number)
{
    ++_totalSyscalls;
    cpu::SyscallResult result;
    switch (static_cast<Syscall>(number)) {
      case Syscall::Read:
      case Syscall::Recv: {
        const uint64_t buf = cpu.reg(1);
        const uint64_t want = cpu.reg(2);
        const uint64_t avail = _input.size() - _inputPos;
        const uint64_t got = std::min(want, avail);
        for (uint64_t i = 0; i < got; ++i)
            cpu.memory().write8(buf + i, _input[_inputPos + i]);
        _inputPos += got;
        result.retval = static_cast<int64_t>(got);
        break;
      }
      case Syscall::Write:
      case Syscall::Send: {
        const uint64_t buf = cpu.reg(1);
        const uint64_t len = cpu.reg(2);
        for (uint64_t i = 0; i < len; ++i)
            _output.push_back(cpu.memory().read8(buf + i));
        result.retval = static_cast<int64_t>(len);
        break;
      }
      case Syscall::Open:
        result.retval = 3;
        break;
      case Syscall::Close:
        result.retval = 0;
        break;
      case Syscall::Socket:
        result.retval = 4;
        break;
      case Syscall::Accept:
        result.retval = _inputPos < _input.size() ? 5 : -1;
        break;
      case Syscall::Mmap: {
        const uint64_t len = std::max<uint64_t>(cpu.reg(0), 1);
        const uint64_t addr = _mmapCursor;
        _mmapCursor +=
            (len + isa::layout::page - 1) & ~(isa::layout::page - 1);
        result.retval = static_cast<int64_t>(addr);
        break;
      }
      case Syscall::Mprotect:
      case Syscall::Sigaction:
        result.retval = 0;
        break;
      case Syscall::Sigreturn: {
        uint64_t sp = cpu.sp();
        const uint64_t magic = cpu.memory().read64(sp);
        if (magic != cpu::BasicKernel::sigframe_magic) {
            result.action = cpu::SyscallResult::Action::Kill;
            return result;
        }
        for (int r = 0; r < 16; ++r)
            cpu.setReg(r, cpu.memory().read64(sp + 8 * (1 + r)));
        cpu.setPc(cpu.memory().read64(sp + 8 * 17));
        result.action = cpu::SyscallResult::Action::PcSet;
        return result;
      }
      case Syscall::DlOpen:
      case Syscall::DlClose: {
        const auto &mods = cpu.program().modules();
        const uint64_t idx = cpu.reg(0);
        if (idx >= mods.size() ||
            mods[idx].kind != isa::ModuleKind::SharedLib) {
            result.retval = -1;
            break;
        }
        result.retval = static_cast<int64_t>(idx);
        break;
      }
      case Syscall::JitMap: {
        const uint64_t len = std::max<uint64_t>(cpu.reg(0), 1);
        const uint64_t addr = _jitCursor;
        _jitCursor +=
            (len + isa::layout::page - 1) & ~(isa::layout::page - 1);
        result.retval = static_cast<int64_t>(addr);
        break;
      }
      case Syscall::JitUnmap:
        result.retval = 0;
        break;
      case Syscall::Gettimeofday:
        result.retval = static_cast<int64_t>(_timeNow++);
        break;
      case Syscall::Execve:
        result.retval = -1;
        break;
      case Syscall::Exit:
        result.action = cpu::SyscallResult::Action::Exit;
        result.retval = static_cast<int64_t>(cpu.reg(0));
        return result;
      default:
        result.retval = -38;
        break;
    }
    return result;
}

} // namespace ref

// --- the harness ------------------------------------------------------------

class Recorder : public cpu::TraceSink
{
  public:
    void onBranch(const BranchEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<BranchEvent> events;
};

/** Runs the production interpreter and the reference side by side. */
class Pair
{
  public:
    explicit Pair(const isa::Program &program)
        : _cpu(program), _ref(program)
    {
        _cpu.setSyscallHandler(&_kernel);
        _cpu.addTraceSink(&_recorder);
        _ref.setKernel(&_refKernel);
    }

    /** Resets both (as training does between inputs), then runs both
     *  on `input` for at most `max_insts` and compares everything.
     *  Returns how the production interpreter stopped. */
    cpu::Cpu::Stop
    run(const std::vector<uint8_t> &input, uint64_t max_insts,
        const std::string &what)
    {
        _cpu.reset();
        _kernel.reset();
        _kernel.setInput(input);
        _recorder.events.clear();
        _ref.reset();
        _refKernel.reset();
        _refKernel.setInput(input);
        _ref.events.clear();

        const auto stop = _cpu.run(max_insts);
        const auto ref_stop = _ref.run(max_insts);
        SCOPED_TRACE(what);
        EXPECT_EQ(stop, ref_stop);
        expectSame();
        return stop;
    }

    const cpu::Cpu &cpu() const { return _cpu; }

  private:
    void
    expectSame() const
    {
        EXPECT_EQ(_cpu.state(), _ref.state());
        EXPECT_EQ(_cpu.instCount(), _ref.instCount());
        EXPECT_EQ(_cpu.branchStats().byKind, _ref.branchStats().byKind);
        EXPECT_EQ(_cpu.pc(), _ref.pc());
        for (int r = 0; r < isa::num_regs; ++r)
            EXPECT_EQ(_cpu.reg(r), _ref.reg(r)) << "r" << r;
        EXPECT_EQ(_cpu.fault().kind, _ref.fault().kind);
        EXPECT_EQ(_cpu.fault().pc, _ref.fault().pc);
        EXPECT_EQ(_cpu.fault().addr, _ref.fault().addr);
        EXPECT_EQ(_cpu.exitCode(), _ref.exitCode());
        EXPECT_EQ(_kernel.output(), _refKernel.output());
        EXPECT_EQ(_kernel.totalSyscalls(), _refKernel.totalSyscalls());

        const auto &events = _recorder.events;
        ASSERT_EQ(events.size(), _ref.events.size());
        for (size_t i = 0; i < events.size(); ++i) {
            const BranchEvent &a = events[i];
            const BranchEvent &b = _ref.events[i];
            ASSERT_TRUE(a.kind == b.kind && a.source == b.source &&
                        a.target == b.target && a.cr3 == b.cr3)
                << "branch event " << i << " differs";
        }

        // Same pages materialized, with the same bytes.
        ASSERT_EQ(_cpu.memory().pageCount(), _ref.memory().pages().size());
        std::vector<uint8_t> bytes(ref::Memory::page_size);
        for (const auto &[page_no, page] : _ref.memory().pages()) {
            _cpu.memory().readBytes(page_no * ref::Memory::page_size,
                                    bytes.data(), bytes.size());
            ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(),
                                   page.begin()))
                << "page 0x" << std::hex << page_no << " differs";
        }
    }

    cpu::Cpu _cpu;
    cpu::BasicKernel _kernel;
    Recorder _recorder;
    ref::Cpu _ref;
    ref::Kernel _refKernel;
};

/** Per-run instruction budget: long enough to serve several requests,
 *  short enough to keep the whole suite well under a second. */
constexpr uint64_t budget = 250'000;

TEST(InterpOracle, ServerImagesUnderSeededStreams)
{
    for (const auto &spec : workloads::serverSuite()) {
        const auto app = workloads::buildServerApp(spec);
        Pair pair(app.program);
        for (uint64_t seed : {11u, 104729u})
            pair.run(workloads::makeBenignStream(3, seed, spec.numHandlers,
                                                 spec.numParserStates),
                     budget, spec.name + " seed " + std::to_string(seed));
    }
}

TEST(InterpOracle, PluginServerUnderSeededStreams)
{
    workloads::PluginServerSpec spec;
    const auto app = workloads::buildPluginServerApp(spec);
    Pair pair(app.program);
    for (uint64_t seed : {5u, 201u})
        pair.run(workloads::makePluginStream(40, seed, spec), budget,
                 "plugin seed " + std::to_string(seed));
}

TEST(InterpOracle, UtilityAndSpecImages)
{
    std::vector<uint8_t> input(4096);
    for (size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<uint8_t>(i * 37 + 11);
    for (const auto &spec : workloads::utilitySuite()) {
        const auto app = workloads::buildUtilityApp(spec);
        Pair pair(app.program);
        pair.run(input, budget, spec.name);
        // Again from a reset, on a shorter input.
        pair.run({input.begin(), input.begin() + 1000}, budget,
                 spec.name + " rerun");
    }
    for (const auto &spec : workloads::specSuite()) {
        const auto app = workloads::buildSpecKernel(spec);
        Pair pair(app.program);
        pair.run({}, budget / 4, spec.name);
    }
}

TEST(InterpOracle, AttackChains)
{
    const auto spec = workloads::serverSuite(/*implant_vuln=*/true)[0];
    const auto app = workloads::buildServerApp(spec);
    const auto catalog = attacks::scanGadgets(app.program);
    Pair pair(app.program);
    pair.run(attacks::buildRopWriteAttack(app.program, catalog).request,
             budget, "rop");
    pair.run(attacks::buildSropAttack(app.program, catalog).request,
             budget, "srop");
    pair.run(attacks::buildRet2LibAttack(app.program, catalog).request,
             budget, "ret2lib");
}

// --- seeded wild programs ---------------------------------------------------

/**
 * A two-module program (executable + library) of random straight-line
 * code, branches and calls; its main calls into both modules until a
 * function halts. It carries the hazards the code index must answer
 * exactly as the map did: indirect branches and sigreturns to a
 * function address plus a small random offset (mid-instruction, past
 * a function's end, off the module's end), branches to the gap between
 * the modules and to data, stores into and around code, and functions
 * that fall through into the next one or off the end of their module.
 */
isa::Program
wildProgram(uint64_t seed)
{
    Rng rng(seed);
    constexpr int funcs = 5;
    const auto fname = [](const char *prefix, int i) {
        return std::string(prefix) + std::to_string(i);
    };

    // A third of the programs carry no hazard and mostly run to the
    // instruction budget; the rest meet one every few instructions.
    const double hazard_rate = rng.chance(0.3) ? 0.0 : 0.12;

    auto emitHazard = [&](isa::ModuleBuilder &mod,
                          const std::string &victim, int rd, int rs) {
        switch (rng.below(6)) {
          case 0:
            // Store into or around code (DEP).
            mod.movImmFunc(rd, victim);
            mod.store(rd, static_cast<int64_t>(rng.range(0, 48)) - 8, rs);
            break;
          case 1:
            // Indirect branch to a function plus a small offset: mid-
            // instruction, past the function's end or off the module's.
            mod.movImmFunc(rd, victim);
            mod.aluImm(isa::AluOp::Add, rd,
                       static_cast<int64_t>(rng.range(1, 24)));
            if (rng.chance(0.5))
                mod.callInd(rd);
            else
                mod.jmpInd(rd);
            break;
          case 2:
            // Into the gap between the modules, or into data.
            if (rng.chance(0.5))
                mod.movImm(rd, static_cast<int64_t>(
                                   isa::layout::exec_base + 0x100000 +
                                   rng.below(64)));
            else
                mod.movImmData(rd, "data");
            mod.jmpInd(rd);
            break;
          case 3:
            // Return to a forged address pushed on the stack.
            mod.movImmFunc(rd, victim);
            mod.aluImm(isa::AluOp::Add, rd,
                       static_cast<int64_t>(rng.below(16)));
            mod.aluImm(isa::AluOp::Sub, isa::sp_reg, 8);
            mod.store(isa::sp_reg, 0, rd);
            mod.ret();
            break;
          default:
            // Sigreturn (PcSet) through a forged frame in data, to a
            // function plus a small offset.
            mod.movImmData(12, "frame");
            mod.movImm(13, static_cast<int64_t>(
                               cpu::BasicKernel::sigframe_magic));
            mod.store(12, 0, 13);
            mod.store(12, 8 * (1 + isa::sp_reg), isa::sp_reg);
            mod.movImmFunc(13, victim);
            mod.aluImm(isa::AluOp::Add, 13,
                       static_cast<int64_t>(rng.below(12)));
            mod.store(12, 8 * 17, 13);
            mod.movReg(isa::sp_reg, 12);
            mod.syscall(static_cast<int64_t>(Syscall::Sigreturn));
            break;
        }
    };

    auto emitBody = [&](isa::ModuleBuilder &mod, const char *prefix,
                        const char *other, int self) {
        const int len = static_cast<int>(rng.range(4, 14));
        for (int k = 0; k < len; ++k) {
            // r12 and r13 are left to the sigreturn frame; r14 is sp.
            const int rd = static_cast<int>(rng.range(6, 11));
            const int rs = static_cast<int>(rng.range(0, 11));
            const auto victim = fname(rng.chance(0.5) ? prefix : other,
                                      static_cast<int>(rng.below(funcs)));
            const bool local = victim.rfind(prefix, 0) == 0;
            if (rng.chance(hazard_rate)) {
                emitHazard(mod, victim, rd, rs);
                continue;
            }
            switch (rng.below(8)) {
              case 0:
                mod.aluImm(static_cast<isa::AluOp>(rng.below(8)), rd,
                           static_cast<int64_t>(rng.below(64)));
                break;
              case 1:
                mod.alu(static_cast<isa::AluOp>(rng.below(8)), rd, rs);
                break;
              case 2:
                mod.cmpImm(rd, static_cast<int64_t>(rng.below(4)));
                mod.jcc(static_cast<Cond>(rng.below(6)),
                        rng.chance(0.5) ? "top" : "end");
                break;
              case 3:
                // Load and store around a data object, a page edge
                // included.
                mod.movImmData(rd, "data");
                mod.load(rs, rd, static_cast<int64_t>(rng.below(8200)));
                mod.store(rd, static_cast<int64_t>(rng.below(8200)), rs);
                break;
              case 4:
                // An indirect call to a function entry.
                mod.movImmFunc(rd, victim);
                mod.callInd(rd);
                break;
              case 5:
                // Calls into the other module go through a register:
                // neither module imports, so neither ends in PLT stubs
                // and each last function can fall off its module's end.
                if (local) {
                    mod.call(victim);
                } else {
                    mod.movImmFunc(rd, victim);
                    mod.callInd(rd);
                }
                break;
              case 6:
                // Read or write a buffer that may straddle a page.
                mod.movImmData(1, "data");
                mod.aluImm(isa::AluOp::Add, 1,
                           static_cast<int64_t>(rng.below(8192)));
                mod.movImm(2, static_cast<int64_t>(rng.below(300)));
                mod.syscall(static_cast<int64_t>(
                    rng.chance(0.5) ? Syscall::Read : Syscall::Write));
                break;
              default:
                mod.movReg(rd, rs);
                break;
            }
        }
        // End: return, halt, jump back, or fall into the next function
        // (off the module's end for the last one).
        switch (rng.below(8)) {
          case 0: mod.halt(); break;
          case 1:
          case 2: mod.jmp(fname(prefix, (self + 1) % funcs)); break;
          case 3:
          case 4: break;
          default: mod.ret(); break;
        }
    };

    isa::ModuleBuilder lib("lib", isa::ModuleKind::SharedLib);
    lib.dataBss("frame", 8 * cpu::BasicKernel::sigframe_words);
    for (int i = 0; i < funcs; ++i) {
        lib.function(fname("g", i));
        lib.label("top");
        emitBody(lib, "g", "f", i);
        lib.label("end");
    }
    isa::ModuleBuilder exec("wild", isa::ModuleKind::Executable);
    exec.dataBss("data", 3 * 4096);
    exec.function("main");
    exec.label("top");
    exec.call("f0");
    exec.movImmFunc(6, "g0");
    exec.callInd(6);
    exec.jmp("top");
    for (int i = 0; i < funcs; ++i) {
        exec.function(fname("f", i));
        exec.label("top");
        emitBody(exec, "f", "g", i);
        exec.label("end");
    }
    return isa::Loader()
        .addExecutable(std::move(exec).build())
        .addLibrary(std::move(lib).build())
        .link();
}

TEST(InterpOracle, SeededWildPrograms)
{
    std::vector<uint8_t> input(600);
    for (size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<uint8_t>(i * 13 + 5);
    std::array<uint64_t, 5> stops{};
    std::array<uint64_t, 4> faults{};
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        const isa::Program program = wildProgram(seed);
        Pair pair(program);
        const auto stop =
            pair.run(input, 4000, "wild seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            return;
        ++stops[static_cast<size_t>(stop)];
        ++faults[static_cast<size_t>(pair.cpu().fault().kind)];
    }
    // The seeds reach every way a run can end.
    using Kind = cpu::Cpu::FaultInfo::Kind;
    EXPECT_GT(stops[static_cast<size_t>(cpu::Cpu::Stop::Halted)], 0u);
    EXPECT_GT(stops[static_cast<size_t>(cpu::Cpu::Stop::Killed)], 0u);
    EXPECT_GT(stops[static_cast<size_t>(cpu::Cpu::Stop::InstLimit)], 0u);
    EXPECT_GT(faults[static_cast<size_t>(Kind::BadFetch)], 0u);
    EXPECT_GT(faults[static_cast<size_t>(Kind::BadBranch)], 0u);
    EXPECT_GT(faults[static_cast<size_t>(Kind::CodeWrite)], 0u);
}

} // namespace
