/**
 * @file
 * The CPU interpreter.
 *
 * Executes a linked Program with a register file, condition flags and
 * an in-memory stack. CALL pushes the return address to memory that
 * STORE can freely overwrite — code-reuse attacks therefore execute
 * for real. Code pages are write-protected (W^X) and control may only
 * transfer to instruction boundaries inside mapped code; violating
 * either raises a Fault, modeling DEP and MMU protection respectively.
 *
 * Every retired CoFI is published to registered TraceSinks; syscalls
 * suspend the hart and enter the registered SyscallHandler (the kernel
 * simulator), which is where FlowGuard's interception lives.
 *
 * Next to the pc the hart carries the flat index of the instruction
 * there (isa::no_inst when none starts at the pc). Fall-through and
 * direct branches take the index from the program's link-time
 * InstLinks; only indirect targets and setPc() consult the dense code
 * index, so no instruction is looked up by address on the hot path.
 */

#ifndef FLOWGUARD_CPU_CPU_HH
#define FLOWGUARD_CPU_CPU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/events.hh"
#include "cpu/memory.hh"
#include "isa/program.hh"

namespace flowguard::cpu {

class Cpu;

/** Outcome of a syscall as directed by the kernel simulator. */
struct SyscallResult
{
    enum class Action : uint8_t {
        Continue,   ///< resume at the next instruction, r0 = retval
        PcSet,      ///< the handler installed a new pc (sigreturn)
        Exit,       ///< process exits normally, retval = exit code
        Kill,       ///< process killed (e.g. SIGKILL from FlowGuard)
    };

    Action action = Action::Continue;
    int64_t retval = 0;
};

/** The kernel side of the syscall boundary. */
class SyscallHandler
{
  public:
    virtual ~SyscallHandler() = default;
    virtual SyscallResult onSyscall(Cpu &cpu, int64_t number) = 0;
};

class Cpu
{
  public:
    /** Why run()/step() stopped. */
    enum class Stop : uint8_t {
        Running,        ///< step() retired one instruction
        Halted,         ///< Halt retired or exit syscall
        Killed,         ///< kernel delivered SIGKILL
        Fault,          ///< W^X violation / wild branch / bad fetch
        InstLimit,      ///< run() exhausted its instruction budget
    };

    /** Fault detail, valid when stopped with Stop::Fault. */
    struct FaultInfo
    {
        enum class Kind : uint8_t {
            None,
            BadFetch,       ///< pc does not address an instruction
            BadBranch,      ///< indirect branch left mapped code
            CodeWrite,      ///< store into a code range (DEP)
        };
        Kind kind = Kind::None;
        uint64_t pc = 0;
        uint64_t addr = 0;
    };

    /** Per-kind retirement counters (Table 1 uses branch density). */
    struct BranchStats
    {
        std::array<uint64_t, 9> byKind{};

        uint64_t total() const;
        uint64_t &operator[](BranchKind kind)
        {
            return byKind[static_cast<size_t>(kind)];
        }
        uint64_t operator[](BranchKind kind) const
        {
            return byKind[static_cast<size_t>(kind)];
        }
    };

    explicit Cpu(const isa::Program &prog);

    /** Resets registers, memory image and pc to program entry. */
    void reset();

    /** Runs until halt/fault/kill or the instruction budget expires. */
    Stop run(uint64_t max_insts = UINT64_MAX);

    /** Retires a single instruction. */
    Stop step();

    // --- architectural state ---------------------------------------------
    uint64_t reg(int index) const { return _regs[index]; }
    void setReg(int index, uint64_t value) { _regs[index] = value; }
    uint64_t pc() const { return _pc; }
    void
    setPc(uint64_t pc)
    {
        _pc = pc;
        _inst = _prog.instIndexAt(pc);
    }
    uint64_t sp() const { return _regs[sp_reg]; }
    void setSp(uint64_t sp) { _regs[sp_reg] = sp; }
    Memory &memory() { return _mem; }
    const Memory &memory() const { return _mem; }

    /** Register index used as the stack pointer. */
    static constexpr int sp_reg = isa::sp_reg;

    void push64(uint64_t value);
    uint64_t pop64();

    // --- environment -------------------------------------------------------
    void addTraceSink(TraceSink *sink) { _sinks.push_back(sink); }
    void clearTraceSinks() { _sinks.clear(); }
    void setSyscallHandler(SyscallHandler *handler)
    {
        _handler = handler;
    }

    const isa::Program &program() const { return _prog; }

    // --- accounting ---------------------------------------------------------
    uint64_t instCount() const { return _instCount; }
    const BranchStats &branchStats() const { return _branchStats; }
    const FaultInfo &fault() const { return _fault; }
    int64_t exitCode() const { return _exitCode; }
    Stop state() const { return _state; }

  private:
    Stop doStep();
    void emitBranch(BranchKind kind, uint64_t source, uint64_t target);
    Stop raiseFault(FaultInfo::Kind kind, uint64_t addr);
    bool evalCond(isa::Cond cond) const;

    const isa::Program &_prog;
    Memory _mem;
    std::array<uint64_t, isa::num_regs> _regs{};
    uint64_t _pc = 0;
    uint32_t _inst = isa::no_inst;  ///< always _prog.instIndexAt(_pc)
    int _cmp = 0;   ///< -1 / 0 / +1 from the last Cmp

    std::vector<TraceSink *> _sinks;
    SyscallHandler *_handler = nullptr;

    uint64_t _instCount = 0;
    BranchStats _branchStats;
    FaultInfo _fault;
    int64_t _exitCode = 0;
    Stop _state = Stop::Running;
};

} // namespace flowguard::cpu

#endif // FLOWGUARD_CPU_CPU_HH
