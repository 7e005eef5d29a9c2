#include "cpu/basic_kernel.hh"

#include <algorithm>

#include "support/logging.hh"

namespace flowguard::cpu {

using isa::Syscall;

void
BasicKernel::setInput(std::vector<uint8_t> input)
{
    _input = std::move(input);
    _inputPos = 0;
}

uint64_t
BasicKernel::syscallCount(Syscall number) const
{
    const auto index = static_cast<size_t>(number);
    return index < _counts.size() ? _counts[index] : 0;
}

void
BasicKernel::reset()
{
    _input.clear();
    _inputPos = 0;
    _output.clear();
    _mmapCursor = isa::layout::mmap_base;
    _jitCursor = isa::layout::jit_base;
    _timeNow = 1'700'000'000;
    _sigHandlers.clear();
    _counts.clear();
    _totalSyscalls = 0;
    _codeEventSeq = 0;
}

void
BasicKernel::addCodeEventSink(CodeEventSink *sink)
{
    _codeSinks.push_back(sink);
}

void
BasicKernel::publishCodeEvent(CodeEvent event)
{
    event.seq = _codeEventSeq++;
    for (auto *sink : _codeSinks)
        sink->onCodeEvent(event);
}

SyscallResult
BasicKernel::onSyscall(Cpu &cpu, int64_t number)
{
    return dispatch(cpu, number);
}

SyscallResult
BasicKernel::dispatch(Cpu &cpu, int64_t number)
{
    if (number >= 0) {
        if (_counts.size() <= static_cast<size_t>(number))
            _counts.resize(static_cast<size_t>(number) + 1, 0);
        ++_counts[static_cast<size_t>(number)];
    }
    ++_totalSyscalls;

    SyscallResult result;
    switch (static_cast<Syscall>(number)) {
      case Syscall::Read:
      case Syscall::Recv: {
        // (fd=r0, buf=r1, count=r2) -> bytes read
        const uint64_t buf = cpu.reg(1);
        const uint64_t want = cpu.reg(2);
        const uint64_t avail = _input.size() - _inputPos;
        const uint64_t got = std::min(want, avail);
        cpu.memory().writeBytes(buf, _input.data() + _inputPos, got);
        _inputPos += got;
        result.retval = static_cast<int64_t>(got);
        break;
      }

      case Syscall::Write:
      case Syscall::Send: {
        const uint64_t buf = cpu.reg(1);
        const uint64_t len = cpu.reg(2);
        const size_t end = _output.size();
        _output.resize(end + len);
        cpu.memory().readBytes(buf, _output.data() + end, len);
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
        // One connection per pending input; -1 once drained.
        result.retval = _inputPos < _input.size() ? 5 : -1;
        break;

      case Syscall::Mmap: {
        // (len=r0) -> address; page-granular bump allocator.
        const uint64_t len = std::max<uint64_t>(cpu.reg(0), 1);
        const uint64_t addr = _mmapCursor;
        _mmapCursor +=
            (len + isa::layout::page - 1) & ~(isa::layout::page - 1);
        result.retval = static_cast<int64_t>(addr);
        break;
      }
      case Syscall::Mprotect:
        result.retval = 0;
        break;

      case Syscall::Sigaction:
        // (signum=r0, handler=r1)
        _sigHandlers.emplace_back(static_cast<int64_t>(cpu.reg(0)),
                                  cpu.reg(1));
        result.retval = 0;
        break;

      case Syscall::Sigreturn: {
        // Pop the sigframe and restore the full context, including
        // pc. A forged frame is the SROP primitive of Bosman & Bos.
        uint64_t sp = cpu.sp();
        const uint64_t magic = cpu.memory().read64(sp);
        if (magic != sigframe_magic) {
            result.action = SyscallResult::Action::Kill;
            return result;
        }
        for (int r = 0; r < 16; ++r)
            cpu.setReg(r, cpu.memory().read64(sp + 8 * (1 + r)));
        const uint64_t new_pc = cpu.memory().read64(sp + 8 * 17);
        // setReg above also rewrote sp (r14) from the frame; the
        // frame's sp field dictates the restored stack.
        cpu.setPc(new_pc);
        result.action = SyscallResult::Action::PcSet;
        return result;
      }

      case Syscall::DlOpen:
      case Syscall::DlClose: {
        // (moduleIndex=r0) -> index on success, -1 on a bad handle.
        // The simulated loader re-maps / unmaps a known SharedLib
        // module; its link-time range is the affected window.
        const auto &mods = cpu.program().modules();
        const uint64_t idx = cpu.reg(0);
        if (idx >= mods.size() ||
            mods[idx].kind != isa::ModuleKind::SharedLib) {
            result.retval = -1;
            break;
        }
        CodeEvent event;
        event.kind = static_cast<Syscall>(number) == Syscall::DlOpen
            ? CodeEventKind::ModuleLoad
            : CodeEventKind::ModuleUnload;
        event.cr3 = cpu.program().cr3();
        event.moduleIndex = static_cast<int32_t>(idx);
        event.base = mods[idx].codeBase;
        event.end = mods[idx].codeEnd;
        publishCodeEvent(event);
        result.retval = static_cast<int64_t>(idx);
        break;
      }

      case Syscall::JitMap: {
        // (len=r0) -> address of a fresh executable region.
        const uint64_t len = std::max<uint64_t>(cpu.reg(0), 1);
        const uint64_t size =
            (len + isa::layout::page - 1) & ~(isa::layout::page - 1);
        const uint64_t addr = _jitCursor;
        _jitCursor += size;
        CodeEvent event;
        event.kind = CodeEventKind::JitRegionMap;
        event.cr3 = cpu.program().cr3();
        event.base = addr;
        event.end = addr + size;
        publishCodeEvent(event);
        result.retval = static_cast<int64_t>(addr);
        break;
      }

      case Syscall::JitUnmap: {
        // (addr=r0, len=r1)
        const uint64_t addr = cpu.reg(0);
        const uint64_t len = std::max<uint64_t>(cpu.reg(1), 1);
        CodeEvent event;
        event.kind = CodeEventKind::JitRegionUnmap;
        event.cr3 = cpu.program().cr3();
        event.base = addr;
        event.end = addr +
            ((len + isa::layout::page - 1) & ~(isa::layout::page - 1));
        publishCodeEvent(event);
        result.retval = 0;
        break;
      }

      case Syscall::Gettimeofday:
        result.retval = static_cast<int64_t>(_timeNow++);
        break;

      case Syscall::Execve:
        // Refused in the sandbox; attacks still trigger the endpoint.
        result.retval = -1;
        break;

      case Syscall::Exit:
        result.action = SyscallResult::Action::Exit;
        result.retval = static_cast<int64_t>(cpu.reg(0));
        return result;

      default:
        result.retval = -38;    // -ENOSYS
        break;
    }
    return result;
}

} // namespace flowguard::cpu
