#include "runtime/slow_path.hh"

#include "decode/fast_decoder.hh"
#include "decode/full_decoder.hh"

namespace flowguard::runtime {

using cpu::BranchKind;

SlowPathChecker::SlowPathChecker(const analysis::Cfg &ocfg,
                                 const analysis::TypeArmorInfo &typearmor,
                                 cpu::CycleAccount *account)
    : _ocfg(ocfg), _ta(typearmor), _account(account)
{}

bool
SlowPathChecker::returnAllowedByCfg(uint64_t source,
                                    uint64_t target) const
{
    auto from = _ocfg.blockContaining(source);
    auto to = _ocfg.blockAt(target);
    if (!from || !to)
        return false;
    for (uint32_t e : _ocfg.outEdges(*from)) {
        const analysis::Edge &edge = _ocfg.edges()[e];
        if (edge.to == *to && edge.kind == analysis::EdgeKind::Return)
            return true;
    }
    return false;
}

bool
SlowPathChecker::indirectJumpAllowed(uint64_t source,
                                     uint64_t target) const
{
    auto from = _ocfg.blockContaining(source);
    auto to = _ocfg.blockAt(target);
    if (!from || !to)
        return false;
    for (uint32_t e : _ocfg.outEdges(*from)) {
        const analysis::Edge &edge = _ocfg.edges()[e];
        if (edge.to == *to &&
            edge.kind == analysis::EdgeKind::IndirectJump)
            return true;
    }
    return false;
}

bool
SlowPathChecker::indirectCallAllowed(uint64_t source,
                                     uint64_t target) const
{
    const isa::Program &program = _ocfg.program();
    const isa::LoadedFunction *callee = program.functionAt(target);
    if (!callee || callee->entry != target)
        return false;   // calls may only land on function entries
    const size_t index = static_cast<size_t>(
        callee - program.functions().data());
    if (!_ta.addressTaken[index])
        return false;
    uint8_t prepared = 6;
    if (auto it = _ta.preparedCount.find(source);
        it != _ta.preparedCount.end())
        prepared = it->second;
    return analysis::TypeArmorInfo::callAllowed(
        prepared, _ta.consumedCount[index]);
}

SlowPathResult
SlowPathChecker::check(std::span<const uint8_t> packets) const
{
    telemetry::ScopedSpan span(_telemetry,
                               telemetry::SpanKind::SlowCheck,
                               _telemetryCr3);
    SlowPathResult result = checkImpl(packets);
    span.setVerdict(static_cast<uint8_t>(result.verdict));
    if (result.verdict == CheckVerdict::Violation)
        span.setPayload(result.violatingSource, result.violatingTarget);
    return result;
}

SlowPathResult
SlowPathChecker::checkImpl(std::span<const uint8_t> packets) const
{
    SlowPathResult result;
    // Anchor the expensive instruction-flow decode at the most recent
    // PSB whose suffix still covers ~100 TIP packets (the paper's
    // §7.2.2 context-sensitive analysis window), instead of paying
    // for the entire ToPA buffer.
    constexpr size_t slow_window_tips = 100;
    auto window =
        decode::decodeRecentTips(packets, slow_window_tips, nullptr,
                                 _telemetry, _telemetryCr3);

    // --- dynamic-code pre-scan ------------------------------------------
    // Classify the window's TIP endpoints before committing to the
    // full decode: stale ranges convict precisely, and JIT-touching
    // windows cannot be instruction-walked (no image of JIT code), so
    // they fall back to a packet-level ITC membership check.
    if (_map) {
        const auto transitions = decode::extractTipTransitions(window);
        bool jit_seen = false;
        for (const auto &transition : transitions) {
            const auto to_class = _map->classify(transition.to).cls;
            auto from_class = dynamic::AddrClass::LiveModule;
            if (transition.from != 0)
                from_class = _map->classify(transition.from).cls;
            if (to_class == dynamic::AddrClass::StaleModule ||
                from_class == dynamic::AddrClass::StaleModule) {
                result.verdict = CheckVerdict::Violation;
                result.violatingSource = transition.from;
                result.violatingTarget = transition.to;
                result.staleHit = true;
                result.reason =
                    "transition into unloaded module's stale range";
                return result;
            }
            if (to_class == dynamic::AddrClass::JitRegion ||
                from_class == dynamic::AddrClass::JitRegion) {
                if (_jitPolicy == dynamic::JitPolicy::Deny) {
                    result.verdict = CheckVerdict::Violation;
                    result.violatingSource = transition.from;
                    result.violatingTarget = transition.to;
                    result.reason = "JIT code under JitPolicy::Deny";
                    return result;
                }
                jit_seen = true;
            }
        }
        if (jit_seen && _itc) {
            result.degraded = true;
            for (const auto &transition : transitions) {
                if (transition.from == 0)
                    continue;
                const bool waived =
                    _map->classify(transition.to).cls !=
                        dynamic::AddrClass::LiveModule ||
                    _map->classify(transition.from).cls !=
                        dynamic::AddrClass::LiveModule;
                if (waived)
                    continue;
                ++result.branchesChecked;
                if (_account)
                    _account->check += cpu::cost::check_per_edge;
                const int64_t edge =
                    _itc->findEdge(transition.from, transition.to);
                if (edge < 0 || !_itc->edgeLive(edge)) {
                    result.verdict = CheckVerdict::Violation;
                    result.violatingSource = transition.from;
                    result.violatingTarget = transition.to;
                    result.reason =
                        "jit window: packet-level edge missing";
                    return result;
                }
            }
            result.reason = "jit window: packet-level check";
            return result;
        }
    }

    // The walk reads the window decoded above; no byte is parsed twice.
    auto flow = decode::decodeInstructionFlow(
        _ocfg.program(), window, _account, _telemetry, _telemetryCr3);
    result.instructionsWalked = flow.instructionsWalked;

    using Status = decode::FullDecodeResult::Status;
    if (flow.status == Status::Desync || flow.status == Status::BadFlow) {
        // The packets cannot be reconciled with the binaries at all:
        // the flow left the program's legitimate instruction stream.
        result.verdict = CheckVerdict::Violation;
        result.reason = "decode failed: " + flow.error;
        return result;
    }
    if (flow.status == Status::NoSync) {
        // Nothing decodable in the window; no evidence either way.
        result.verdict = CheckVerdict::Pass;
        result.reason = "no sync point in window";
        return result;
    }

    std::vector<uint64_t> shadow;   // return addresses
    auto fail = [&](uint64_t src, uint64_t dst, const char *why) {
        result.verdict = CheckVerdict::Violation;
        result.violatingSource = src;
        result.violatingTarget = dst;
        result.reason = why;
    };

    size_t next_gap = 0;
    for (size_t bi = 0; bi < flow.branches.size(); ++bi) {
        const auto &branch = flow.branches[bi];
        // A trace gap before this branch severs its window from the
        // one already checked: call/return pairings do not survive it.
        while (next_gap < flow.lossBranchIndices.size() &&
               flow.lossBranchIndices[next_gap] <= bi) {
            shadow.clear();
            ++next_gap;
        }
        ++result.branchesChecked;
        if (_account)
            _account->check += cpu::cost::slow_check_per_branch;
        switch (branch.kind) {
          case BranchKind::DirectCall:
          case BranchKind::IndirectCall: {
            const uint64_t ret_addr =
                _ocfg.program().nextAddr(branch.source);
            shadow.push_back(ret_addr);
            if (branch.kind == BranchKind::IndirectCall &&
                !indirectCallAllowed(branch.source, branch.target)) {
                fail(branch.source, branch.target,
                     "forward-edge violation (TypeArmor)");
                return result;
            }
            break;
          }
          case BranchKind::Return: {
            if (!shadow.empty()) {
                const uint64_t expected = shadow.back();
                shadow.pop_back();
                if (branch.target != expected) {
                    fail(branch.source, branch.target,
                         "shadow-stack violation");
                    return result;
                }
            } else if (!returnAllowedByCfg(branch.source,
                                           branch.target)) {
                // Underflow: the matching call predates the window;
                // fall back to conservative call/return matching.
                fail(branch.source, branch.target,
                     "return outside call/return matching");
                return result;
            }
            break;
          }
          case BranchKind::IndirectJump:
            if (!indirectJumpAllowed(branch.source, branch.target)) {
                fail(branch.source, branch.target,
                     "indirect jump outside O-CFG");
                return result;
            }
            break;
          default:
            break;
        }
    }
    return result;
}

} // namespace flowguard::runtime
