#include "runtime/fast_path.hh"

namespace flowguard::runtime {

FastPathChecker::FastPathChecker(const analysis::ItcCfg &itc,
                                 const isa::Program &program,
                                 FastPathConfig config,
                                 cpu::CycleAccount *account,
                                 const analysis::PathIndex *paths)
    : _itc(itc), _program(program), _config(config), _account(account),
      _paths(paths)
{}

FastPathResult
FastPathChecker::check(std::span<const uint8_t> packets) const
{
    telemetry::ScopedSpan span(_telemetry,
                               telemetry::SpanKind::FastCheck,
                               _telemetryCr3);
    decode::FastDecodeResult &flow = _scratch.flow;
    decode::decodeRecentTipsInto(flow, packets, _config.pktCount,
                                 _account, _telemetry, _telemetryCr3);
    decode::extractTransitionViews(flow, _scratch.transitions);
    FastPathResult result = checkWindow(_scratch.transitions);
    result.overflows = flow.overflows;
    result.resyncs = flow.resyncs;
    result.bytesSkipped = flow.bytesSkipped;
    result.malformed = flow.malformed;
    span.setVerdict(static_cast<uint8_t>(result.verdict));
    if (result.verdict == CheckVerdict::Violation)
        span.setPayload(result.violatingFrom, result.violatingTo);
    return result;
}

FastPathResult
FastPathChecker::checkTransitions(
    const std::vector<decode::TipTransition> &all) const
{
    auto &views = _scratch.transitions;
    views.clear();
    for (const auto &transition : all)
        views.push_back({transition.from, transition.to, transition.tnt});
    return checkWindow(views);
}

FastPathResult
FastPathChecker::checkWindow(
    std::span<const decode::TransitionView> all) const
{
    FastPathResult result;

    // --- select the window: walk backwards until pkt_count TIPs are
    // covered, the window strides >= 2 modules, and the executable is
    // represented (when enough history exists to satisfy that). Only
    // "two distinct modules seen" matters, so the first module seen
    // is enough state (-1, outside every module, counts as one).
    size_t begin = all.size();
    int first_module = 0;
    bool any_module = false;
    bool two_modules = false;
    bool exec_seen = false;
    size_t tips = 0;
    while (begin > 0) {
        const bool quota =
            tips >= _config.pktCount &&
            (!_config.requireModuleStride ||
             (two_modules && exec_seen));
        if (quota)
            break;
        --begin;
        ++tips;
        const int module = _program.moduleIndexAt(all[begin].to);
        if (!any_module) {
            first_module = module;
            any_module = true;
        } else if (module != first_module) {
            two_modules = true;
        }
        if (module >= 0 &&
            _program.modules()[static_cast<size_t>(module)].kind ==
                isa::ModuleKind::Executable)
            exec_seen = true;
    }

    // --- match each transition against the ITC-CFG -----------------------
    // The decode window opens at a PSB that can fall between two TIPs,
    // truncating the conditional-outcome run of the first edge; its
    // TNT information is therefore unusable (the edge itself is still
    // checked).
    //
    // With a module map attached, endpoints are classified first:
    // stale ranges convict outright, JIT/unknown code resolves by the
    // JitPolicy, and only live-module pairs reach edge matching.
    enum class Resolution : uint8_t { Check, Waive, Violate };
    auto resolveDynamic = [&](const decode::TransitionView &transition,
                              FastPathResult &res) {
        if (!_map)
            return Resolution::Check;
        const auto to_class = _map->classify(transition.to).cls;
        auto from_class = dynamic::AddrClass::LiveModule;
        if (transition.from != 0)
            from_class = _map->classify(transition.from).cls;
        if (to_class == dynamic::AddrClass::StaleModule ||
            from_class == dynamic::AddrClass::StaleModule) {
            res.staleHit = true;
            return Resolution::Violate;
        }
        const bool jit = to_class == dynamic::AddrClass::JitRegion ||
                         from_class == dynamic::AddrClass::JitRegion;
        if (jit) {
            switch (_jitPolicy) {
              case dynamic::JitPolicy::Deny:
                return Resolution::Violate;
              case dynamic::JitPolicy::AuditOnly:
                ++res.unknownTips;
                return Resolution::Waive;
              case dynamic::JitPolicy::Allowlist:
                ++res.jitTips;
                res.forceSlow = true;
                return Resolution::Waive;
            }
        }
        const bool unknown =
            to_class == dynamic::AddrClass::Unknown ||
            from_class == dynamic::AddrClass::Unknown;
        if (unknown && _jitPolicy == dynamic::JitPolicy::AuditOnly) {
            ++res.unknownTips;
            return Resolution::Waive;
        }
        // Unknown under Deny/Allowlist falls through: findNode /
        // findEdge will miss and convict, the static behavior.
        return Resolution::Check;
    };

    const size_t tnt_valid_from = 2;
    for (size_t i = begin; i < all.size(); ++i) {
        const auto &transition = all[i];
        ++result.tipsChecked;
        if (_account)
            _account->check += cpu::cost::check_per_edge;

        switch (resolveDynamic(transition, result)) {
          case Resolution::Waive:
            continue;
          case Resolution::Violate:
            result.verdict = CheckVerdict::Violation;
            result.violatingFrom = transition.from;
            result.violatingTo = transition.to;
            return result;
          case Resolution::Check:
            break;
        }

        if (transition.from == 0) {
            // Window head: only the target can be validated.
            if (_itc.findNode(transition.to) < 0) {
                result.verdict = CheckVerdict::Violation;
                result.violatingTo = transition.to;
                return result;
            }
            continue;
        }

        const int64_t edge =
            _itc.findEdge(transition.from, transition.to);
        if (edge < 0 || !_itc.edgeLive(edge)) {
            result.verdict = CheckVerdict::Violation;
            result.violatingFrom = transition.from;
            result.violatingTo = transition.to;
            return result;
        }
        ++result.edgesChecked;

        bool credible = _itc.highCredit(edge);
        if (credible && i >= tnt_valid_from &&
            !_itc.tntCompatible(edge, transition.tnt)) {
            credible = false;
            ++result.tntMismatches;
        }
        if (credible)
            ++result.highCreditEdges;
    }

    // Context-sensitive mode: the window must also be made of
    // trained TIP n-grams (path matching, §7.1.2). Mimicry chains of
    // individually high-credit edges in a novel order fail here and
    // defer to the slow path.
    if (_paths) {
        std::vector<uint64_t> &targets = _scratch.targets;
        targets.clear();
        for (size_t i = begin; i < all.size(); ++i)
            targets.push_back(all[i].to);
        if (_account)
            _account->check += cpu::cost::check_per_edge *
                               static_cast<double>(targets.size());
        if (!_paths->covers(targets))
            ++result.pathMisses;
    }

    result.verdict =
        result.observedCredRatio() >= _config.credRatio &&
                result.pathMisses == 0 && !result.forceSlow
            ? CheckVerdict::Pass
            : CheckVerdict::Suspicious;
    return result;
}

} // namespace flowguard::runtime
