#include "runtime/report.hh"

namespace flowguard::runtime {

const char *
violationKindName(ViolationReport::Kind kind)
{
    switch (kind) {
      case ViolationReport::Kind::CfiViolation: return "cfi-violation";
      case ViolationReport::Kind::TraceLoss: return "trace-loss";
      case ViolationReport::Kind::CheckTimeout: return "check-timeout";
      case ViolationReport::Kind::AttachFailure:
        return "attach-failure";
      case ViolationReport::Kind::Quarantined: return "quarantined";
      case ViolationReport::Kind::UnknownCode: return "unknown-code";
      case ViolationReport::Kind::ProtectionGap:
        return "protection-gap";
    }
    return "?";
}

} // namespace flowguard::runtime
