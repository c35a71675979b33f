#include "support/diagnostics.h"

namespace mira {

const char *toString(DiagSeverity severity) {
  switch (severity) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "unknown";
}

std::string Diagnostic::str() const {
  std::string out;
  if (location.isValid()) {
    out += location.str();
    out += ": ";
  }
  out += toString(severity);
  out += ": ";
  out += message;
  return out;
}

void DiagnosticEngine::report(DiagSeverity severity, SourceLocation loc,
                              std::string message) {
  if (severity == DiagSeverity::Error)
    ++error_count_;
  else if (severity == DiagSeverity::Warning)
    ++warning_count_;
  diagnostics_.push_back(Diagnostic{severity, loc, std::move(message)});
}

bool DiagnosticEngine::containsMessage(const std::string &substring) const {
  for (const Diagnostic &d : diagnostics_)
    if (d.message.find(substring) != std::string::npos)
      return true;
  return false;
}

std::string DiagnosticEngine::str() const {
  std::string out;
  for (const Diagnostic &d : diagnostics_) {
    out += d.str();
    out += '\n';
  }
  return out;
}

void DiagnosticEngine::clear() {
  diagnostics_.clear();
  error_count_ = 0;
  warning_count_ = 0;
}

} // namespace mira
