#include "ndlog/diagnostics.hpp"

#include <algorithm>
#include <sstream>

#include "obs/json.hpp"

namespace fvn::ndlog {

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "error";
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  if (span.valid()) os << span.begin.line << ":" << span.begin.column << ": ";
  os << ndlog::to_string(severity) << ": " << code << ": " << message;
  return os.str();
}

Diagnostic& DiagnosticSink::report(Diagnostic d) {
  diags_.push_back(std::move(d));
  return diags_.back();
}

Diagnostic& DiagnosticSink::error(std::string code, std::string message, SourceSpan span) {
  return report({Severity::Error, std::move(code), std::move(message), span, {}, -1, {}});
}

Diagnostic& DiagnosticSink::warning(std::string code, std::string message, SourceSpan span) {
  return report({Severity::Warning, std::move(code), std::move(message), span, {}, -1, {}});
}

Diagnostic& DiagnosticSink::note(std::string code, std::string message, SourceSpan span) {
  return report({Severity::Note, std::move(code), std::move(message), span, {}, -1, {}});
}

std::size_t DiagnosticSink::count(Severity severity) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [&](const Diagnostic& d) { return d.severity == severity; }));
}

const Diagnostic* DiagnosticSink::first_error() const noexcept {
  for (const auto& d : diags_) {
    if (d.severity == Severity::Error) return &d;
  }
  return nullptr;
}

void DiagnosticSink::sort_by_location() {
  std::stable_sort(diags_.begin(), diags_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     // Unknown locations (line 0) sort after located ones.
                     const bool av = a.span.valid(), bv = b.span.valid();
                     if (av != bv) return av;
                     return std::make_pair(a.span.begin.line, a.span.begin.column) <
                            std::make_pair(b.span.begin.line, b.span.begin.column);
                   });
}

std::string render_human(const std::vector<Diagnostic>& diags, std::string_view filename) {
  std::ostringstream os;
  for (const auto& d : diags) {
    if (!filename.empty()) os << filename << ":";
    os << d.to_string() << "\n";
    if (!d.hint.empty()) os << "    hint: " << d.hint << "\n";
  }
  return os.str();
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const auto& d = diags[i];
    if (i != 0) os << ",";
    os << "{\"severity\":\"" << to_string(d.severity) << "\""
       << ",\"code\":\"" << obs::json_escape(d.code) << "\""
       << ",\"message\":\"" << obs::json_escape(d.message) << "\""
       << ",\"line\":" << d.span.begin.line << ",\"column\":" << d.span.begin.column
       << ",\"end_line\":" << d.span.end.line << ",\"end_column\":" << d.span.end.column
       << ",\"rule_index\":" << d.rule_index
       << ",\"predicate\":\"" << obs::json_escape(d.predicate) << "\"";
    if (!d.hint.empty()) os << ",\"hint\":\"" << obs::json_escape(d.hint) << "\"";
    os << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace fvn::ndlog
