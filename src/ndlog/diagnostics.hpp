// Located diagnostics for NDlog static analysis. A Diagnostic carries a
// stable code ("ND0002"), a severity, a message, a 1-based source span, and
// an optional fix-it hint; a DiagnosticSink collects *all* findings instead
// of aborting at the first one (the throwing analyze()/check_* wrappers sit
// on top of it). Renderers produce the gcc-style `file:line:col:` human
// format and a machine-readable JSON document for `fvn_cli lint --json`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fvn::ndlog {

enum class Severity : std::uint8_t { Note, Warning, Error };

std::string_view to_string(Severity severity) noexcept;

/// 1-based source position; line 0 means "unknown" (rules built
/// programmatically, e.g. by the localizer, carry no position).
struct SourceLoc {
  int line = 0;
  int column = 0;

  bool valid() const noexcept { return line > 0; }
};

/// Half-open span [begin, end); `end` may be invalid when only a point
/// position is known.
struct SourceSpan {
  SourceLoc begin;
  SourceLoc end;

  bool valid() const noexcept { return begin.valid(); }
  static SourceSpan at(SourceLoc loc) noexcept { return SourceSpan{loc, {}}; }
  /// Span covering `length` characters starting at `loc`.
  static SourceSpan token(SourceLoc loc, std::size_t length) noexcept {
    return SourceSpan{loc, SourceLoc{loc.line, loc.column + static_cast<int>(length)}};
  }
};

/// One lint/analysis finding.
struct Diagnostic {
  Severity severity = Severity::Error;
  std::string code;     // stable identifier, e.g. "ND0003"
  std::string message;
  SourceSpan span;
  std::string hint;     // optional fix-it hint; empty = none
  /// Originating rule index into Program::rules; -1 when the finding is not
  /// anchored to a rule (parse errors, materialize declarations).
  int rule_index = -1;
  /// Predicate the finding is about (head predicate for rule-level findings,
  /// the declared/read predicate otherwise); empty when not applicable.
  std::string predicate;

  /// Attach rule/predicate provenance; returns *this for chaining.
  Diagnostic& in_rule(int index, std::string pred) {
    rule_index = index;
    predicate = std::move(pred);
    return *this;
  }

  /// "3:7: error: ND0003: message" (location omitted when unknown).
  std::string to_string() const;
};

/// Collects every diagnostic of an analysis run. Passes report through the
/// sink and keep going, so one run surfaces all findings at once.
class DiagnosticSink {
 public:
  /// Append a diagnostic; returns a reference so callers can attach a hint.
  Diagnostic& report(Diagnostic d);
  Diagnostic& error(std::string code, std::string message, SourceSpan span = {});
  Diagnostic& warning(std::string code, std::string message, SourceSpan span = {});
  Diagnostic& note(std::string code, std::string message, SourceSpan span = {});

  const std::vector<Diagnostic>& diagnostics() const noexcept { return diags_; }
  bool empty() const noexcept { return diags_.empty(); }
  std::size_t size() const noexcept { return diags_.size(); }
  std::size_t count(Severity severity) const noexcept;
  bool has_errors() const noexcept { return count(Severity::Error) != 0; }
  /// First error-severity diagnostic in report order, or nullptr.
  const Diagnostic* first_error() const noexcept;
  /// Stable-sort by (line, column); diagnostics without a location sort last.
  void sort_by_location();
  void clear() { diags_.clear(); }

 private:
  std::vector<Diagnostic> diags_;
};

/// Render in the `file:line:col: severity: code: message` format, one line
/// per diagnostic (plus an indented `hint:` line when present). The file
/// prefix is omitted when `filename` is empty.
std::string render_human(const std::vector<Diagnostic>& diags,
                         std::string_view filename = {});

/// Render a JSON array of diagnostic objects:
///   [{"severity":"error","code":"ND0003","message":"...","line":3,
///     "column":7,"end_line":3,"end_column":11,"rule_index":2,
///     "predicate":"path","hint":"..."}, ...]
/// line/column are 0 when unknown; rule_index is -1 and predicate "" when the
/// finding is not anchored to a rule; "hint" is present only when non-empty.
std::string render_json(const std::vector<Diagnostic>& diags);

}  // namespace fvn::ndlog
