#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

namespace halk::lint {

namespace {

/// Splits into lines without the trailing newline; always at least one
/// (possibly empty) line so line indices stay aligned with the file.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(const std::string& path) { return EndsWith(path, ".h"); }

bool IsTensorArenaPath(const std::string& path) {
  return path.find("/tensor/") != std::string::npos ||
         path.rfind("tensor/", 0) == 0;
}

bool IsStorePath(const std::string& path) {
  return path.find("/store/") != std::string::npos ||
         path.rfind("store/", 0) == 0;
}

bool IsScanKernelPath(const std::string& path) {
  for (const char* file : {"core/scan_kernel.cc", "core/scan_kernel.h",
                           "core/scan_filter.cc", "core/scan_filter.h"}) {
    if (EndsWith(path, file)) return true;
  }
  return false;
}

/// True when the original line carries `halk_lint:allow <rule>`.
bool InlineAllowed(const std::string& original_line, const std::string& rule) {
  const std::string needle = "halk_lint:allow " + rule;
  return original_line.find(needle) != std::string::npos;
}

/// True when any of lines [first, last] (0-based, inclusive) carries an
/// `// order:` justification comment.
bool HasOrderComment(const std::vector<std::string>& original_lines,
                     int first, int last) {
  first = std::max(first, 0);
  for (int i = first; i <= last && i < static_cast<int>(original_lines.size());
       ++i) {
    const std::string& line = original_lines[i];
    const size_t pos = line.find("order:");
    if (pos == std::string::npos) continue;
    // Must live in a // comment on the same line.
    const size_t slashes = line.rfind("//", pos);
    if (slashes != std::string::npos) return true;
  }
  return false;
}

void Add(std::vector<Diagnostic>* out, const std::string& file, int line,
         const char* rule, std::string message) {
  out->push_back(Diagnostic{file, line, rule, std::move(message)});
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::ostringstream out;
  out << file;
  if (line > 0) out << ":" << line;
  out << ": [" << rule << "] " << message;
  return out.str();
}

std::string StripCommentsAndStrings(const std::string& text) {
  std::string out = text;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for )delim" matching
  size_t i = 0;
  const size_t n = text.size();
  auto blank = [&out](size_t at) {
    if (out[at] != '\n') out[at] = ' ';
  };
  while (i < n) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '"') {
          // Raw string literal: R"delim( ... )delim" — the prefix R must
          // not be part of a longer identifier (uR/u8R/LR are fine).
          size_t r = i;
          bool raw = false;
          if (r > 0 && text[r - 1] == 'R') {
            size_t before = r >= 2 ? r - 2 : std::string::npos;
            const bool ident_before =
                before != std::string::npos &&
                (std::isalnum(static_cast<unsigned char>(text[before])) != 0 ||
                 text[before] == '_');
            // Allow encoding prefixes u8R / uR / LR by skipping over them.
            raw = !ident_before || text[before] == 'u' ||
                  text[before] == 'L' || text[before] == '8';
          }
          if (raw) {
            raw_delim.clear();
            size_t j = i + 1;
            while (j < n && text[j] != '(') raw_delim += text[j++];
            state = State::kRawString;
            while (i <= j && i < n) blank(i++);
          } else {
            state = State::kString;
            blank(i);
            ++i;
          }
        } else if (c == '\'') {
          state = State::kChar;
          blank(i);
          ++i;
        } else {
          ++i;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          blank(i);
        }
        ++i;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          blank(i);
          blank(i + 1);
          i += 2;
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          blank(i);
          if (i + 1 < n) blank(i + 1);
          i += 2;
        } else if (c == '"') {
          blank(i);
          ++i;
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          blank(i);
          if (i + 1 < n) blank(i + 1);
          i += 2;
        } else if (c == '\'') {
          blank(i);
          ++i;
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kRawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (text.compare(i, closer.size(), closer) == 0) {
          for (size_t j = 0; j < closer.size(); ++j) blank(i + j);
          i += closer.size();
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      }
    }
  }
  return out;
}

FileResult LintFileContent(const std::string& path, const std::string& text,
                           const Options& options) {
  FileResult result;
  const std::string stripped = StripCommentsAndStrings(text);
  std::vector<std::string> lines = SplitLines(stripped);
  const std::vector<std::string> original = SplitLines(text);
  const bool is_header = IsHeaderPath(path);
  const bool is_status_h = EndsWith(path, "common/status.h");

  // --- no-using-namespace-header -----------------------------------------
  static const std::regex kUsingNamespaceRe(R"(\busing\s+namespace\b)");
  if (is_header) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!std::regex_search(lines[i], kUsingNamespaceRe)) continue;
      if (InlineAllowed(original[i], "no-using-namespace-header")) continue;
      Add(&result.diagnostics, path, static_cast<int>(i + 1),
          "no-using-namespace-header",
          "`using namespace` in a header leaks into every includer; "
          "qualify names or use a namespace alias");
    }
  }

  // --- no-raw-new-delete --------------------------------------------------
  // Raw new/delete is reserved for tensor arena code; everything else uses
  // containers and smart pointers. `= delete` declarations are not deletes.
  static const std::regex kRawNewRe(R"(\bnew\b\s*[\w:(<])");
  static const std::regex kRawDeleteRe(R"((^|[^=\s]\s*|[^=\s])\bdelete\b\s*(\[\s*\])?\s*[\w:*(])");
  if (!IsTensorArenaPath(path)) {
    for (size_t i = 0; i < lines.size(); ++i) {
      const bool has_new = std::regex_search(lines[i], kRawNewRe);
      bool has_delete = false;
      if (lines[i].find("delete") != std::string::npos) {
        // Reject `= delete` / `= delete;` forms, catch expression deletes.
        static const std::regex kDefaultedRe(R"(=\s*delete\s*;?)");
        std::string without = std::regex_replace(lines[i], kDefaultedRe, "");
        has_delete = std::regex_search(without, std::regex(R"(\bdelete\b)"));
      }
      if (!has_new && !has_delete) continue;
      if (InlineAllowed(original[i], "no-raw-new-delete")) continue;
      Add(&result.diagnostics, path, static_cast<int>(i + 1),
          "no-raw-new-delete",
          "raw new/delete outside tensor arena code; use std::make_unique, "
          "containers, or the arena");
    }
  }

  // --- no-std-mutex -------------------------------------------------------
  // std synchronization primitives carry no thread-safety annotations, so
  // clang's -Wthread-safety cannot check them; use halk::Mutex / MutexLock
  // / CondVar from common/mutex.h.
  static const std::regex kStdMutexRe(
      R"(\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable(_any)?|lock_guard|unique_lock|scoped_lock)\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i], kStdMutexRe)) continue;
    if (InlineAllowed(original[i], "no-std-mutex")) continue;
    Add(&result.diagnostics, path, static_cast<int>(i + 1), "no-std-mutex",
        "std synchronization primitive is invisible to -Wthread-safety; "
        "use halk::Mutex / MutexLock / CondVar (common/mutex.h)");
  }

  // --- mutex-guarded ------------------------------------------------------
  // Every mutex member must actually guard something: at least one sibling
  // declaration annotated HALK_GUARDED_BY / HALK_PT_GUARDED_BY naming it.
  static const std::regex kMutexMemberRe(
      R"(^\s*(mutable\s+)?(halk::)?(Mutex|std::mutex|std::shared_mutex)\s+(\w+)\s*;)");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kMutexMemberRe)) continue;
    if (lines[i].find("static") != std::string::npos) continue;
    const std::string name = m[4];
    const bool guarded =
        stripped.find("HALK_GUARDED_BY(" + name + ")") != std::string::npos ||
        stripped.find("HALK_PT_GUARDED_BY(" + name + ")") !=
            std::string::npos;
    if (guarded) continue;
    if (InlineAllowed(original[i], "mutex-guarded")) continue;
    Add(&result.diagnostics, path, static_cast<int>(i + 1), "mutex-guarded",
        "mutex member `" + name +
            "` has no sibling HALK_GUARDED_BY(" + name +
            ") field; annotate what it protects");
  }

  // --- memory-order-comment ----------------------------------------------
  // Explicit weak orderings are load-bearing; each use must carry (within
  // the preceding 10 lines) a `// order:` comment justifying why the
  // ordering is sufficient.
  static const std::regex kMemoryOrderRe(
      R"(\bmemory_order_(relaxed|acquire|release|acq_rel)\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i], kMemoryOrderRe)) continue;
    if (HasOrderComment(original, static_cast<int>(i) - 10,
                        static_cast<int>(i))) {
      continue;
    }
    if (InlineAllowed(original[i], "memory-order-comment")) continue;
    Add(&result.diagnostics, path, static_cast<int>(i + 1),
        "memory-order-comment",
        "explicit memory_order without an adjacent `// order:` "
        "justification comment");
  }

  // --- profile-scope-literal ----------------------------------------------
  // Profiler region names are interned by pointer + strcmp into a fixed
  // per-thread arena, so HALK_PROFILE_SCOPE must be given a string literal:
  // a dynamic name would mint a new arena node per distinct value and make
  // the collapsed flamegraph unreadable. The macro's own #define is exempt.
  static const std::regex kProfileScopeRe(R"(\bHALK_PROFILE_SCOPE\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kProfileScopeRe)) continue;
    // Skip the macro definition itself (and any #undef/#ifdef mentions).
    const size_t first_char = lines[i].find_first_not_of(" \t");
    if (first_char != std::string::npos && lines[i][first_char] == '#') {
      continue;
    }
    // Find the first non-whitespace character after the `(` in the
    // *original* text (the stripped text blanks quote characters),
    // continuing onto following lines for wrapped call sites.
    size_t li = i;
    size_t ci = static_cast<size_t>(m.position(0)) +
                static_cast<size_t>(m.length(0));
    bool literal = false;
    bool found = false;
    while (li < original.size() && !found) {
      const std::string& text_line = original[li];
      while (ci < text_line.size() &&
             std::isspace(static_cast<unsigned char>(text_line[ci])) != 0) {
        ++ci;
      }
      if (ci < text_line.size()) {
        literal = text_line[ci] == '"';
        found = true;
      } else {
        ++li;
        ci = 0;
      }
    }
    if (found && literal) continue;
    if (InlineAllowed(original[i], "profile-scope-literal")) continue;
    Add(&result.diagnostics, path, static_cast<int>(i + 1),
        "profile-scope-literal",
        "HALK_PROFILE_SCOPE argument must be a string literal; dynamic "
        "region names grow the profiler arena without bound");
  }

  // --- metric-name-convention ----------------------------------------------
  // Metric families share one namespace with every dashboard and alert
  // rule scraping /metrics; the convention is lowercase dotted
  // identifiers ("family.metric"), sanitized to underscores only at the
  // Prometheus boundary. Checking the literal at registry call sites
  // keeps a typo'd or CamelCase name from silently minting a new family.
  // Dynamic (non-literal) name arguments cannot be checked textually and
  // are skipped.
  static const std::regex kMetricCallRe(
      R"(\b(GetCounter|GetGauge|GetHistogram|CounterValue|GaugeValue|GaugeChildren)\s*\()");
  static const std::regex kMetricNameRe(
      R"(^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$)");
  for (size_t i = 0; i < lines.size(); ++i) {
    const auto begin = std::sregex_iterator(lines[i].begin(), lines[i].end(),
                                            kMetricCallRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      // Find the first non-whitespace character after the `(` in the
      // *original* text (the stripped text blanks literal contents),
      // continuing onto following lines for wrapped call sites.
      size_t li = i;
      size_t ci = static_cast<size_t>(it->position(0)) +
                  static_cast<size_t>(it->length(0));
      while (li < original.size() &&
             original[li].find_first_not_of(" \t", ci) == std::string::npos) {
        ++li;
        ci = 0;
      }
      if (li >= original.size()) continue;
      ci = original[li].find_first_not_of(" \t", ci);
      if (original[li][ci] != '"') continue;  // dynamic name: unchecked
      const size_t close = original[li].find('"', ci + 1);
      if (close == std::string::npos) continue;
      const std::string name = original[li].substr(ci + 1, close - ci - 1);
      if (std::regex_match(name, kMetricNameRe)) continue;
      if (InlineAllowed(original[i], "metric-name-convention")) continue;
      Add(&result.diagnostics, path, static_cast<int>(i + 1),
          "metric-name-convention",
          "metric name `" + name +
              "` is not a lowercase dotted identifier "
              "(`^[a-z][a-z0-9_]*(\\.[a-z0-9_]+)*$`); nonconforming names "
              "mint surprise Prometheus families");
    }
  }

  // --- store-fixed-width-int ----------------------------------------------
  // The store's on-disk layout (store/format.h) is defined by the exact
  // byte width of every integer field, and its public API traffics in the
  // same quantities. Bare `int` / `long` / `short` / `unsigned` / `signed`
  // in a store header would make a format- or API-visible width depend on
  // the ABI; require the <cstdint> fixed-width types (or size_t for
  // in-memory byte counts).
  static const std::regex kBareIntRe(
      R"(\b(?:unsigned|signed|short)\b|\blong\b|\bint\b)");
  if (is_header && IsStorePath(path)) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!std::regex_search(lines[i], kBareIntRe)) continue;
      if (InlineAllowed(original[i], "store-fixed-width-int")) continue;
      Add(&result.diagnostics, path, static_cast<int>(i + 1),
          "store-fixed-width-int",
          "bare integer type in a store header; the on-disk format and "
          "store API are width-exact — use a <cstdint> fixed-width type");
    }
  }

  // --- scan-kernel-no-libm -------------------------------------------------
  // Every ranking path runs the one scan kernel (core/scan_kernel.h), which
  // evaluates its half-angles by a fixed polynomial so that its portable
  // and AVX2 builds are bitwise equal and no libm call sits in the hot
  // loop. libm trigonometry in the kernel TU or in the store's scan would
  // reintroduce a second, differently rounded copy of the distance. The
  // two-stage scan's filter (core/scan_filter.*) bounds that distance from
  // the kernel's own arc constants and codes with no libm at all.
  static const std::regex kLibmTrigRe(
      R"((^|[^A-Za-z0-9_])(__builtin_)?(sin|cos|sinf|cosf|sincos|sincosf)\s*\()");
  if (IsStorePath(path) || IsScanKernelPath(path)) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!std::regex_search(lines[i], kLibmTrigRe)) continue;
      if (InlineAllowed(original[i], "scan-kernel-no-libm")) continue;
      Add(&result.diagnostics, path, static_cast<int>(i + 1),
          "scan-kernel-no-libm",
          "libm trigonometry in the scan kernel or the store; rank through "
          "core::ScanKernel (per-query arc constants come from "
          "MakeArcConstants)");
    }
  }

  // --- nodiscard-status ---------------------------------------------------
  if (is_status_h) {
    // The sweep's root: Status and Result themselves are [[nodiscard]] at
    // class level, which makes every function returning them checked by
    // the compiler even without per-declaration attributes.
    for (const char* cls : {"Status", "Result"}) {
      const std::string decl = std::string("class [[nodiscard]] ") + cls;
      if (stripped.find(decl) != std::string::npos) continue;
      Add(&result.diagnostics, path, 0, "nodiscard-status",
          std::string("class `") + cls +
              "` in common/status.h must be declared class-level "
              "[[nodiscard]]");
    }
  } else if (is_header) {
    // Fallible API surface: declarations returning Status / Result<T> in
    // headers carry [[nodiscard]] explicitly so the contract reads at the
    // declaration (the class-level attribute enforces it regardless).
    static const std::regex kFallibleDeclRe(
        R"(^(\s*)((virtual\s+|static\s+|inline\s+|friend\s+)*)((halk::)?(Status|Result<.+>))\s+(\w+)\s*\()");
    std::string rebuilt;
    bool changed = false;
    for (size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      bool fixed_this_line = false;
      if (std::regex_search(lines[i], m, kFallibleDeclRe) &&
          lines[i].find("[[nodiscard]]") == std::string::npos &&
          original[i].find("[[nodiscard]]") == std::string::npos &&
          (i == 0 ||
           original[i - 1].find("[[nodiscard]]") == std::string::npos)) {
        if (!InlineAllowed(original[i], "nodiscard-status")) {
          if (options.fix) {
            fixed_this_line = true;
            changed = true;
          }
          Add(&result.diagnostics, path, static_cast<int>(i + 1),
              "nodiscard-status",
              std::string(options.fix ? "[fixed] " : "") +
                  "declaration returning " + m[4].str() +
                  " must be [[nodiscard]]");
        }
      }
      if (options.fix) {
        if (fixed_this_line) {
          const std::string indent = m[1];
          rebuilt += indent + "[[nodiscard]] " +
                     original[i].substr(indent.size());
        } else {
          rebuilt += original[i];
        }
        if (i + 1 < original.size() || EndsWith(text, "\n")) rebuilt += "\n";
      }
    }
    if (options.fix && changed) {
      result.fixed_text = rebuilt;
      result.changed = true;
    }
  }

  return result;
}

std::vector<Diagnostic> LintGitignore(const std::string& gitignore_path,
                                      const std::string& text, bool exists) {
  std::vector<Diagnostic> out;
  if (!exists) {
    Add(&out, gitignore_path, 0, "gitignore-hygiene",
        "repository has no .gitignore; build trees and bench artifacts "
        "would be committable");
    return out;
  }
  const std::vector<std::string> lines = SplitLines(text);
  auto has_pattern = [&lines](std::initializer_list<const char*> any_of) {
    for (const std::string& raw : lines) {
      std::string line = raw;
      while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                  line.back())) != 0) {
        line.pop_back();
      }
      for (const char* candidate : any_of) {
        if (line == candidate) return true;
      }
    }
    return false;
  };
  struct Required {
    std::initializer_list<const char*> alternatives;
    const char* what;
  };
  const Required required[] = {
      {{"build/", "build*/"}, "the default build tree (build/)"},
      {{"build-*/", "build*/"},
       "suffixed build trees (build-*/, e.g. build-tsan/)"},
      {{"BENCH_*.json"}, "bench result artifacts (BENCH_*.json)"},
      {{"artifacts/"}, "the CI artifacts directory (artifacts/)"},
  };
  for (const Required& r : required) {
    if (has_pattern(r.alternatives)) continue;
    Add(&out, gitignore_path, 0, "gitignore-hygiene",
        std::string(".gitignore must ignore ") + r.what);
  }
  return out;
}

std::vector<AllowEntry> ParseAllowlist(const std::string& text,
                                       const std::string& path,
                                       std::vector<Diagnostic>* diagnostics) {
  std::vector<AllowEntry> entries;
  const std::vector<std::string> lines = SplitLines(text);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;  // full-line comment
    AllowEntry entry;
    entry.line = static_cast<int>(i + 1);
    const size_t hash = line.find('#');
    entry.has_justification =
        hash != std::string::npos &&
        line.find_first_not_of(" \t", hash + 1) != std::string::npos;
    std::istringstream fields(line.substr(0, hash));
    fields >> entry.rule >> entry.path_substring;
    if (entry.rule.empty() || entry.path_substring.empty()) {
      Add(diagnostics, path, entry.line, "allowlist-syntax",
          "allowlist entries are `<rule> <path-substring>  # justification`");
      continue;
    }
    if (!entry.has_justification) {
      Add(diagnostics, path, entry.line, "allowlist-justification",
          "allowlist entry for rule `" + entry.rule +
              "` carries no `# justification` comment");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

bool Allowed(const std::vector<AllowEntry>& entries, const std::string& rule,
             const std::string& path) {
  for (const AllowEntry& entry : entries) {
    if (entry.rule != rule && entry.rule != "*") continue;
    if (path.find(entry.path_substring) != std::string::npos) return true;
  }
  return false;
}

}  // namespace halk::lint
