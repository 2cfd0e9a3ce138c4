#include "util/doc_sections.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace balbench::util {

namespace {

constexpr std::size_t npos = std::string::npos;

/// Where section `name` sits in `doc`: [begin, end), the end past the
/// END line's newline; begin is npos when the document lacks it.
struct Span {
  std::size_t begin = npos;
  std::size_t end = npos;
};

Span locate(std::string_view doc, const std::string& name) {
  const std::string begin_prefix = "<!-- BEGIN " + name + " ";
  const std::string end_line = "<!-- END " + name + " -->";
  Span s;
  for (std::size_t pos = 0; pos < doc.size();) {
    const std::size_t eol = std::min(doc.find('\n', pos), doc.size());
    const std::string_view line = doc.substr(pos, eol - pos);
    if (line.substr(0, begin_prefix.size()) == begin_prefix) {
      if (s.begin != npos) {
        throw std::runtime_error("section " + name + " appears twice");
      }
      s.begin = pos;
    } else if (s.begin != npos && s.end == npos && line == end_line) {
      s.end = std::min(eol + 1, doc.size());
    }
    pos = eol + 1;
  }
  if (s.begin != npos && s.end == npos) {
    throw std::runtime_error("section " + name + " has no '" + end_line +
                             "' line after its BEGIN line");
  }
  return s;
}

std::size_t line_number(std::string_view doc, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(doc.begin(), doc.begin() + pos, '\n'));
}

}  // namespace

std::string splice_sections(const std::string& doc,
                            const std::vector<DocSection>& sections) {
  std::string out = doc;
  for (const DocSection& s : sections) {
    const Span span = locate(out, s.name);
    if (s.text.empty()) {
      if (span.begin == npos) continue;
      // Drop the section and the blank line that set it off.
      std::size_t begin = span.begin, end = span.end;
      if (begin >= 2 && out.compare(begin - 2, 2, "\n\n") == 0) {
        --begin;
      } else if (end < out.size() && out[end] == '\n') {
        ++end;
      }
      out.erase(begin, end - begin);
      continue;
    }
    const Span own = locate(s.text, s.name);
    if (own.begin != 0 || own.end != s.text.size() || s.text.back() != '\n') {
      throw std::invalid_argument("text of section " + s.name +
                                  " is not one whole section");
    }
    if (span.begin != npos) {
      out.replace(span.begin, span.end - span.begin, s.text);
    } else {
      if (!out.empty()) out += out.back() == '\n' ? "\n" : "\n\n";
      out += s.text;
    }
  }
  return out;
}

std::string check_sections(const std::string& doc,
                           const std::vector<DocSection>& sections) {
  std::size_t prev_end = 0;
  const std::string* prev = nullptr;
  for (const DocSection& s : sections) {
    Span span;
    try {
      span = locate(doc, s.name);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    if (s.text.empty()) {
      if (span.begin == npos) continue;
      return "section " + s.name + " is no longer generated";
    }
    if (span.begin == npos) return "section " + s.name + " is missing";
    if (span.begin < prev_end) {
      return "section " + s.name + " is out of order: it must come after " +
             "section " + *prev;
    }
    const std::string_view have =
        std::string_view(doc).substr(span.begin, span.end - span.begin);
    if (have != s.text) {
      // First differing line; the spans start on the same (BEGIN) line.
      std::size_t a = 0, b = 0;
      for (;;) {
        const std::size_t ea = std::min(have.find('\n', a), have.size());
        const std::size_t eb = std::min(s.text.find('\n', b), s.text.size());
        const std::string_view la = have.substr(a, ea - a);
        const std::string_view lb = std::string_view(s.text).substr(b, eb - b);
        if (la != lb || ea == have.size() || eb == s.text.size()) {
          return "section " + s.name + " differs at line " +
                 std::to_string(line_number(doc, span.begin + a)) +
                 ":\n  document:  " + std::string(la) +
                 "\n  generated: " + std::string(lb);
        }
        a = ea + 1;
        b = eb + 1;
      }
    }
    prev_end = span.end;
    prev = &s.name;
  }
  return {};
}

}  // namespace balbench::util
