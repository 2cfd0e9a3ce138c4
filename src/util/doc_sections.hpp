// Generated sections of a hand-written markdown document.
//
// A generated section runs from a line that starts with
// "<!-- BEGIN <NAME> " (the rest of that line is free, e.g. "-->" or a
// stamp ending in "-->") through the line "<!-- END <NAME> -->".
// Everything outside the sections is prose that no tool rewrites.
// Each producer splices its own list of sections into the document and
// checks the document against that list; sections of other producers
// pass through untouched.  EXPERIMENTS.md has two producers:
// balbench-report (the sweep sections) and balbench-history (PERF
// HISTORY).
#pragma once

#include <string>
#include <vector>

namespace balbench::util {

/// One generated section: its marker name and its full text, from the
/// BEGIN line through the END line and its newline.  Empty text names a
/// section the producer owns but did not generate this time.
struct DocSection {
  std::string name;
  std::string text;
};

/// `doc` with every section of `sections` replaced in place.  A section
/// the document lacks is appended at the end, set off by a blank line,
/// so splicing into "" gives the sections joined by blank lines; a
/// section with empty text is removed with the blank line before it.
/// Throws std::runtime_error naming the marker when a BEGIN line has no
/// END line or a section appears twice, and std::invalid_argument when
/// a section's text is not one whole section of its own name.
std::string splice_sections(const std::string& doc,
                            const std::vector<DocSection>& sections);

/// "" when `doc` holds every non-empty section of `sections` exactly
/// once, in list order, byte for byte, and none of the empty ones;
/// otherwise one message naming the first failing section and, for a
/// changed section, its first differing line (numbered in `doc`).
std::string check_sections(const std::string& doc,
                           const std::vector<DocSection>& sections);

}  // namespace balbench::util
