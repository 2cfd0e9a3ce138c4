#include "util/doc_sections.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace bu = balbench::util;

namespace {

bu::DocSection section(const std::string& name, const std::string& body) {
  return {name, "<!-- BEGIN " + name + " -->\n" + body + "<!-- END " + name +
                    " -->\n"};
}

const std::vector<bu::DocSection> kTwo = {section("A", "alpha\n"),
                                          section("B", "beta\n")};

/// A hand-written document holding both sections, with prose around,
/// between and after them.
std::string document() {
  return "# Title\n\nintro prose\n\n" + kTwo[0].text + "\nmiddle prose\n\n" +
         kTwo[1].text + "\nclosing prose\n";
}

bool throws_naming(const std::string& doc, const std::string& needle) {
  try {
    (void)bu::splice_sections(doc, kTwo);
  } catch (const std::runtime_error& e) {
    return std::string(e.what()).find(needle) != std::string::npos;
  }
  return false;
}

}  // namespace

TEST(DocSections, SpliceIntoEmptyJoinsSectionsWithBlankLines) {
  EXPECT_EQ(bu::splice_sections("", kTwo), kTwo[0].text + "\n" + kTwo[1].text);
  EXPECT_EQ(bu::check_sections(bu::splice_sections("", kTwo), kTwo), "");
}

TEST(DocSections, ProseAroundTheSectionsSurvives) {
  const std::vector<bu::DocSection> next = {section("A", "alpha 2\n"),
                                            section("B", "beta\nand more\n")};
  const std::string out = bu::splice_sections(document(), next);
  EXPECT_EQ(out, "# Title\n\nintro prose\n\n" + next[0].text +
                     "\nmiddle prose\n\n" + next[1].text +
                     "\nclosing prose\n");
  EXPECT_EQ(bu::check_sections(out, next), "");
}

TEST(DocSections, SplicingTwiceGivesTheSameBytes) {
  const std::string once = bu::splice_sections(document(), kTwo);
  EXPECT_EQ(once, document());
  EXPECT_EQ(bu::splice_sections(once, kTwo), once);
  const std::string fresh = bu::splice_sections("", kTwo);
  EXPECT_EQ(bu::splice_sections(fresh, kTwo), fresh);
}

TEST(DocSections, MissingSectionsAreAppended) {
  const std::string doc = "intro\n\n" + kTwo[1].text + "\nclosing prose\n";
  const std::string out = bu::splice_sections(doc, kTwo);
  EXPECT_EQ(out, doc + "\n" + kTwo[0].text);
  // The check then reports the order the appended section broke.
  EXPECT_EQ(bu::check_sections(out, kTwo),
            "section B is out of order: it must come after section A");
  EXPECT_EQ(bu::splice_sections("prose", {kTwo[0]}),
            "prose\n\n" + kTwo[0].text);
}

TEST(DocSections, SectionNoLongerGeneratedIsRemovedAndFailsTheCheck) {
  // The render lists A as owned but did not generate it this time.
  const std::vector<bu::DocSection> without_a = {{"A", ""}, kTwo[1]};
  EXPECT_EQ(bu::check_sections(document(), without_a),
            "section A is no longer generated");
  const std::string out = bu::splice_sections(document(), without_a);
  EXPECT_EQ(out, "# Title\n\nintro prose\n\nmiddle prose\n\n" +
                     kTwo[1].text + "\nclosing prose\n");
  EXPECT_EQ(bu::check_sections(out, without_a), "");
  EXPECT_EQ(bu::splice_sections(out, without_a), out);
  // Into a new document an empty section writes nothing.
  EXPECT_EQ(bu::splice_sections("", without_a), kTwo[1].text);
}

TEST(DocSections, OtherProducersSectionsPassThrough) {
  const std::string doc = document() + "\n" + section("PERF", "x\n").text;
  EXPECT_EQ(bu::splice_sections(doc, kTwo), doc);
  EXPECT_EQ(bu::check_sections(doc, kTwo), "");
}

TEST(DocSections, BeginLineMayCarryAStamp) {
  const bu::DocSection stamped = {
      "A", "<!-- BEGIN A (generated: tool --flag) -->\nalpha\n<!-- END A -->\n"};
  const std::string out = bu::splice_sections(document(), {stamped});
  EXPECT_EQ(bu::check_sections(out, {stamped}), "");
  // A longer name that merely starts with "A" is another section.
  const std::string other = section("AB", "x\n").text;
  EXPECT_EQ(bu::splice_sections(other, {kTwo[0]}), other + "\n" + kTwo[0].text);
}

TEST(DocSections, MissingEndMarkerIsAnErrorNamingTheMarker) {
  const std::string doc = "<!-- BEGIN A -->\nalpha\n\nprose\n";
  EXPECT_TRUE(throws_naming(doc, "<!-- END A -->"));
  const std::string problem = bu::check_sections(doc, kTwo);
  EXPECT_NE(problem.find("<!-- END A -->"), std::string::npos) << problem;
}

TEST(DocSections, DuplicatedSectionIsAnError) {
  const std::string doc = document() + kTwo[0].text;
  EXPECT_TRUE(throws_naming(doc, "section A appears twice"));
  EXPECT_EQ(bu::check_sections(doc, kTwo), "section A appears twice");
}

TEST(DocSections, CheckReportsMissingAndOutOfOrderSections) {
  EXPECT_EQ(bu::check_sections("prose\n\n" + kTwo[0].text, kTwo),
            "section B is missing");
  EXPECT_EQ(bu::check_sections(kTwo[1].text + "\n" + kTwo[0].text, kTwo),
            "section B is out of order: it must come after section A");
}

TEST(DocSections, OneByteEditInsideASectionFailsTheCheck) {
  std::string doc = document();
  doc[doc.find("beta")] = 'B';
  EXPECT_EQ(bu::check_sections(doc, kTwo),
            "section B differs at line 12:\n"
            "  document:  Beta\n"
            "  generated: beta");
  // Splicing repairs it.
  EXPECT_EQ(bu::splice_sections(doc, kTwo), document());
}

TEST(DocSections, EditOutsideTheSectionsPassesTheCheck) {
  std::string doc = document();
  doc[doc.find("middle")] = 'M';
  EXPECT_EQ(bu::check_sections(doc, kTwo), "");
  EXPECT_EQ(bu::splice_sections(doc, kTwo), doc);
}

TEST(DocSections, SectionTextMustBeOneWholeSection) {
  EXPECT_THROW(bu::splice_sections("", {{"A", "alpha\n"}}),
               std::invalid_argument);
  EXPECT_THROW(bu::splice_sections("", {{"A", kTwo[1].text}}),
               std::invalid_argument);
  EXPECT_THROW(bu::splice_sections("", {{"A", kTwo[0].text + "tail\n"}}),
               std::invalid_argument);
}
