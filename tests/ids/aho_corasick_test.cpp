#include "ids/aho_corasick.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "ids/rules.hpp"
#include "traffic/payload.hpp"
#include "util/rng.hpp"

namespace idseval::ids {
namespace {

std::vector<std::size_t> find_set(const AhoCorasick& ac,
                                  std::string_view text) {
  std::vector<std::size_t> out;
  ac.find_set(text, out);
  return out;
}

TEST(AhoCorasickTest, RejectsEmptyPattern) {
  EXPECT_THROW(AhoCorasick({"ok", ""}), std::invalid_argument);
}

TEST(AhoCorasickTest, FindsSinglePattern) {
  const AhoCorasick ac({"needle"});
  const auto matches = ac.find_all("hay needle stack");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].pattern_id, 0u);
  EXPECT_EQ(matches[0].end_offset, 10u);  // one past 'needle'
}

TEST(AhoCorasickTest, NoMatchIsEmpty) {
  const AhoCorasick ac({"needle"});
  EXPECT_TRUE(ac.find_all("plain haystack").empty());
  EXPECT_FALSE(ac.contains_any("plain haystack"));
}

TEST(AhoCorasickTest, FindsOverlappingPatterns) {
  const AhoCorasick ac({"he", "she", "his", "hers"});
  const auto matches = ac.find_all("ushers");
  // "ushers" contains she, he, hers.
  std::vector<std::size_t> ids;
  for (const auto& m : matches) ids.push_back(m.pattern_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(AhoCorasickTest, RepeatedOccurrencesAllReported) {
  const AhoCorasick ac({"ab"});
  EXPECT_EQ(ac.find_all("ababab").size(), 3u);
}

TEST(AhoCorasickTest, FindSetDeduplicates) {
  const AhoCorasick ac({"ab", "zz"});
  const auto set = find_set(ac, "abababab");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0], 0u);
}

TEST(AhoCorasickTest, PatternInsidePattern) {
  const AhoCorasick ac({"/etc/passwd", "passwd"});
  const auto set = find_set(ac, "GET /../../etc/passwd HTTP/1.0");
  EXPECT_EQ(set.size(), 2u);
}

TEST(AhoCorasickTest, BinaryPatterns) {
  const std::string nop_sled = "\x90\x90\x90\x90\x90\x90";
  const AhoCorasick ac({nop_sled});
  std::string payload = "header";
  payload += std::string(10, '\x90');
  payload += "tail";
  EXPECT_TRUE(ac.contains_any(payload));
  EXPECT_FALSE(ac.contains_any("header tail"));
}

TEST(AhoCorasickTest, MatchAtStartAndEnd) {
  const AhoCorasick ac({"start", "end"});
  const auto set = find_set(ac, "start middle end");
  EXPECT_EQ(set.size(), 2u);
}

TEST(AhoCorasickTest, PatternEqualsText) {
  const AhoCorasick ac({"exact"});
  EXPECT_TRUE(ac.contains_any("exact"));
}

TEST(AhoCorasickTest, EmptyTextMatchesNothing) {
  const AhoCorasick ac({"x"});
  EXPECT_FALSE(ac.contains_any(""));
  EXPECT_TRUE(ac.find_all("").empty());
}

TEST(AhoCorasickTest, AccessorsAndNodeCount) {
  const AhoCorasick ac({"abc", "abd"});
  EXPECT_EQ(ac.pattern_count(), 2u);
  EXPECT_EQ(ac.pattern(1), "abd");
  // root + a + b + c + d = 5 nodes (shared prefix "ab").
  EXPECT_EQ(ac.node_count(), 5u);
}

TEST(AhoCorasickTest, AgreesWithNaiveSearchOnRandomText) {
  const std::vector<std::string> patterns = {"track", "GET /", "passwd",
                                             "\r\n\r\n", "seq="};
  const AhoCorasick ac(patterns);
  util::Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    const auto kind = static_cast<traffic::PayloadKind>(round % 7);
    const std::string text = traffic::synthesize(kind, 500, rng);
    const auto set = find_set(ac, text);
    for (std::size_t pid = 0; pid < patterns.size(); ++pid) {
      const bool naive = text.find(patterns[pid]) != std::string::npos;
      const bool found =
          std::find(set.begin(), set.end(), pid) != set.end();
      EXPECT_EQ(naive, found)
          << "pattern '" << patterns[pid] << "' round " << round;
    }
  }
}

TEST(AhoCorasickTest, ManyPatternsStress) {
  std::vector<std::string> patterns;
  util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    patterns.push_back(traffic::random_printable(8, rng));
  }
  const AhoCorasick ac(patterns);
  // Every pattern must be found in a text that embeds it.
  for (std::size_t pid = 0; pid < patterns.size(); ++pid) {
    const std::string text = "prefix " + patterns[pid] + " suffix";
    const auto set = find_set(ac, text);
    EXPECT_TRUE(std::find(set.begin(), set.end(), pid) != set.end());
  }
}

TEST(AhoCorasickTest, FindSetMatchesBruteForceOnStandardRules) {
  // The shipped rule patterns in random texts, with planted, overlapping
  // and truncated occurrences. One output vector is reused throughout,
  // as the signature engine does, so stale ids would show.
  std::vector<std::string> patterns;
  std::string alphabet;
  for (const PatternRule& rule : standard_rule_set().patterns) {
    patterns.push_back(rule.pattern);
    alphabet += rule.pattern;
  }
  const AhoCorasick ac(patterns);
  util::Rng rng(2024);
  std::vector<std::size_t> got;
  for (int round = 0; round < 2000; ++round) {
    std::string text;
    const std::size_t len = rng.index(160);
    for (std::size_t i = 0; i < len; ++i) {
      // Bytes drawn from the patterns themselves make partial matches
      // and failure-link walks common.
      text += rng.chance(0.7)
                  ? alphabet[rng.index(alphabet.size())]
                  : static_cast<char>(rng.uniform_u64(0, 255));
    }
    const std::size_t plants = rng.index(4);
    for (std::size_t k = 0; k < plants; ++k) {
      const std::string& pat = patterns[rng.index(patterns.size())];
      // A whole pattern or a proper prefix of it, written over the text
      // at any offset, so plants overlap one another and the ends.
      const std::size_t take =
          rng.chance(0.8) ? pat.size() : rng.index(pat.size());
      const std::size_t at = rng.index(text.size() + 1);
      text.replace(at, std::min(take, text.size() - at), pat, 0, take);
    }
    std::vector<std::size_t> want;
    for (std::size_t pid = 0; pid < patterns.size(); ++pid) {
      if (std::string_view(text).find(patterns[pid]) !=
          std::string_view::npos) {
        want.push_back(pid);
      }
    }
    ac.find_set(text, got);
    ASSERT_EQ(got, want) << "round " << round;
  }
}

}  // namespace
}  // namespace idseval::ids
