// Aho–Corasick multi-pattern matcher: the workhorse of the signature
// engine. One pass over each payload reports every published pattern it
// contains, which is what makes deep inspection affordable at line rate —
// and why its per-byte cost, not the rule count, dominates sensor
// throughput (System Throughput / Maximal Throughput with Zero Loss).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace idseval::ids {

class AhoCorasick {
 public:
  /// Builds the automaton over the given patterns. Pattern ids are their
  /// indices in `patterns`. Empty patterns are rejected.
  explicit AhoCorasick(const std::vector<std::string>& patterns);

  struct Match {
    std::size_t pattern_id;
    std::size_t end_offset;  ///< Offset one past the match's last byte.
  };

  /// Scans `text`, returning every match (including overlaps).
  std::vector<Match> find_all(std::string_view text) const;

  /// Scan that only reports which patterns occurred, cheaper when
  /// positions don't matter: `out` becomes the ascending, deduplicated
  /// ids. Reusing one `out` across calls makes the scan allocation-free.
  void find_set(std::string_view text, std::vector<std::size_t>& out) const;

  /// True if any pattern occurs.
  bool contains_any(std::string_view text) const;

  std::size_t pattern_count() const noexcept { return patterns_.size(); }
  /// Longest pattern, in bytes (0 when the set is empty). Any match in a
  /// text ending at offset e starts at or after e - max_pattern_length(),
  /// which is what makes boundary-limited stream scans sound: a window of
  /// the last L-1 bytes before a split plus the first L-1 after it sees
  /// every match the split could hide.
  std::size_t max_pattern_length() const noexcept {
    return max_pattern_length_;
  }
  const std::string& pattern(std::size_t id) const {
    return patterns_.at(id);
  }
  std::size_t node_count() const noexcept { return next_.size(); }

 private:
  static constexpr std::size_t kAlphabet = 256;
  using Row = std::array<std::int32_t, kAlphabet>;

  void build(const std::vector<std::string>& patterns);

  std::vector<std::string> patterns_;
  std::size_t max_pattern_length_ = 0;
  std::vector<Row> next_;                    ///< Goto function (dense).
  std::vector<std::int32_t> fail_;
  std::vector<std::vector<std::int32_t>> output_;
};

}  // namespace idseval::ids
