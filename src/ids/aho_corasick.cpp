#include "ids/aho_corasick.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace idseval::ids {

AhoCorasick::AhoCorasick(const std::vector<std::string>& patterns) {
  build(patterns);
}

void AhoCorasick::build(const std::vector<std::string>& patterns) {
  patterns_ = patterns;
  for (const auto& p : patterns_) {
    if (p.empty()) {
      throw std::invalid_argument("AhoCorasick: empty pattern");
    }
    max_pattern_length_ = std::max(max_pattern_length_, p.size());
  }

  // Trie construction.
  next_.emplace_back();
  next_[0].fill(-1);
  output_.emplace_back();
  for (std::size_t pid = 0; pid < patterns_.size(); ++pid) {
    std::int32_t node = 0;
    for (unsigned char c : patterns_[pid]) {
      if (next_[static_cast<std::size_t>(node)][c] < 0) {
        next_[static_cast<std::size_t>(node)][c] =
            static_cast<std::int32_t>(next_.size());
        next_.emplace_back();
        next_.back().fill(-1);
        output_.emplace_back();
      }
      node = next_[static_cast<std::size_t>(node)][c];
    }
    output_[static_cast<std::size_t>(node)].push_back(
        static_cast<std::int32_t>(pid));
  }

  // BFS to set failure links and convert to a full goto automaton.
  fail_.assign(next_.size(), 0);
  std::queue<std::int32_t> bfs;
  for (std::size_t c = 0; c < kAlphabet; ++c) {
    std::int32_t& t = next_[0][c];
    if (t < 0) {
      t = 0;
    } else {
      fail_[static_cast<std::size_t>(t)] = 0;
      bfs.push(t);
    }
  }
  while (!bfs.empty()) {
    const std::int32_t u = bfs.front();
    bfs.pop();
    const std::int32_t fu = fail_[static_cast<std::size_t>(u)];
    // Inherit outputs along the failure chain.
    const auto& fo = output_[static_cast<std::size_t>(fu)];
    auto& uo = output_[static_cast<std::size_t>(u)];
    uo.insert(uo.end(), fo.begin(), fo.end());
    for (std::size_t c = 0; c < kAlphabet; ++c) {
      std::int32_t& t = next_[static_cast<std::size_t>(u)][c];
      if (t < 0) {
        t = next_[static_cast<std::size_t>(fu)][c];
      } else {
        fail_[static_cast<std::size_t>(t)] =
            next_[static_cast<std::size_t>(fu)][c];
        bfs.push(t);
      }
    }
  }
}

std::vector<AhoCorasick::Match> AhoCorasick::find_all(
    std::string_view text) const {
  std::vector<Match> matches;
  std::int32_t node = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    node = next_[static_cast<std::size_t>(node)]
                [static_cast<unsigned char>(text[i])];
    for (const std::int32_t pid : output_[static_cast<std::size_t>(node)]) {
      matches.push_back(Match{static_cast<std::size_t>(pid), i + 1});
    }
  }
  return matches;
}

void AhoCorasick::find_set(std::string_view text,
                           std::vector<std::size_t>& out) const {
  // `out` doubles as the seen-flags, indexed by pattern id, and is then
  // compacted in place: the k-th seen id never lands past its own flag.
  out.assign(patterns_.size(), 0);
  std::size_t remaining = patterns_.size();
  std::int32_t node = 0;
  for (const char ch : text) {
    node = next_[static_cast<std::size_t>(node)]
                [static_cast<unsigned char>(ch)];
    for (const std::int32_t pid : output_[static_cast<std::size_t>(node)]) {
      if (out[static_cast<std::size_t>(pid)] == 0) {
        out[static_cast<std::size_t>(pid)] = 1;
        if (--remaining == 0) break;
      }
    }
    if (remaining == 0) break;
  }
  std::size_t seen = 0;
  for (std::size_t pid = 0; pid < out.size(); ++pid) {
    if (out[pid] != 0) out[seen++] = pid;
  }
  out.resize(seen);
}

bool AhoCorasick::contains_any(std::string_view text) const {
  std::int32_t node = 0;
  for (const char ch : text) {
    node = next_[static_cast<std::size_t>(node)]
                [static_cast<unsigned char>(ch)];
    if (!output_[static_cast<std::size_t>(node)].empty()) return true;
  }
  return false;
}

}  // namespace idseval::ids
