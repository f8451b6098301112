// Append-only JSONL result store for campaign runs. Line 1 is a manifest
// carrying the spec fingerprint; every further line is one completed (or
// failed) cell. Appending one flushed line per cell means a campaign
// killed mid-flight loses at most the cell that was being written;
// re-opening the store against the same spec resumes by skipping every
// cell already recorded as ok. The on-disk content is deterministic in
// the spec — cell rows are byte-identical regardless of worker count or
// completion order (wall-clock timings deliberately stay out of rows).
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "results/doc.hpp"

namespace idseval::campaign {

/// One cell result as a results::Doc (the row shape serialize_cell
/// writes): fixed key order, nested telemetry snapshot object.
results::Doc cell_to_doc(const CellResult& result);
/// Serializes one cell result as a single JSON line (no trailing
/// newline). Deterministic: fixed key order, %.17g doubles.
std::string serialize_cell(const CellResult& result);
/// Parses serialize_cell's output; throws std::invalid_argument on
/// malformed lines or unknown product names.
CellResult deserialize_cell(const std::string& line);

class ResultStore {
 public:
  /// Opens the store at `path`. `fresh == true` truncates any existing
  /// file and writes a new manifest; `fresh == false` (resume) loads the
  /// existing rows first — throwing std::invalid_argument when the
  /// manifest fingerprint does not match `spec` or a row is corrupt —
  /// and appends after them. An unterminated last line (an append cut
  /// short by a killed run) is not corruption: resume cuts it off the
  /// file and its cell counts as not yet run. A missing file is created
  /// either way.
  ResultStore(std::string path, const CampaignSpec& spec, bool fresh);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// True when the cell completed successfully in a previous (or this)
  /// run — failed cells are recorded but stay eligible for re-running.
  bool has_ok(std::size_t index) const;
  std::size_t ok_count() const;
  std::size_t failed_count() const;

  /// Latest result per cell index (a resumed re-run overrides an earlier
  /// failure).
  const std::map<std::size_t, CellResult>& results() const noexcept {
    return results_;
  }

  /// Appends one row and flushes. Thread-safe.
  void append(const CellResult& result);

  /// Reads a store file without opening it for writing; verifies the
  /// manifest against `spec` and skips a torn last line the same way
  /// resume does.
  static std::map<std::size_t, CellResult> load(
      const std::string& path, const CampaignSpec& spec);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mutex_;
  std::map<std::size_t, CellResult> results_;
};

}  // namespace idseval::campaign
