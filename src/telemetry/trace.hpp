// JSONL event-trace sink for telemetry, plus the Doc serializations the
// campaign store and the trace share. Producers enqueue pre-rendered
// lines into a bounded buffer; a dedicated background writer thread
// drains it and performs all file I/O, so tracing adds no I/O inside
// timed regions even without explicit flush points. When the bounded
// buffer fills, lines are dropped and counted rather than blocking —
// the drop counter is written into the trace_summary footer so a
// distorted trace is self-incriminating. The writer only changes *who*
// performs I/O, never content or order: one mutex-serialized FIFO feeds
// it, so background and synchronous runs produce byte-identical files.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "results/doc.hpp"
#include "telemetry/registry.hpp"

namespace idseval::telemetry {

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Opens `path` for writing (truncates). Throws std::runtime_error if
  /// the file cannot be opened. `capacity_lines` bounds the in-memory
  /// buffer between drains. With `background` (the default) a dedicated
  /// writer thread drains the buffer as lines arrive; without it the
  /// buffer only drains at explicit flush()/close() calls (the
  /// single-threaded reference mode the trace-writer tests compare
  /// against).
  explicit TraceSink(std::string path,
                     std::size_t capacity_lines = kDefaultCapacity,
                     bool background = true);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Buffers one JSON line (no trailing newline). Never performs file
  /// I/O on the calling thread; drops the line (and counts the drop)
  /// when the buffer is full. Thread-safe.
  void emit(std::string line) noexcept;

  /// Renders `event` to compact JSON and buffers it.
  void emit(const results::Doc& event);

  /// Synchronous mode: writes buffered lines to the file. Background
  /// mode: blocks until the writer thread has drained everything
  /// buffered so far (no-op while paused — resume first). Call at
  /// work-unit boundaries, never inside a timed region.
  void flush();

  /// Drains, writes the trace_summary footer, and closes the file.
  /// Idempotent; also invoked by the destructor.
  void close();

  /// Test hooks: holding the writer makes drop accounting deterministic
  /// (pause, overfill the buffer, observe counted drops, resume).
  void pause_writer();
  void resume_writer();

  bool background() const noexcept { return background_; }
  const std::string& path() const noexcept { return path_; }
  std::uint64_t emitted() const noexcept;
  std::uint64_t dropped() const noexcept;

 private:
  void writer_main();
  /// Writes and fflushes `lines`; caller must not hold mutex_.
  void write_lines(const std::vector<std::string>& lines);

  std::string path_;
  std::size_t capacity_;
  bool background_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable cv_data_;
  std::condition_variable cv_idle_;
  std::thread writer_;
  std::vector<std::string> buffer_;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  bool writer_busy_ = false;
  bool paused_ = false;
  bool stop_ = false;
  bool closed_ = false;
};

/// JSON string escaping shared by trace events (RFC 8259, via results).
std::string json_escape(std::string_view s);

/// Doc views of the telemetry types (fixed key order, exact doubles) —
/// the one serialization the trace, store, and CLI all share.
results::Doc to_doc(const StageSummary& stage);
results::Doc to_doc(const PipelineSnapshot& snapshot);
/// Full registry dump including per-stage log2 histogram buckets — the
/// trace-side view ("per-stage latency histograms").
results::Doc to_doc(const Registry& registry);

/// Rebuilds a PipelineSnapshot from its to_doc form (store rows).
/// Throws std::invalid_argument on a malformed document.
PipelineSnapshot snapshot_from_doc(const results::Doc& doc);

/// Deterministic serializations (results::to_json over to_doc).
std::string to_json(const StageSummary& stage);
std::string to_json(const PipelineSnapshot& snapshot);
std::string to_json(const Registry& registry);

/// Strict single-line JSON validator for trace-checking: accepts one
/// complete JSON value (object/array/string/number/bool/null) with
/// nothing but whitespace after it.
bool validate_json_line(std::string_view line);

/// Doc-level schema validation for one trace event. Every event type
/// the writers emit (evaluation, load_probes, cell, campaign_begin,
/// campaign_end, trace_summary) has a fixed field list; this checks the
/// type is known, every required field is present with the right kind,
/// no unknown keys ride along, and embedded telemetry registries have
/// the full counters/stages/log2_buckets shape. Throws
/// std::invalid_argument naming the first violation.
void check_trace_event(const results::Doc& event);

}  // namespace idseval::telemetry
