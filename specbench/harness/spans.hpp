// In-memory span recording for the traced run, and the self-time arithmetic
// the per-layer metrics are computed with.
//
// A span is one call across a layer boundary (a Communicator method, a
// SyncIterativeApp method, a whole rank body), recorded from the
// benchmark's own wrappers.  Each simulated rank owns one SpanLog and only
// that rank's thread writes it, so recording takes no lock.  Besides its
// wall-clock interval a span carries the thread CPU time consumed inside
// it: a rank that blocks in a receive is descheduled while other ranks run,
// and only the CPU clock separates the call's own cost from that wait.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace specbench {

struct Span {
  const char* name = "";   ///< static string, e.g. "comm.send"
  std::int32_t parent = -1;  ///< index in the same log; -1 for a root
  std::int32_t rank = -1;
  std::int64_t start_ns = 0;  ///< steady clock
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< thread CPU time consumed in [start, end]
};

/// Current steady-clock and thread-CPU readings, in nanoseconds.
std::int64_t wall_now_ns() noexcept;
std::int64_t thread_cpu_now_ns() noexcept;

class SpanLog {
 public:
  explicit SpanLog(int rank) : rank_(rank) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char* name);
  void close(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  int rank_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::int64_t> open_cpu_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Wall self time of each span: its duration minus the part of its
/// interval that its direct children cover (overlapping children count
/// once; a child sticking out of its parent counts only inside it).
std::vector<std::int64_t> self_wall_ns(std::span<const Span> spans);

/// CPU self time of each span: its CPU time minus its direct children's.
/// Children of a span run on its thread, one after another, so their CPU
/// times do not overlap.
std::vector<std::int64_t> self_cpu_ns(std::span<const Span> spans);

struct LayerTotals {
  std::uint64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t self_wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t self_cpu_ns = 0;
};

/// Adds every span of `spans` into `totals`, keyed by span name.
void accumulate_layers(std::span<const Span> spans,
                       std::map<std::string, LayerTotals>& totals);

/// Writes spans as tab-separated rows: sim, rank, index, parent, name,
/// start_ns, end_ns, cpu_ns.
void write_spans(std::ostream& out, int sim, std::span<const Span> spans);

}  // namespace specbench
