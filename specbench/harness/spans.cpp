#include "spans.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

namespace specbench {

std::int64_t wall_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.rank = rank_;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  open_cpu_.push_back(thread_cpu_now_ns());
  span.start_ns = wall_now_ns();
  spans_.push_back(span);
  return index;
}

void SpanLog::close(int index) {
  const std::int64_t end = wall_now_ns();
  const std::int64_t cpu = thread_cpu_now_ns();
  // Spans close innermost-first (they are scoped), so `index` is on top.
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  span.cpu_ns = cpu - open_cpu_.back();
  open_.pop_back();
  open_cpu_.pop_back();
}

std::vector<std::int64_t> self_wall_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union covered so far
    for (const auto& [begin, end] : kids) {
      const std::int64_t b = std::max(begin, reach);
      const std::int64_t e = std::min(end, hi);
      if (e > b) covered += e - b;
      reach = std::max(reach, std::min(end, hi));
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<std::int64_t> self_cpu_ns(std::span<const Span> spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] += spans[i].cpu_ns;
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.cpu_ns;
  return self;
}

void accumulate_layers(std::span<const Span> spans,
                       std::map<std::string, LayerTotals>& totals) {
  const std::vector<std::int64_t> wall = self_wall_ns(spans);
  const std::vector<std::int64_t> cpu = self_cpu_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[spans[i].name];
    ++t.count;
    t.wall_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_wall_ns += wall[i];
    t.cpu_ns += spans[i].cpu_ns;
    t.self_cpu_ns += cpu[i];
  }
}

void write_spans(std::ostream& out, int sim, std::span<const Span> spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << sim << '\t' << s.rank << '\t' << i << '\t' << s.parent << '\t'
        << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.cpu_ns << '\n';
  }
}

}  // namespace specbench
