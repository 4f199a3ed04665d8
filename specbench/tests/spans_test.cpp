// Self-time arithmetic of the benchmark's span records.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace specbench {
namespace {

Span span(const char* name, int parent, std::int64_t start, std::int64_t end,
          std::int64_t cpu = 0) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.rank = 0;
  s.start_ns = start;
  s.end_ns = end;
  s.cpu_ns = cpu;
  return s;
}

TEST(SpanSelfTime, LeafKeepsItsWholeDuration) {
  const std::vector<Span> spans = {span("rank", -1, 10, 110)};
  EXPECT_EQ(self_wall_ns(spans), (std::vector<std::int64_t>{100}));
}

TEST(SpanSelfTime, DisjointChildrenAreSubtracted) {
  const std::vector<Span> spans = {span("engine", -1, 0, 100),
                                   span("comm.send", 0, 10, 20),
                                   span("app.compute", 0, 50, 80)};
  EXPECT_EQ(self_wall_ns(spans), (std::vector<std::int64_t>{60, 10, 30}));
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {span("p", -1, 0, 100), span("a", 0, 10, 50),
                                   span("b", 0, 30, 70), span("c", 0, 40, 45)};
  // Union of the children is [10, 70): 60 covered.
  EXPECT_EQ(self_wall_ns(spans)[0], 40);
}

TEST(SpanSelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {span("p", -1, 100, 200),
                                   span("early", 0, 50, 120),
                                   span("late", 0, 180, 260)};
  EXPECT_EQ(self_wall_ns(spans)[0], 60);
}

TEST(SpanSelfTime, GrandchildrenOnlyReduceTheirParent) {
  const std::vector<Span> spans = {span("rank", -1, 0, 100),
                                   span("engine.run", 0, 10, 90),
                                   span("app.compute", 1, 20, 60)};
  EXPECT_EQ(self_wall_ns(spans), (std::vector<std::int64_t>{20, 40, 40}));
}

TEST(SpanSelfTime, ChildrenInAnyOrder) {
  const std::vector<Span> spans = {span("c2", 2, 60, 70), span("c1", 2, 20, 30),
                                   span("p", -1, 0, 100)};
  EXPECT_EQ(self_wall_ns(spans)[2], 80);
}

TEST(SpanSelfTime, CpuSelfSubtractsDirectChildren) {
  const std::vector<Span> spans = {span("rank", -1, 0, 100, 90),
                                   span("engine.run", 0, 10, 90, 70),
                                   span("comm.recv", 1, 20, 60, 5),
                                   span("app.compute", 1, 60, 80, 20)};
  EXPECT_EQ(self_cpu_ns(spans), (std::vector<std::int64_t>{20, 45, 5, 20}));
}

TEST(SpanSelfTime, LayerTotalsSumByName) {
  const std::vector<Span> spans = {span("engine.run", -1, 0, 100, 100),
                                   span("comm.send", 0, 10, 20, 4),
                                   span("comm.send", 0, 30, 50, 6)};
  std::map<std::string, LayerTotals> totals;
  accumulate_layers(spans, totals);
  const LayerTotals& send = totals.at("comm.send");
  EXPECT_EQ(send.count, 2u);
  EXPECT_EQ(send.wall_ns, 30);
  EXPECT_EQ(send.self_cpu_ns, 10);
  const LayerTotals& engine = totals.at("engine.run");
  EXPECT_EQ(engine.self_wall_ns, 70);
  EXPECT_EQ(engine.self_cpu_ns, 90);
}

TEST(SpanLog, NestsByOpenOrder) {
  SpanLog log(3);
  const int outer = log.open("outer");
  const int inner = log.open("inner");
  log.close(inner);
  const int sibling = log.open("sibling");
  log.close(sibling);
  log.close(outer);
  const auto& spans = log.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].parent, outer);
  for (const Span& s : spans) {
    EXPECT_EQ(s.rank, 3);
    EXPECT_LE(s.start_ns, s.end_ns);
    EXPECT_GE(s.cpu_ns, 0);
  }
  EXPECT_GE(self_wall_ns(spans)[0], 0);
}

}  // namespace
}  // namespace specbench
