// RunReport: schema stability, round-trip fidelity, and the guarantee that
// its phase arithmetic matches the ASCII printouts (sum over ranks divided
// by ranks * iterations).
#include "obs/run_report.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/phase_timer.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/stats.hpp"
#include "support/rng.hpp"

namespace specomp::obs {
namespace {

RunReport make_report() {
  RunReport report;
  report.binary = "test_binary";
  report.backend = "sim";
  report.algorithm = "speculative";
  report.speculator = "kinematic";
  report.forward_window = 2;
  report.theta = 0.01;
  report.iterations = 10;
  report.ranks = 4;
  report.cluster_ops_per_sec = {4e6, 3e6, 2e6, 1e6};
  report.makespan_seconds = 123.5;
  report.phases = {{"compute", 40.0, 1.0}, {"communicate", 8.0, 0.2}};
  report.blocks_received_in_time = 11;
  report.blocks_speculated = 29;
  report.checks = 29;
  report.failures = 3;
  report.incremental_corrections = 2;
  report.replayed_iterations = 1;
  report.failure_fraction = 3.0 / 29.0;
  report.error_mean = 0.004;
  report.error_max = 0.02;
  report.max_window_used = 2;
  report.messages = 360;
  report.bytes = 86400;
  report.mean_delay_seconds = 5.8;
  report.extra.set("note", Json("round-trip"));
  return report;
}

TEST(RunReport, SchemaFieldIsStable) {
  const Json doc = make_report().to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "specomp.run_report.v2");
  EXPECT_EQ(doc.at("schema").as_string(), kRunReportSchema);
  EXPECT_EQ(doc.at("schema_version").as_int(), kRunReportVersion);
  // The top-level section layout is part of the schema contract.
  EXPECT_NE(doc.find("config"), nullptr);
  EXPECT_NE(doc.find("timing"), nullptr);
  EXPECT_NE(doc.find("speculation"), nullptr);
  EXPECT_NE(doc.find("network"), nullptr);
}

TEST(RunReport, RoundTripsThroughSerializedJson) {
  const RunReport original = make_report();
  const RunReport restored =
      RunReport::from_json(Json::parse(original.to_json().dump(2)));

  EXPECT_EQ(restored.binary, original.binary);
  EXPECT_EQ(restored.backend, original.backend);
  EXPECT_EQ(restored.algorithm, original.algorithm);
  EXPECT_EQ(restored.speculator, original.speculator);
  EXPECT_EQ(restored.forward_window, original.forward_window);
  EXPECT_EQ(restored.theta, original.theta);
  EXPECT_EQ(restored.iterations, original.iterations);
  EXPECT_EQ(restored.ranks, original.ranks);
  EXPECT_EQ(restored.cluster_ops_per_sec, original.cluster_ops_per_sec);
  EXPECT_EQ(restored.makespan_seconds, original.makespan_seconds);
  ASSERT_EQ(restored.phases.size(), original.phases.size());
  for (std::size_t i = 0; i < original.phases.size(); ++i) {
    EXPECT_EQ(restored.phases[i].phase, original.phases[i].phase);
    EXPECT_EQ(restored.phases[i].total_seconds, original.phases[i].total_seconds);
    EXPECT_EQ(restored.phases[i].mean_per_iteration_seconds,
              original.phases[i].mean_per_iteration_seconds);
  }
  EXPECT_EQ(restored.blocks_received_in_time, original.blocks_received_in_time);
  EXPECT_EQ(restored.blocks_speculated, original.blocks_speculated);
  EXPECT_EQ(restored.checks, original.checks);
  EXPECT_EQ(restored.failures, original.failures);
  EXPECT_EQ(restored.incremental_corrections, original.incremental_corrections);
  EXPECT_EQ(restored.replayed_iterations, original.replayed_iterations);
  EXPECT_EQ(restored.failure_fraction, original.failure_fraction);
  EXPECT_EQ(restored.error_mean, original.error_mean);
  EXPECT_EQ(restored.error_max, original.error_max);
  EXPECT_EQ(restored.max_window_used, original.max_window_used);
  EXPECT_EQ(restored.messages, original.messages);
  EXPECT_EQ(restored.bytes, original.bytes);
  EXPECT_EQ(restored.mean_delay_seconds, original.mean_delay_seconds);
  EXPECT_EQ(restored.extra.at("note").as_string(), "round-trip");

  // And the round trip is idempotent at the document level.
  EXPECT_EQ(restored.to_json().dump(), original.to_json().dump());
}

TEST(RunReport, FromJsonRejectsWrongSchema) {
  Json doc = make_report().to_json();
  doc.set("schema", Json("something.else.v9"));
  EXPECT_THROW(RunReport::from_json(doc), std::runtime_error);
}

TEST(RunReport, FromJsonStillAcceptsV1Reports) {
  // Artifacts written before schema_version existed must keep loading.
  Json doc = make_report().to_json();
  doc.set("schema", Json(kRunReportSchemaV1));
  const RunReport restored = RunReport::from_json(doc);
  EXPECT_EQ(restored.binary, make_report().binary);
}

TEST(RunReport, FromJsonRejectsNewerVersionWithClearMessage) {
  Json doc = make_report().to_json();
  doc.set("schema_version", Json(kRunReportVersion + 1));
  try {
    RunReport::from_json(doc);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos)
        << e.what();
  }
}

TEST(RunReport, DistributionsRoundTrip) {
  RunReport report = make_report();
  std::vector<NamedDist> dists(1);
  dists[0].name = "link_delay.0->1";
  for (int i = 1; i <= 100; ++i) dists[0].sketch.observe(i * 0.1);
  report.fill_dists(dists);
  ASSERT_EQ(report.distributions.size(), 1u);
  EXPECT_EQ(report.distributions[0].count, 100u);

  const RunReport restored =
      RunReport::from_json(Json::parse(report.to_json().dump(2)));
  ASSERT_EQ(restored.distributions.size(), 1u);
  EXPECT_EQ(restored.distributions[0].name, "link_delay.0->1");
  EXPECT_EQ(restored.distributions[0].count, 100u);
  EXPECT_NEAR(restored.distributions[0].p50, 5.05, 0.5);
}

TEST(RunReport, FillPhasesMatchesAsciiArithmetic) {
  // Two ranks, three iterations: compute 6 s total on rank 0 and 3 s on
  // rank 1 -> mean per iteration = 9 / (2 * 3) = 1.5 s, exactly what the
  // examples print as "mean over ranks".
  runtime::PhaseTimer t0;
  t0.add(runtime::Phase::Compute, des::SimTime::seconds(6.0));
  t0.add(runtime::Phase::Communicate, des::SimTime::seconds(1.0));
  runtime::PhaseTimer t1;
  t1.add(runtime::Phase::Compute, des::SimTime::seconds(3.0));

  RunReport report;
  report.fill_phases({t0, t1}, /*run_iterations=*/3);
  EXPECT_EQ(report.ranks, 2u);
  EXPECT_DOUBLE_EQ(report.phase_mean_per_iteration("compute"), 1.5);
  EXPECT_DOUBLE_EQ(report.phase_mean_per_iteration("communicate"), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(report.phase_mean_per_iteration("correct"), 0.0);

  double compute_total = 0.0;
  for (const auto& row : report.phases)
    if (row.phase == "compute") compute_total = row.total_seconds;
  EXPECT_DOUBLE_EQ(compute_total, 9.0);
}

TEST(RunReport, FillSpecCopiesCountersAndErrorStats) {
  spec::SpecStats stats;
  stats.blocks_speculated = 20;
  stats.blocks_received_in_time = 5;
  stats.checks = 20;
  stats.failures = 4;
  stats.incremental_corrections = 3;
  stats.replayed_iterations = 2;
  stats.max_window_used = 2;
  stats.error.add(0.01);
  stats.error.add(0.03);

  RunReport report;
  report.fill_spec(stats);
  EXPECT_EQ(report.blocks_speculated, 20u);
  EXPECT_EQ(report.failures, 4u);
  EXPECT_DOUBLE_EQ(report.failure_fraction, 0.2);
  EXPECT_DOUBLE_EQ(report.error_mean, 0.02);
  EXPECT_DOUBLE_EQ(report.error_max, 0.03);
  EXPECT_EQ(report.max_window_used, 2);
}

/// A report filled from a real three-rank simulated all-to-all exchange:
/// every section a simulated run writes, faults included when `fault_spec`
/// is non-empty.
RunReport simulated_report(const std::string& fault_spec) {
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::homogeneous(3, 1e6);
  config.channel.propagation = des::SimTime::millis(5);
  config.record_dists = true;
  if (!fault_spec.empty()) {
    runtime::FaultPlanConfig plan;
    std::string error;
    EXPECT_TRUE(runtime::parse_fault_plan(fault_spec, plan, error)) << error;
    config.fault = std::make_shared<const runtime::FaultPlan>(plan);
  }
  constexpr long kIterations = 4;
  const runtime::SimResult result =
      runtime::run_simulated(config, [](runtime::Communicator& comm) {
        const double mine[] = {static_cast<double>(comm.rank())};
        for (long it = 0; it < kIterations; ++it) {
          comm.compute(1e4);
          for (int r = 0; r < comm.size(); ++r)
            if (r != comm.rank()) comm.send_doubles(r, 7, mine);
          for (int r = 0; r < comm.size(); ++r)
            if (r != comm.rank()) comm.recv_doubles(r, 7);
        }
      });
  spec::SpecStats stats;
  stats.checks = 5;
  stats.failures = 1;
  stats.error.add(0.25);

  RunReport report;
  report.binary = "test_binary";
  report.algorithm = "speculative";
  report.makespan_seconds = result.makespan_seconds;
  report.fill_cluster(config.cluster);
  report.fill_phases(result.timers, kIterations);
  report.fill_spec(stats);
  report.fill_channel(result.channel_stats);
  report.fill_dists(result.dists);
  report.fill_des(result.kernel_stats);
  report.fill_faults(config.fault.get(), result.fault_stats);
  report.extra.set("note", Json("simulated"));
  return report;
}

TEST(RunReport, DesAndFaultsRoundTrip) {
  RunReport report = make_report();
  report.des = RunReport::DesTotals{4242, 17};
  runtime::FaultStats fs;
  fs.injected_drops = 1;
  fs.retransmits = 2;
  fs.messages_lost = 3;
  fs.injected_duplicates = 4;
  fs.duplicates_suppressed = 5;
  fs.injected_reorders = 6;
  fs.slowdown_charges = 7;
  fs.stalls = 8;
  fs.crashed_ranks = 9;
  report.faults = fs;

  const Json doc = report.to_json();
  EXPECT_EQ(doc.at("faults").as_object().size(), 9u);
  const RunReport restored = RunReport::from_json(Json::parse(doc.dump(2)));
  ASSERT_TRUE(restored.des.has_value());
  EXPECT_EQ(restored.des->events_executed, 4242u);
  EXPECT_EQ(restored.des->queue_peak, 17u);
  ASSERT_TRUE(restored.faults.has_value());
  EXPECT_EQ(restored.faults->injected_drops, 1u);
  EXPECT_EQ(restored.faults->retransmits, 2u);
  EXPECT_EQ(restored.faults->messages_lost, 3u);
  EXPECT_EQ(restored.faults->injected_duplicates, 4u);
  EXPECT_EQ(restored.faults->duplicates_suppressed, 5u);
  EXPECT_EQ(restored.faults->injected_reorders, 6u);
  EXPECT_EQ(restored.faults->slowdown_charges, 7u);
  EXPECT_EQ(restored.faults->stalls, 8u);
  EXPECT_EQ(restored.faults->crashed_ranks, 9u);
  EXPECT_EQ(restored.to_json().dump(), doc.dump());
}

TEST(RunReport, DocumentsWithoutDesOrFaultsStillLoad) {
  // make_report() fills neither optional section, as reports written
  // before those sections existed.
  Json v2 = make_report().to_json();
  ASSERT_EQ(v2.find("des"), nullptr);
  ASSERT_EQ(v2.find("faults"), nullptr);
  const RunReport from_v2 = RunReport::from_json(v2);
  EXPECT_FALSE(from_v2.des.has_value());
  EXPECT_FALSE(from_v2.faults.has_value());

  Json v1 = v2;
  v1.set("schema", Json(kRunReportSchemaV1));
  v1.as_object().erase(v1.as_object().begin() + 1);  // drop schema_version
  ASSERT_EQ(v1.find("schema_version"), nullptr);
  const RunReport from_v1 = RunReport::from_json(v1);
  EXPECT_FALSE(from_v1.des.has_value());
  EXPECT_FALSE(from_v1.faults.has_value());
  EXPECT_EQ(from_v1.checks, make_report().checks);
}

TEST(RunReport, FaultFreeRunWritesNoFaultsSection) {
  const Json doc = simulated_report("").to_json();
  EXPECT_EQ(doc.find("faults"), nullptr);
  ASSERT_NE(doc.find("des"), nullptr);
  EXPECT_GT(doc.at("des").at("events_executed").as_uint(), 0u);
  EXPECT_GT(doc.at("des").at("queue_peak").as_uint(), 0u);
}

TEST(RunReport, ArmedPlanWritesEveryFaultCount) {
  // A stall fires once on rank 1; nothing else in the plan injects, and the
  // section still carries all nine counters.
  const Json doc = simulated_report("stall:1@0+1").to_json();
  ASSERT_NE(doc.find("faults"), nullptr);
  EXPECT_EQ(doc.at("faults").as_object().size(), 9u);
  EXPECT_EQ(doc.at("faults").at("stalls").as_uint(), 1u);
  EXPECT_EQ(doc.at("faults").at("injected_drops").as_uint(), 0u);
}

// Deterministic byte-mutation fuzzing of the two report readers: every
// mutant of a real report must either load or throw a std::exception.  A
// crash (stack overflow, out-of-range access, abort) fails the whole binary.
TEST(RunReportFuzz, MutatedReportsParseOrThrow) {
  const std::string original =
      simulated_report("drop:0.2,dup:0.2,slow:1x2").to_json().dump(2);
  // Bytes that steer mutants into the parser's structural branches.
  constexpr std::string_view kAlphabet = "{}[]\",:-+.eE0123456789tfnu\\ ";
  support::Xoshiro256 rng(0x5eed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  int parsed = 0;
  int loaded = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = original;
    const int edits = 1 + static_cast<int>(pick(4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = pick(text.size());
      switch (pick(5)) {
        case 0: text[at] = static_cast<char>(pick(256)); break;
        case 1: text[at] = kAlphabet[pick(kAlphabet.size())]; break;
        case 2: text.erase(at, 1 + pick(16)); break;
        case 3: text.insert(at, 1, kAlphabet[pick(kAlphabet.size())]); break;
        default:
          text.insert(at, text.substr(pick(text.size()), 1 + pick(32)));
          break;
      }
    }
    Json doc;
    try {
      doc = Json::parse(text);
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;
      continue;
    }
    try {
      RunReport::from_json(doc);
      ++loaded;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the mutants reach past the tokenizer.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(RunReport, WriteProducesParsableFile) {
  const std::string path = ::testing::TempDir() + "run_report_test.json";
  ASSERT_TRUE(make_report().write(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const RunReport restored = RunReport::from_json(Json::parse(text.str()));
  EXPECT_EQ(restored.binary, "test_binary");
}

}  // namespace
}  // namespace specomp::obs
