// Unit tests of the observability subsystem (DESIGN.md §8): histogram
// bucketing and merge, metric interning and task-shard absorption, trace
// staging/rebasing, and the exporters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "mapreduce/counters.h"
#include "mapreduce/stage.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace efind {
namespace obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, BucketOfEdgeCases) {
  // <= 1 ns, non-positive, and NaN all land in bucket 0.
  EXPECT_EQ(HistogramData::BucketOf(0.0), 0);
  EXPECT_EQ(HistogramData::BucketOf(-5.0), 0);
  EXPECT_EQ(HistogramData::BucketOf(1e-9), 0);
  EXPECT_EQ(HistogramData::BucketOf(std::nan("")), 0);
  // (1, 2) ns -> bucket 1; [2, 4) ns -> bucket 2.
  EXPECT_EQ(HistogramData::BucketOf(1.5e-9), 1);
  EXPECT_EQ(HistogramData::BucketOf(2e-9), 2);
  EXPECT_EQ(HistogramData::BucketOf(3e-9), 2);
  EXPECT_EQ(HistogramData::BucketOf(4e-9), 3);
  // Saturation far above 2^63 ns.
  EXPECT_EQ(HistogramData::BucketOf(1e30), 63);
  EXPECT_EQ(HistogramData::BucketOf(std::numeric_limits<double>::infinity()),
            63);
}

TEST(HistogramTest, BucketUpperSec) {
  EXPECT_DOUBLE_EQ(HistogramData::BucketUpperSec(0), 1e-9);
  EXPECT_DOUBLE_EQ(HistogramData::BucketUpperSec(10), 1024e-9);
}

TEST(HistogramTest, ObserveTracksMoments) {
  HistogramData h;
  h.Observe(1e-3);
  h.Observe(3e-3);
  h.Observe(2e-3);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 6e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 2e-3);
  EXPECT_DOUBLE_EQ(h.min, 1e-3);
  EXPECT_DOUBLE_EQ(h.max, 3e-3);
}

TEST(HistogramTest, MergeMatchesSequential) {
  HistogramData whole, a, b;
  const double samples[] = {1e-9, 5e-7, 3e-4, 0.25, 17.0};
  int i = 0;
  for (double s : samples) {
    whole.Observe(s);
    (i++ % 2 == 0 ? a : b).Observe(s);
  }
  a.Merge(b);
  EXPECT_EQ(a.count, whole.count);
  EXPECT_DOUBLE_EQ(a.sum, whole.sum);
  EXPECT_DOUBLE_EQ(a.min, whole.min);
  EXPECT_DOUBLE_EQ(a.max, whole.max);
  EXPECT_EQ(a.buckets, whole.buckets);
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  HistogramData a, empty;
  a.Observe(1e-3);
  const HistogramData before = a;
  a.Merge(empty);
  EXPECT_EQ(a.count, before.count);
  EXPECT_DOUBLE_EQ(a.sum, before.sum);
  EXPECT_DOUBLE_EQ(a.min, before.min);
  EXPECT_DOUBLE_EQ(a.max, before.max);
  EXPECT_EQ(a.buckets, before.buckets);
}

// ------------------------------------------------------------------ metrics

TEST(MetricsRegistryTest, InterningIsIdempotent) {
  MetricsRegistry reg;
  const MetricId c1 = reg.Counter("a.count");
  const MetricId c2 = reg.Counter("a.count");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, kInvalidMetric);
  // The same name as a different kind is a wiring bug: invalid id, and
  // updates through it are dropped instead of corrupting the counter.
  EXPECT_EQ(reg.Gauge("a.count"), kInvalidMetric);
  EXPECT_EQ(reg.Histogram("a.count"), kInvalidMetric);
  reg.Add(kInvalidMetric, 100.0);
  reg.Set(kInvalidMetric, 100.0);
  reg.Observe(kInvalidMetric, 100.0);
  EXPECT_DOUBLE_EQ(reg.CounterValue(c1), 0.0);
}

TEST(MetricsRegistryTest, DirectUpdates) {
  MetricsRegistry reg;
  const MetricId c = reg.Counter("c");
  const MetricId g = reg.Gauge("g");
  const MetricId h = reg.Histogram("h");
  reg.Add(c, 2.0);
  reg.Add(c, 3.0);
  reg.Set(g, 1.0);
  reg.Set(g, 9.0);  // Last write wins.
  reg.Observe(h, 1e-3);
  EXPECT_DOUBLE_EQ(reg.CounterValue(c), 5.0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue(g), 9.0);
  ASSERT_NE(reg.HistogramValue(h), nullptr);
  EXPECT_EQ(reg.HistogramValue(h)->count, 1u);
}

TEST(MetricsRegistryTest, TaskShardsAbsorbInOrder) {
  MetricsRegistry reg;
  const MetricId c = reg.Counter("tasks.count");
  const MetricId g = reg.Gauge("tasks.last");
  const MetricId h = reg.Histogram("tasks.latency");

  TaskMetrics t0, t1;
  t0.Set(g, 10.0);
  t0.Observe(h, 1e-3);
  t1.Set(g, 20.0);
  t1.Observe(h, 2e-3);

  // Counters have no task shard: orchestration code adds to the registry.
  reg.Add(c, 2.0);
  reg.AbsorbTask(t0);
  reg.Add(c, 5.0);
  reg.AbsorbTask(t1);
  EXPECT_DOUBLE_EQ(reg.CounterValue(c), 7.0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue(g), 20.0);  // Absorb order decides.
  ASSERT_NE(reg.HistogramValue(h), nullptr);
  EXPECT_EQ(reg.HistogramValue(h)->count, 2u);
  EXPECT_DOUBLE_EQ(reg.HistogramValue(h)->sum, 3e-3);
}

TEST(MetricsRegistryTest, SnapshotsSortedByName) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("z"), 1.0);
  reg.Add(reg.Counter("a"), 2.0);
  reg.Add(reg.Counter("m"), 3.0);
  const auto values = reg.CounterValues();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "a");
  EXPECT_EQ(values[1].first, "m");
  EXPECT_EQ(values[2].first, "z");
}

// -------------------------------------------------------------------- trace

TEST(TraceRecorderTest, OrchestrationEventsAppendDirectly) {
  TraceRecorder tr;
  tr.Span("map_phase", "mr", 1.0, 2.0);
  tr.Instant("plan_switch", "efind", 1.5, kClusterTrack,
             {{"plan", "cache"}});
  ASSERT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.events()[0].name, "map_phase");
  EXPECT_FALSE(tr.events()[0].instant);
  EXPECT_TRUE(tr.events()[1].instant);
  EXPECT_EQ(tr.events()[1].args.at(0).key, "plan");
}

TEST(TraceRecorderTest, TaskBuffersStageAndRebase) {
  TraceRecorder tr;
  {
    Counters counters;
    TaskContext ctx(/*node_id=*/2, /*task_index=*/5, &counters);
    TaskTrace* tt = tr.TaskLocal(&ctx);
    ASSERT_NE(tt, nullptr);
    EXPECT_EQ(tr.TaskLocal(&ctx), tt);  // Same buffer on re-lookup.
    tt->Span("lookup_batch", "efind", 0.5, 0.25);
    tt->Instant("lookup_failover", "efind", 0.6);
    // Destruction runs the context's pending bag merges -> staged.
  }
  EXPECT_TRUE(tr.events().empty());  // Not yet rebased.
  auto staged = tr.TakeStaged();
  ASSERT_EQ(staged.size(), 1u);
  EXPECT_EQ(staged[0].task_index, 5);
  EXPECT_EQ(staged[0].node, 2);
  ASSERT_EQ(staged[0].events.size(), 2u);

  tr.AppendRebased(staged[0], /*offset_sec=*/10.0, /*lane=*/3);
  ASSERT_EQ(tr.events().size(), 2u);
  EXPECT_DOUBLE_EQ(tr.events()[0].start_sec, 10.5);
  EXPECT_EQ(tr.events()[0].node, 2);
  EXPECT_EQ(tr.events()[0].lane, 3);
  EXPECT_DOUBLE_EQ(tr.events()[1].start_sec, 10.6);
  EXPECT_TRUE(tr.TakeStaged().empty());  // Moved out.
}

TEST(TraceRecorderTest, PerTaskCapDropsDeterministically) {
  TaskTrace tt(/*task_index=*/0, /*node=*/0);
  for (size_t i = 0; i < TaskTrace::kMaxEventsPerTask + 10; ++i) {
    tt.Instant("e", "t", 0.0);
  }
  EXPECT_EQ(tt.dropped(), 10u);
}

TEST(TraceRecorderTest, ClockAdvances) {
  TraceRecorder tr;
  EXPECT_DOUBLE_EQ(tr.clock(), 0.0);
  tr.AdvanceClock(1.5);
  tr.AdvanceClock(0.5);
  EXPECT_DOUBLE_EQ(tr.clock(), 2.0);
}

// ---------------------------------------------------------------- exporters

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(ExportTest, ChromeTraceJsonShape) {
  TraceRecorder tr;
  tr.Span("map_task", "mr", 0.001, 0.002, /*node=*/1, /*lane=*/2);
  tr.Instant("cache_snapshot", "efind", 0.0015, /*node=*/1,
             {{"hit_ratio", "0.5"}});
  tr.Span("map_phase", "mr", 0.0, 0.004);  // Cluster track.
  const std::string json = ChromeTraceJson(tr, /*num_nodes=*/4);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Microsecond conversion: 0.001 s -> 1000 us.
  EXPECT_NE(json.find("\"ts\":1000.0000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000.0000"), std::string::npos);
  // The cluster track is pid = num_nodes, named process metadata included.
  EXPECT_NE(json.find("\"pid\":4"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_ratio\":\"0.5\""), std::string::npos);
}

TEST(ExportTest, ChromeTraceJsonIsDeterministic) {
  auto build = [] {
    TraceRecorder tr;
    tr.Span("map_task", "mr", 0.5, 0.125, 0, 1);
    tr.Instant("task_fault", "mr", 0.625, 0);
    return ChromeTraceJson(tr, 2);
  };
  EXPECT_EQ(build(), build());
}

TEST(ExportTest, ChromeTraceJsonEmptyTraceIsValid) {
  // An event-free trace must not leave a trailing comma after the
  // track-naming metadata block.
  TraceRecorder tr;
  const std::string json = ChromeTraceJson(tr, 3);
  EXPECT_EQ(json.find(",\n]"), std::string::npos);
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_NE(json.find("\"cluster\"}}\n]"), std::string::npos);
}

TEST(ExportTest, RunReportJson) {
  TraceRecorder tr;
  tr.Span("map_phase", "mr", 0.0, 1.0);
  tr.Instant("plan_switch", "efind", 0.5);
  MetricsRegistry reg;
  reg.Add(reg.Counter("mr.map.tasks"), 8.0);
  reg.Add(reg.Counter("efind.reuse.hits"), 2.0);
  reg.Set(reg.Gauge("mr.map.wave_occupancy"), 0.75);
  reg.Observe(reg.Histogram("lookup_latency_sec"), 1e-3);
  Counters counters;
  counters.Increment("efind.h0.idx0.lookups", 42.0);

  RunReportInput in;
  in.name = "toy_join";
  in.sim_seconds = 1.25;
  in.plan = "h0[cache]";
  in.replanned = true;
  in.counters = &counters;
  in.metrics = &reg;
  in.trace = &tr;
  in.config = {{"threads", "8"}, {"fault_seed", "1"}};

  // Every fact once: reuse traffic is only the metric counter, with no
  // separate `reuse` section.
  EXPECT_EQ(RunReportJson(in),
            "{\"job\":\"toy_join\",\"sim_seconds\":1.25,"
            "\"plan\":\"h0[cache]\",\"replanned\":true,"
            "\"config\":{\"threads\":\"8\",\"fault_seed\":\"1\"},"
            "\"counters\":{\"efind.h0.idx0.lookups\":42},"
            "\"metrics\":{\"counters\":{\"efind.reuse.hits\":2,"
            "\"mr.map.tasks\":8},"
            "\"gauges\":{\"mr.map.wave_occupancy\":0.75},"
            "\"histograms\":{\"lookup_latency_sec\":{\"count\":1,"
            "\"sum\":0.001,\"min\":0.001,\"max\":0.001,\"mean\":0.001,"
            "\"buckets\":{\"le_0.001048576\":1}}}},"
            "\"trace\":{\"spans\":1,\"instants\":1,\"dropped\":0}}\n");
}

TEST(ExportTest, WriteFileRoundTrip) {
  const std::string path =
      testing::TempDir() + "/efind_obs_write_file_test.json";
  const std::string content = "{\"ok\": true}\n";
  std::string error;
  ASSERT_TRUE(WriteFile(path, content, &error)) << error;
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), content);

  EXPECT_FALSE(WriteFile("/nonexistent-dir/x/y.json", content, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace obs
}  // namespace efind
