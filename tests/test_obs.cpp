// Tests for the observability subsystem: JSON emitter/parser round trips,
// metrics aggregation under concurrency, trace sessions producing
// well-formed Chrome trace_event JSON with per-thread monotonic spans, the
// status emitter thread, and the postmortem dump paths (CheckError at the
// throw site; a fatal signal in a forked child through the crash handlers).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "eco/engine.h"
#include "obs/obs.h"

namespace eco::obs {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, WriterEscapesAndNests) {
  JsonWriter w;
  w.beginObject();
  w.key("s"); w.value("a\"b\\c\n\t\x01");
  w.key("n"); w.value(std::uint64_t{18446744073709551615ULL});
  w.key("neg"); w.value(std::int64_t{-42});
  w.key("f"); w.valueFixed(1.5, 3);
  w.key("b"); w.value(true);
  w.key("z"); w.nullValue();
  w.key("arr");
  w.beginArray();
  w.value(std::uint32_t{1});
  w.beginObject();
  w.key("k"); w.value("v");
  w.endObject();
  w.endArray();
  w.endObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\","
            "\"n\":18446744073709551615,\"neg\":-42,\"f\":1.500,"
            "\"b\":true,\"z\":null,\"arr\":[1,{\"k\":\"v\"}]}");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  JsonWriter w;
  w.beginObject();
  w.key("name"); w.value("xéy");
  w.key("vals");
  w.beginArray();
  w.value(std::int64_t{-1});
  w.valueFixed(0.25, 2);
  w.endArray();
  w.endObject();

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(w.str(), &doc, &error)) << error;
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("name")->string, "xéy");
  ASSERT_TRUE(doc.find("vals")->isArray());
  EXPECT_EQ(doc.find("vals")->array[0].number, -1.0);
  EXPECT_EQ(doc.find("vals")->array[1].number, 0.25);
}

TEST(Json, ParserRejectsMalformedInput) {
  json::Value doc;
  std::string error;
  EXPECT_FALSE(json::parse("", &doc, &error));
  EXPECT_FALSE(json::parse("{", &doc, &error));
  EXPECT_FALSE(json::parse("{\"a\":1,}", &doc, &error));
  EXPECT_FALSE(json::parse("[1 2]", &doc, &error));
  EXPECT_FALSE(json::parse("\"unterminated", &doc, &error));
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", &doc, &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(Json, NonAsciiAndControlCharactersRoundTrip) {
  // UTF-8 multibyte passes through verbatim; every control byte below
  // 0x20 without a short escape becomes \u00XX. Both must survive a
  // write -> parse round trip byte-exactly.
  const std::string original =
      std::string("héllo wörld \xE2\x82\xAC \xF0\x9F\x94\xA5 ") +  // € + 🔥
      std::string("ctl:\x01\x02\x1f\x7f") + "\b\f\r";
  JsonWriter w;
  w.beginObject();
  w.key("s"); w.value(original);
  w.endObject();

  // The emitted document contains no raw control bytes.
  for (const char c : w.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte in JSON output";
  }

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(w.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.find("s")->string, original);
}

TEST(Json, ParserDecodesUnicodeEscapes) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse("{\"s\":\"a\\u0041\\u00e9\\u20ac\"}", &doc, &error))
      << error;
  EXPECT_EQ(doc.find("s")->string, "aA\xC3\xA9\xE2\x82\xAC");  // A é €
}

TEST(Json, RawValueSplicesDocument) {
  JsonWriter inner;
  inner.beginObject();
  inner.key("x"); inner.value(std::uint64_t{7});
  inner.endObject();
  JsonWriter w;
  w.beginObject();
  w.key("first"); w.value(std::uint64_t{1});
  w.key("inner"); w.rawValue(inner.str());
  w.key("last"); w.value(std::uint64_t{2});
  w.endObject();
  json::Value doc;
  ASSERT_TRUE(json::parse(w.str(), &doc, nullptr));
  EXPECT_EQ(doc.find("inner")->find("x")->number, 7.0);
  EXPECT_EQ(doc.find("last")->number, 2.0);
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, HistogramBucketMath) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(~std::uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::bucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::bucketLowerBound(3), 4u);
}

#if ECO_OBS_ENABLED

TEST(Metrics, CounterAndHistogramBasics) {
  Counter& c = counter("test.obs.basic_counter");
  const std::uint64_t before = c.value();
  ECO_OBS_COUNT("test.obs.basic_counter", 3);
  ECO_OBS_COUNT("test.obs.basic_counter", 2);
  EXPECT_EQ(c.value(), before + 5);
  EXPECT_EQ(counterValue("test.obs.basic_counter"), before + 5);
  EXPECT_EQ(counterValue("test.obs.never_registered"), 0u);

  Histogram& h = histogram("test.obs.basic_hist");
  h.observe(0);
  h.observe(5);
  h.observe(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 105u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucketCount(Histogram::bucketOf(5)), 1u);
}

TEST(Metrics, ConcurrentAggregationIsExact) {
  Counter& c = counter("test.obs.concurrent_counter");
  Histogram& h = histogram("test.obs.concurrent_hist");
  const std::uint64_t c0 = c.value();
  const std::uint64_t n0 = h.count();
  const std::uint64_t s0 = h.sum();

  constexpr std::uint64_t kItems = 10000;
  ThreadPool pool(4);
  pool.parallelFor(kItems, [&](std::size_t i) {
    c.add(2);
    h.observe(i % 17);
  });

  EXPECT_EQ(c.value() - c0, 2 * kItems);
  EXPECT_EQ(h.count() - n0, kItems);
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) expected_sum += i % 17;
  EXPECT_EQ(h.sum() - s0, expected_sum);
}

TEST(Metrics, SnapshotSerializesToValidJson) {
  ECO_OBS_COUNT("test.obs.snap_counter", 1);
  ECO_OBS_OBSERVE("test.obs.snap_hist", 9);
  const MetricsSnapshot snap = snapshotMetrics();
  JsonWriter w;
  writeMetricsJson(w, snap);

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(w.str(), &doc, &error)) << error;
  const json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("test.obs.snap_counter"), nullptr);
  const json::Value* hist = doc.find("histograms")->find("test.obs.snap_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->find("count")->number, 1.0);
  ASSERT_TRUE(hist->find("buckets")->isArray());
}

// --------------------------------------------------------------- trace --

TEST(Trace, DisabledByDefaultAndSpansAreCheap) {
  ASSERT_FALSE(traceEnabled());
  Span s("test.untraced");
  EXPECT_EQ(s.stop(), 0.0);  // kTrace mode does not even read the clock

  Span timed("test.timed", Span::Mode::kTimed);
  EXPECT_GE(timed.stop(), 0.0);  // kTimed always measures
  EXPECT_EQ(timed.stop(), timed.stop());  // idempotent
}

TEST(Trace, SessionCapturesNestedSpansAcrossPoolWorkers) {
  setThreadName("gtest-main");
  startTrace();
  {
    Span outer("test.outer", Span::Mode::kTimed);
    outer.arg("answer", 42);
    {
      Span inner("test.inner");
      inner.arg("k", 7);
    }
    ThreadPool pool(3);
    pool.parallelFor(16, [&](std::size_t i) {
      Span worker("test.worker");
      worker.arg("i", i);
    });
    // The caller of parallelFor may run every iteration itself, and a
    // thread is named in the dump only once it records an event; a
    // submitted task always runs on a worker.
    pool.submit([] { Span s("test.submitted"); }).get();
  }
  const TraceDump dump = stopTrace();

  ASSERT_FALSE(dump.events.empty());
  EXPECT_EQ(dump.dropped_events, 0u);
  EXPECT_GT(dump.session_ns, 0u);

  std::size_t outer_n = 0, inner_n = 0, worker_n = 0;
  std::uint32_t outer_tid = 0;
  std::uint64_t outer_ts = 0, outer_end = 0;
  for (const TraceEvent& e : dump.events) {
    const std::string name = e.name;
    if (name == "test.outer") {
      ++outer_n;
      outer_tid = e.tid;
      outer_ts = e.ts_ns;
      outer_end = e.ts_ns + e.dur_ns;
      ASSERT_NE(e.arg_name, nullptr);
      EXPECT_EQ(e.arg_value, 42u);
    } else if (name == "test.inner") {
      ++inner_n;
    } else if (name == "test.worker") {
      ++worker_n;
    }
  }
  EXPECT_EQ(outer_n, 1u);
  EXPECT_EQ(inner_n, 1u);
  EXPECT_EQ(worker_n, 16u);

  // The inner span is contained in the outer span on the same thread.
  for (const TraceEvent& e : dump.events) {
    if (std::string(e.name) == "test.inner") {
      EXPECT_EQ(e.tid, outer_tid);
      EXPECT_GE(e.ts_ns, outer_ts);
      EXPECT_LE(e.ts_ns + e.dur_ns, outer_end);
    }
  }

  // Per-thread monotonic start order (the dump is sorted by tid, ts).
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (const TraceEvent& e : dump.events) {
    const auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) EXPECT_GE(e.ts_ns, it->second);
    last_ts[e.tid] = e.ts_ns;
  }

  // Threads that recorded events carry their names.
  bool main_named = false, pool_named = false;
  for (const auto& [tid, name] : dump.thread_names) {
    if (name == "gtest-main") main_named = true;
    if (name.rfind("pool-", 0) == 0) pool_named = true;
  }
  EXPECT_TRUE(main_named);
  EXPECT_TRUE(pool_named);
}

TEST(Trace, ChromeExportIsValidTraceEventJson) {
  // Each gtest case may run in its own process (ctest per-test invocation),
  // so register this thread's name here rather than relying on a prior test.
  setThreadName("gtest-main");
  startTrace();
  {
    Span s("test.export", Span::Mode::kTimed);
    s.arg("bytes", 1024);
  }
  const TraceDump dump = stopTrace();
  const std::string json = chromeTraceJson(dump);

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(json, &doc, &error)) << error;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());

  bool saw_export = false, saw_thread_name = false;
  for (const json::Value& e : events->array) {
    const std::string ph = e.find("ph")->string;
    if (ph == "M" && e.find("name")->string == "thread_name") {
      saw_thread_name = true;
    }
    if (ph != "X") continue;
    EXPECT_GE(e.find("ts")->number, 0.0);
    EXPECT_GE(e.find("dur")->number, 0.0);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (e.find("name")->string == "test.export") {
      saw_export = true;
      EXPECT_EQ(e.find("args")->find("bytes")->number, 1024.0);
    }
  }
  EXPECT_TRUE(saw_export);
  EXPECT_TRUE(saw_thread_name);
}

TEST(Trace, SecondSessionDoesNotReplayOldEvents) {
  startTrace();
  { Span s("test.first_session"); }
  (void)stopTrace();

  startTrace();
  { Span s("test.second_session"); }
  const TraceDump dump = stopTrace();
  for (const TraceEvent& e : dump.events) {
    EXPECT_STRNE(e.name, "test.first_session");
  }
}

TEST(Trace, NewSessionFreesEarlierSessionEvents) {
  startTrace();
  for (int i = 0; i < 10000; ++i) Span s("test.bulk_session");
  const TraceDump first = stopTrace();
  EXPECT_EQ(first.events.size(), 10000u);
  const std::uint64_t held = bufferedTraceEvents();
  ASSERT_GE(held, 10000u);

  // This thread's first event of the next session frees its 10,000 old
  // events; no other thread emits meanwhile.
  startTrace();
  { Span s("test.small_session"); }
  const TraceDump second = stopTrace();
  ASSERT_EQ(second.events.size(), 1u);
  EXPECT_STREQ(second.events[0].name, "test.small_session");
  EXPECT_EQ(second.dropped_events, 0u);
  EXPECT_LE(bufferedTraceEvents(), held - 10000 + 1);
}

TEST(Trace, NamedThreadsWithoutEventsTakeNoBuffer) {
  // Threads that name themselves but never emit (idle pool workers,
  // untraced runs) must not leave a buffer in the never-freed registry.
  std::vector<std::thread> threads;
  for (int i = 0; i < 32; ++i) {
    threads.emplace_back([i] { setThreadName("idle-" + std::to_string(i)); });
  }
  for (std::thread& t : threads) t.join();

  startTrace();
  { Span s("test.after_idle"); }
  const TraceDump dump = stopTrace();
  ASSERT_FALSE(dump.events.empty());
  for (const auto& [tid, name] : dump.thread_names) {
    EXPECT_NE(name.rfind("idle-", 0), 0u) << name;
  }
}

// ------------------------------------------------------------ progress --

TEST(Progress, GaugesAndLabelsPublish) {
  ECO_OBS_GAUGE_SET("test.obs.gauge", 41);
  ECO_OBS_GAUGE_ADD("test.obs.gauge", 1);
  EXPECT_EQ(gaugeValue("test.obs.gauge"), 42);
  EXPECT_EQ(gaugeValue("test.obs.gauge_never"), 0);

  setLabel("test.obs.slot", "alpha");
  EXPECT_STREQ(labelValue("test.obs.slot"), "alpha");
  {
    ProgressScope outer("test.obs.slot", "beta");
    EXPECT_STREQ(labelValue("test.obs.slot"), "beta");
    {
      ProgressScope inner("test.obs.slot", "gamma");
      EXPECT_STREQ(labelValue("test.obs.slot"), "gamma");
    }
    // Nested scopes unwind to the enclosing value, not to empty.
    EXPECT_STREQ(labelValue("test.obs.slot"), "beta");
  }
  EXPECT_STREQ(labelValue("test.obs.slot"), "alpha");
  setLabel("test.obs.slot", nullptr);
  EXPECT_EQ(labelValue("test.obs.slot"), nullptr);
}

TEST(Progress, SnapshotSeesCurrentState) {
  ECO_OBS_GAUGE_SET("test.obs.snap_gauge", 7);
  setLabel("test.obs.snap_slot", "running");
  const StatusSnapshot snap = snapshotStatus();
  bool saw_gauge = false, saw_label = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "test.obs.snap_gauge") {
      saw_gauge = true;
      EXPECT_EQ(g.value, 7);
    }
  }
  for (const auto& l : snap.labels) {
    if (l.slot == "test.obs.snap_slot") {
      saw_label = true;
      EXPECT_EQ(l.value, "running");
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_label);
  setLabel("test.obs.snap_slot", nullptr);
}

// ------------------------------------------------------ flight recorder --

TEST(FlightRecorder, RecordsSpansAndCounts) {
  flightSetThreadName("flight-test");
  { Span s("test.flight.span", Span::Mode::kTimed); }
  ECO_OBS_COUNT("test.flight.count", 5);

  const FlightDump dump = snapshotFlight();
  bool begin = false, end = false, count = false;
  for (const auto& t : dump.threads) {
    for (const FlightEvent& e : t.events) {
      if (e.name == nullptr) continue;
      const std::string name = e.name;
      if (name == "test.flight.span") {
        if (e.kind == FlightEvent::Kind::kSpanBegin) begin = true;
        if (e.kind == FlightEvent::Kind::kSpanEnd) end = true;
      } else if (name == "test.flight.count" &&
                 e.kind == FlightEvent::Kind::kCount && e.value == 5) {
        count = true;
      }
    }
  }
  EXPECT_TRUE(begin);
  EXPECT_TRUE(end);
  EXPECT_TRUE(count);
}

TEST(FlightRecorder, RingBoundsMemoryAndKeepsNewest) {
  // Far more events than the ring holds: the snapshot stays bounded and
  // contains the most recent events, monotonically timestamped.
  for (int i = 0; i < 5000; ++i) ECO_OBS_COUNT("test.flight.flood", 1);
  { Span last("test.flight.after_flood", Span::Mode::kTimed); }

  const FlightDump dump = snapshotFlight();
  bool saw_last = false;
  for (const auto& t : dump.threads) {
    EXPECT_LE(t.events.size(), 1024u) << "ring did not bound history";
    std::uint64_t prev_ts = 0;
    for (const FlightEvent& e : t.events) {
      EXPECT_GE(e.ts_ns, prev_ts);
      prev_ts = e.ts_ns;
      if (e.name != nullptr &&
          std::string(e.name) == "test.flight.after_flood") {
        saw_last = true;
      }
    }
    if (t.name == "flight-test" || t.recorded > 5000) {
      EXPECT_GE(t.recorded, t.events.size());
    }
  }
  EXPECT_TRUE(saw_last);
}

TEST(FlightRecorder, WorkerThreadsGetOwnRings) {
  std::thread worker([] {
    setThreadName("flight-worker");
    ECO_OBS_COUNT("test.flight.worker_count", 1);
  });
  worker.join();
  const FlightDump dump = snapshotFlight();
  bool saw = false;
  for (const auto& t : dump.threads) {
    if (t.name != "flight-worker") continue;
    for (const FlightEvent& e : t.events) {
      if (e.name != nullptr &&
          std::string(e.name) == "test.flight.worker_count") {
        saw = true;
      }
    }
  }
  EXPECT_TRUE(saw);
}

TEST(FlightRecorder, EngineRunsKeepRingCountBounded) {
  // Each multi-threaded run starts a fresh pool whose workers record into
  // rings; rings of exited workers are reused, so 600 worker threads over
  // 200 runs leave only the live threads plus the few kept dead rings.
  EcoInstance inst;
  {
    Aig& g = inst.golden;
    const Lit a = g.addPi("a");
    const Lit b = g.addPi("b");
    g.addPo(g.mkXor(a, b), "o");
  }
  {
    Aig& f = inst.faulty;
    f.addPi("a");
    f.addPi("b");
    const Lit t = f.addPi("t");
    inst.num_x = 2;
    f.addPo(t, "o");
  }
  EcoOptions options;
  options.num_threads = 3;
  const EcoEngine engine(options);
  for (int run = 0; run < 200; ++run) {
    ASSERT_TRUE(engine.run(inst).success) << "run " << run;
  }
  EXPECT_LE(snapshotFlight().threads.size(), 16u);
}

#endif  // ECO_OBS_ENABLED

// The documents below must stay schema-valid in BOTH obs modes: an
// ECO_OBS_DISABLED build still serves /status and writes postmortems,
// just with empty registries.

TEST(Progress, StatusJsonValidates) {
  const std::string json = statusJson();
  std::string error;
  EXPECT_TRUE(validateStatusJson(json, &error)) << error << "\n" << json;
  // One line: safe to stream over --status-fd.
  EXPECT_EQ(json.find('\n'), std::string::npos);

  EXPECT_FALSE(validateStatusJson("{}", &error));
  EXPECT_FALSE(validateStatusJson("not json", &error));
  std::string wrong = json;
  const auto pos = wrong.find("ecopatch-status");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 15, "ecopatch-nonsns");
  EXPECT_FALSE(validateStatusJson(wrong, &error));
}

TEST(Progress, HeartbeatFiresAfterSilence) {
  Heartbeat hb(0.05);
  EXPECT_FALSE(hb.due());  // armed at construction, no silence yet
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(hb.due());
  EXPECT_FALSE(hb.due());  // edge-triggered: re-armed by the firing
  hb.beat();
  EXPECT_FALSE(hb.due());

  Heartbeat never(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(never.due());  // non-positive period never fires
}

TEST(FlightRecorder, PostmortemJsonValidates) {
  const std::string json = postmortemJson("unit-test", "synthetic dump");
  std::string error;
  EXPECT_TRUE(validatePostmortemJson(json, &error)) << error << "\n" << json;

  json::Value doc;
  ASSERT_TRUE(json::parse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.find("schema")->string, kPostmortemSchema);
  EXPECT_EQ(doc.find("reason")->string, "unit-test");
  EXPECT_EQ(doc.find("detail")->string, "synthetic dump");
  ASSERT_TRUE(doc.find("threads")->isArray());

  EXPECT_FALSE(validatePostmortemJson("{}", &error));
  EXPECT_FALSE(validatePostmortemJson("[]", &error));
}

TEST(FlightRecorder, DumpPostmortemWritesConfiguredPathOnce) {
  const std::string path =
      ::testing::TempDir() + "/eco_obs_postmortem_test.json";
  std::remove(path.c_str());

  // Disabled by default: no path, no file, no error.
  setPostmortemPath(nullptr);
  EXPECT_FALSE(dumpPostmortem("unit-test", "ignored"));

  setPostmortemPath(path.c_str());
  EXPECT_EQ(postmortemPath(), path);
  EXPECT_TRUE(dumpPostmortem("unit-test", "first"));
  // Single-shot: the first dump wins until the path is reconfigured.
  EXPECT_FALSE(dumpPostmortem("unit-test", "second"));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  EXPECT_TRUE(validatePostmortemJson(ss.str(), &error)) << error;
  json::Value doc;
  ASSERT_TRUE(json::parse(ss.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.find("detail")->string, "first");

  setPostmortemPath(nullptr);
  std::remove(path.c_str());
}

// ----------------------------------------- status stream and postmortems --

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(StatusEmitter, StreamsValidStatusLines) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(startStatusEmitter(fds[1], 0.05));
  EXPECT_FALSE(startStatusEmitter(fds[1], 0.05)) << "already running";
  requestStatusDump();  // on-demand line in addition to the periodic ones
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stopStatusEmitter();
  ::close(fds[1]);

  std::string stream;
  char buf[65536];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    stream.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);

  std::istringstream lines(stream);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++count;
    std::string error;
    EXPECT_TRUE(validateStatusJson(line, &error)) << error << "\n" << line;
  }
  // ~250ms at a 50ms period plus the requested dump and the final line.
  EXPECT_GE(count, 3u);
}

TEST(Postmortem, CheckErrorDumpsAtThrowSite) {
  const std::string path = ::testing::TempDir() + "/eco_check_postmortem.json";
  std::remove(path.c_str());
  setPostmortemPath(path.c_str());

  // The dump happens inside checkFailed, before unwinding: the stage
  // label active at the throw site must appear in the postmortem even
  // though this scope is gone by the time the exception is caught.
  EXPECT_THROW(
      {
        ProgressScope stage("engine.stage", "postmortem-test-stage");
        ECO_CHECK_MSG(false, "planted failure");
      },
      CheckError);
  setPostmortemPath(nullptr);

  const std::string json = readFile(path);
  ASSERT_FALSE(json.empty()) << "no postmortem written to " << path;
  std::string error;
  EXPECT_TRUE(validatePostmortemJson(json, &error)) << error;

  json::Value doc;
  ASSERT_TRUE(json::parse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.find("reason")->string, "check-error");
  EXPECT_NE(doc.find("detail")->string.find("planted failure"),
            std::string::npos);
#if ECO_OBS_ENABLED
  const json::Value* labels = doc.find("labels");
  ASSERT_NE(labels->find("engine.stage"), nullptr);
  EXPECT_EQ(labels->find("engine.stage")->string, "postmortem-test-stage");
#endif
  std::remove(path.c_str());
}

TEST(Postmortem, FatalSignalInChildDumpsViaCrashHandlers) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes intercept fatal signals";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes intercept fatal signals";
#endif
#endif
  const std::string path = ::testing::TempDir() + "/eco_crash_postmortem.json";
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: configure the dump, record some activity, then die the way
    // a real crash does. _exit on any unexpected path so gtest state
    // never doubles up.
    setPostmortemPath(path.c_str());
    installCrashHandlers();
    setLabel("engine.stage", "child-crash-stage");
    { Span s("child.crash.span", Span::Mode::kTimed); }
    ::raise(SIGSEGV);
    ::_exit(97);  // unreachable if the handler re-raises correctly
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // The handler re-raises with default disposition: death by SIGSEGV,
  // not a clean exit.
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with "
                                   << WEXITSTATUS(status);
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string json = readFile(path);
  ASSERT_FALSE(json.empty()) << "crash handler wrote no postmortem";
  std::string error;
  EXPECT_TRUE(validatePostmortemJson(json, &error)) << error;
  json::Value doc;
  ASSERT_TRUE(json::parse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.find("reason")->string, "signal:SIGSEGV");
#if ECO_OBS_ENABLED
  EXPECT_EQ(doc.find("labels")->find("engine.stage")->string,
            "child-crash-stage");
  bool saw_span = false;
  for (const json::Value& t : doc.find("threads")->array) {
    for (const json::Value& e : t.find("events")->array) {
      if (e.find("name")->string == "child.crash.span") saw_span = true;
    }
  }
  EXPECT_TRUE(saw_span);
#endif
  std::remove(path.c_str());
}

// ------------------------------------------------------------ resource --

TEST(Resource, SnapshotIsPlausible) {
  const ResourceSnapshot snap = snapshotResources();
  EXPECT_GT(snap.peak_rss_bytes, 0u);
  EXPECT_GE(snap.cpu_seconds, 0.0);

  JsonWriter w;
  writeResourceJson(w, snap);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(w.str(), &doc, &error)) << error;
  EXPECT_GT(doc.find("peak_rss_bytes")->number, 0.0);
  ASSERT_TRUE(doc.find("threads")->isArray());
}

TEST(Resource, ThreadCpuRegistrationAppearsInSnapshot) {
  std::atomic<bool> go{false};
  std::thread t([&] {
    ThreadCpuRegistration reg("resource-test-thread");
    // Burn a little CPU so the clock reads nonzero.
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 2000000; ++i) x += i;
    go.store(true);
    while (go.load()) std::this_thread::yield();
  });
  while (!go.load()) std::this_thread::yield();
  const ResourceSnapshot snap = snapshotResources();
  bool saw = false;
  for (const auto& row : snap.threads) {
    if (row.name == "resource-test-thread") {
      saw = true;
      EXPECT_GE(row.cpu_seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw);
  go.store(false);
  t.join();

  // After the registration dies the row is gone.
  const ResourceSnapshot after = snapshotResources();
  for (const auto& row : after.threads) {
    EXPECT_NE(row.name, "resource-test-thread");
  }
}

TEST(Resource, UsageSinceComputesDeltas) {
  const ResourceUsage begin = currentUsage();
  std::vector<std::unique_ptr<std::uint64_t>> keep;
  for (int i = 0; i < 1000; ++i) {
    keep.push_back(std::make_unique<std::uint64_t>(i));
  }
  const ResourceUsage delta = usageSince(begin);
  EXPECT_GE(delta.cpu_seconds, 0.0);
  // Peak RSS carries the current monotonic peak, not a delta.
  EXPECT_GE(delta.peak_rss_bytes, begin.peak_rss_bytes);
  // The allocation hook is compiled out under sanitizers and
  // ECO_OBS_DISABLED; a nonzero global count means it is live.
  if (allocCount() != 0) {
    EXPECT_GE(delta.alloc_count, 1000u);
  }
}

}  // namespace
}  // namespace eco::obs
