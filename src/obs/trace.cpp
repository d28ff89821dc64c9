#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "obs/flight_recorder.h"
#include "obs/json.h"

namespace eco::obs {
namespace {

/// Nanoseconds on the steady clock since a process-wide epoch (first use).
std::uint64_t nowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

#if ECO_OBS_ENABLED

/// Fixed-capacity event chunk: its owning thread is the only writer and
/// publishes each slot with a release store of `count`; the drain reads
/// `count` with acquire and only touches slots below it.
struct Chunk {
  static constexpr std::uint32_t kCap = 4096;
  std::atomic<std::uint32_t> count{0};
  std::array<TraceEvent, kCap> events;
};

/// Spans one thread can record per session before dropping; bounds trace
/// memory to ~96 MB/thread worst case (48 B/event x 2M).
constexpr std::uint64_t kMaxEventsPerThread = 2u << 20;

struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t id) : tid(id) {}

  const std::uint32_t tid;
  // Writer-private fields (owner thread only).
  Chunk* open = nullptr;
  std::uint64_t total = 0;    ///< events of session `session`
  std::uint64_t session = 0;  ///< session of the buffered events
  // Shared fields, guarded by Registry::mutex.
  std::vector<std::unique_ptr<Chunk>> chunks;
  std::string name;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

/// Never destroyed: buffers must outlive detached/exiting threads and any
/// atexit-time drain.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_dropped{0};
std::uint64_t g_session_start_ns = 0;  ///< guarded by Registry::mutex
/// Sessions opened so far; the current one while recording.
std::atomic<std::uint64_t> g_session{0};

/// A thread gets its (never freed) buffer on its first event; until then
/// setThreadName only keeps the name here.
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::string t_name;

ThreadBuffer& localBuffer() {
  if (t_buffer == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto buf =
        std::make_unique<ThreadBuffer>(static_cast<std::uint32_t>(reg.buffers.size()));
    buf->name = t_name;
    t_buffer = buf.get();
    reg.buffers.push_back(std::move(buf));
  }
  return *t_buffer;
}

void emitEvent(const char* name, const char* arg_name, std::uint64_t arg_value,
               std::uint64_t ts_ns, std::uint64_t dur_ns) {
  ThreadBuffer& b = localBuffer();
  const std::uint64_t session = g_session.load();
  if (b.session != session) {
    // First event of a new session: the chunks hold only events of earlier
    // sessions, which stopTrace already drained or skips.
    std::lock_guard<std::mutex> lock(registry().mutex);
    b.chunks.clear();
    b.open = nullptr;
    b.total = 0;
    b.session = session;
  }
  if (b.total >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (b.open == nullptr ||
      b.open->count.load(std::memory_order_relaxed) == Chunk::kCap) {
    auto chunk = std::make_unique<Chunk>();
    Chunk* raw = chunk.get();
    std::lock_guard<std::mutex> lock(registry().mutex);
    b.chunks.push_back(std::move(chunk));
    b.open = raw;
  }
  const std::uint32_t i = b.open->count.load(std::memory_order_relaxed);
  b.open->events[i] =
      TraceEvent{name, arg_name, arg_value, ts_ns, dur_ns, b.tid};
  b.open->count.store(i + 1, std::memory_order_release);
  ++b.total;
}

#endif  // ECO_OBS_ENABLED

}  // namespace

std::uint64_t monotonicNs() { return nowNs(); }

bool traceEnabled() {
#if ECO_OBS_ENABLED
  return g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void startTrace() {
#if ECO_OBS_ENABLED
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (g_enabled.load(std::memory_order_relaxed)) return;
  g_session_start_ns = nowNs();
  g_session.fetch_add(1);
  g_enabled.store(true, std::memory_order_release);
#endif
}

TraceDump stopTrace() {
  TraceDump dump;
#if ECO_OBS_ENABLED
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (!g_enabled.load(std::memory_order_relaxed)) return dump;
  g_enabled.store(false, std::memory_order_release);
  const std::uint64_t start = g_session_start_ns;
  dump.session_ns = nowNs() - start;
  dump.dropped_events = g_dropped.exchange(0, std::memory_order_relaxed);
  for (const auto& buf : reg.buffers) {
    if (!buf->name.empty()) {
      dump.thread_names.emplace_back(buf->tid, buf->name);
    }
    for (const auto& chunk : buf->chunks) {
      const std::uint32_t n = chunk->count.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < n; ++i) {
        TraceEvent ev = chunk->events[i];
        if (ev.ts_ns < start) continue;  // recorded in an earlier session
        ev.ts_ns -= start;
        dump.events.push_back(ev);
      }
    }
  }
  std::sort(dump.events.begin(), dump.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;  // enclosing span first
            });
#endif
  return dump;
}

std::uint64_t bufferedTraceEvents() {
  std::uint64_t n = 0;
#if ECO_OBS_ENABLED
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    for (const auto& chunk : buf->chunks) {
      n += chunk->count.load(std::memory_order_acquire);
    }
  }
#endif
  return n;
}

void setThreadName(std::string name) {
#if ECO_OBS_ENABLED
  flightSetThreadName(name);
  if (t_buffer != nullptr) {
    std::lock_guard<std::mutex> lock(registry().mutex);
    t_buffer->name = name;
  }
  t_name = std::move(name);
#else
  (void)name;
#endif
}

std::string chromeTraceJson(const TraceDump& dump) {
  JsonWriter w;
  w.beginObject();
  w.key("traceEvents").beginArray();
  w.beginObject();
  w.key("ph").value("M");
  w.key("name").value("process_name");
  w.key("pid").value(std::uint64_t{1});
  w.key("tid").value(std::uint64_t{0});
  w.key("args").beginObject().key("name").value("ecopatch").endObject();
  w.endObject();
  for (const auto& [tid, name] : dump.thread_names) {
    w.beginObject();
    w.key("ph").value("M");
    w.key("name").value("thread_name");
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(std::uint64_t{tid});
    w.key("args").beginObject().key("name").value(name).endObject();
    w.endObject();
  }
  for (const TraceEvent& ev : dump.events) {
    w.beginObject();
    w.key("ph").value("X");
    w.key("name").value(ev.name);
    w.key("cat").value("eco");
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(std::uint64_t{ev.tid});
    w.key("ts").valueFixed(static_cast<double>(ev.ts_ns) / 1e3, 3);
    w.key("dur").valueFixed(static_cast<double>(ev.dur_ns) / 1e3, 3);
    if (ev.arg_name != nullptr) {
      w.key("args").beginObject().key(ev.arg_name).value(ev.arg_value).endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").beginObject();
  w.key("dropped_events").value(dump.dropped_events);
  w.key("session_us").valueFixed(static_cast<double>(dump.session_ns) / 1e3, 3);
  w.endObject();
  w.endObject();
  return w.take();
}

bool writeChromeTrace(const std::string& path, const TraceDump& dump,
                      std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << chromeTraceJson(dump);
  out.close();
  if (!out) {
    if (error != nullptr) *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

Span::Span(const char* name, Mode mode) : name_(name) {
  tracing_ = traceEnabled();
  timing_ = tracing_ || mode == Mode::kTimed;
  if (timing_) start_ns_ = nowNs();
#if ECO_OBS_ENABLED
  flightRecordSpanBegin(name_);
#endif
}

double Span::seconds() const {
  if (done_ || !timing_) return static_cast<double>(dur_ns_) * 1e-9;
  return static_cast<double>(nowNs() - start_ns_) * 1e-9;
}

double Span::stop() {
  if (!done_) {
    done_ = true;
    if (timing_) {
      dur_ns_ = nowNs() - start_ns_;
#if ECO_OBS_ENABLED
      if (tracing_) {
        emitEvent(name_, arg_name_, arg_value_, start_ns_, dur_ns_);
      }
#endif
    }
#if ECO_OBS_ENABLED
    flightRecordSpanEnd(name_, dur_ns_);
#endif
  }
  return static_cast<double>(dur_ns_) * 1e-9;
}

}  // namespace eco::obs
