#pragma once
// Hierarchical scoped spans with thread-local, lock-free event buffers,
// exported as Chrome trace_event JSON (load the file in chrome://tracing
// or https://ui.perfetto.dev).
//
// Recording model: each thread appends completed spans to its own chunked
// buffer — single-writer slots published with a release store, no locks
// or CAS on the hot path (the chunk list and the thread registry take a
// mutex only on chunk rollover / first event per thread). Events carry
// absolute steady-clock timestamps; a session is the [startTrace,
// stopTrace) time window and stopTrace() drains every thread's buffer,
// keeping the events that fall inside the window. A thread's first event
// in a new session frees its chunks of earlier sessions and restarts its
// per-session event cap. Spans nest by scope:
// Perfetto reconstructs the hierarchy per thread from the (ts, dur)
// containment of complete ("X") events, which RAII scoping guarantees.
//
// When tracing is off (the default), a Span construction is one relaxed
// atomic load; Mode::kTimed spans additionally read the steady clock so
// callers can keep populating wall-clock stats (PatchResult) with the
// same object. With ECO_OBS_DISABLED builds, tracing is compiled out and
// only kTimed clock reads remain.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs_config.h"

namespace eco::obs {

struct TraceEvent {
  const char* name = nullptr;      ///< static-storage span name
  const char* arg_name = nullptr;  ///< optional single argument
  std::uint64_t arg_value = 0;
  std::uint64_t ts_ns = 0;   ///< start, relative to the session start
  std::uint64_t dur_ns = 0;  ///< duration
  std::uint32_t tid = 0;     ///< obs-assigned dense thread id
};

struct TraceDump {
  std::vector<TraceEvent> events;  ///< sorted by (tid, ts_ns, -dur)
  std::vector<std::pair<std::uint32_t, std::string>> thread_names;
  std::uint64_t dropped_events = 0;  ///< lost to the per-thread cap
  std::uint64_t session_ns = 0;      ///< session wall-clock length
};

/// Nanoseconds on the steady clock since the process-wide obs epoch
/// (first use). The shared timebase for trace events, the flight
/// recorder, live-status uptime, and heartbeats.
std::uint64_t monotonicNs();

/// True while a session is recording. One relaxed load.
bool traceEnabled();

/// Opens a recording session. Nested/overlapping sessions are not
/// supported: a second start before stop is a no-op.
void startTrace();

/// Closes the session and drains every thread's events recorded inside
/// it. Spans still open on other threads when stop is called are lost
/// (best effort); returns an empty dump when no session was open.
TraceDump stopTrace();

/// Events the registry holds over all threads. A thread's events of
/// earlier sessions count until its first event in a later session frees
/// them.
std::uint64_t bufferedTraceEvents();

/// Names the calling thread in trace exports ("main", "pool-3", ...).
/// The thread-pool workers register themselves; call this from other
/// long-lived threads that emit spans.
void setThreadName(std::string name);

/// Serializes a dump in Chrome trace_event JSON object format.
std::string chromeTraceJson(const TraceDump& dump);

/// Writes chromeTraceJson to `path`; false + `error` on I/O failure.
bool writeChromeTrace(const std::string& path, const TraceDump& dump,
                      std::string* error = nullptr);

class Span {
 public:
  enum class Mode : std::uint8_t {
    kTrace,  ///< time only when a session is recording
    kTimed,  ///< always time; seconds()/stop() report the duration
  };

  explicit Span(const char* name, Mode mode = Mode::kTrace);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Attaches one integer argument, shown in the trace viewer.
  void arg(const char* key, std::uint64_t value) {
    arg_name_ = key;
    arg_value_ = value;
  }

  /// Seconds since construction (0 when untimed).
  double seconds() const;

  /// Ends the span now (idempotent), emits the trace event when a session
  /// is recording, and returns the measured duration in seconds.
  double stop();

 private:
  const char* name_;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_value_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t dur_ns_ = 0;
  bool timing_ = false;
  bool tracing_ = false;
  bool done_ = false;
};

}  // namespace eco::obs
