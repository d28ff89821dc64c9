#pragma once
// Always-on flight recorder: per-thread bounded rings of the most recent
// span begin/end and counter-delta events, dumped as the versioned
// "ecopatch-postmortem" JSON document when the process dies mid-run
// (fatal signal, eco::CheckError, engine budget exhaustion) or on demand.
// The Chrome trace (trace.h) answers "how did the whole run spend its
// time" when a session was recording; the flight recorder answers "what
// were the last few hundred things each thread did" with no session and
// no unbounded memory.
//
// Recording model: each thread owns a fixed-capacity ring. The owning
// thread is the only writer; every slot field is a relaxed atomic and the
// monotonically increasing head index is published with a release store,
// so a dumper on another thread reads a consistent recent window without
// locks (TSan-clean). The single slot being overwritten while a dump
// reads it can mix fields from two events; dumps tolerate that one-slot
// fuzziness. Recording an event is a few relaxed stores plus one clock
// read. A thread's ring returns to the registry when the thread exits;
// the last few returned rings stay intact for postmortems, and older ones
// are reset and reused by new threads, so a process that starts a pool
// per run keeps a bounded number of rings.
//
// Signal-path caveat: dumpPostmortem() serializes with ordinary code
// (allocation, the registry mutexes), which is async-signal-unsafe in
// the strict sense. The crash handler accepts that as best effort: the
// process is already dying, a re-entrancy guard stops handler recursion,
// and the handler re-raises with default disposition afterwards so the
// exit status still reflects the original crash.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs_config.h"

namespace eco::obs {

struct FlightEvent {
  enum class Kind : std::uint8_t { kNone = 0, kSpanBegin, kSpanEnd, kCount };

  Kind kind = Kind::kNone;
  const char* name = nullptr;  ///< static-storage span/counter name
  std::uint64_t value = 0;     ///< span: duration ns (end only); count: delta
  std::uint64_t ts_ns = 0;     ///< monotonicNs() at record time
};

/// Record into the calling thread's ring. No-ops in ECO_OBS_DISABLED
/// builds. `name` must have static storage duration (string literal).
void flightRecordSpanBegin(const char* name);
void flightRecordSpanEnd(const char* name, std::uint64_t dur_ns);
void flightRecordCount(const char* name, std::uint64_t n);

/// Names the calling thread's ring in postmortem dumps. trace.h's
/// setThreadName forwards here, so pool workers are named automatically.
void flightSetThreadName(const std::string& name);

struct FlightDump {
  struct ThreadRow {
    std::uint32_t tid = 0;
    std::string name;               ///< "" when never named
    std::uint64_t recorded = 0;     ///< events ever recorded by this thread
    std::vector<FlightEvent> events;  ///< oldest first, at most ring capacity
  };
  std::vector<ThreadRow> threads;  ///< ordered by tid
};

/// Snapshot of every thread's recent events (lock-free reads of the
/// rings; the registry itself takes a mutex).
FlightDump snapshotFlight();

inline constexpr const char* kPostmortemSchema = "ecopatch-postmortem";
inline constexpr int kPostmortemSchemaVersion = 1;

/// Full postmortem document: reason/detail, the live status snapshot
/// (whose "engine.stage" label names the in-flight stage), the resource
/// summary, the counter registry, and each thread's recent events.
std::string postmortemJson(const char* reason, const char* detail);

/// Structural validation (schema name/version, required keys/types),
/// mirroring eco::validateJsonReport.
bool validatePostmortemJson(const std::string& json,
                            std::string* error = nullptr);

/// Configures where dumpPostmortem writes. nullptr or "" disables (the
/// default): dumpPostmortem then does nothing, so library code can call
/// it unconditionally at throw sites without side effects in tests.
void setPostmortemPath(const char* path);

/// Currently configured path, "" when disabled.
std::string postmortemPath();

/// Writes postmortemJson(reason, detail) to the configured path. Returns
/// true when a file was written. Safe to call from any thread; a global
/// guard makes concurrent/recursive dumps single-shot (first wins) until
/// the path is reconfigured.
bool dumpPostmortem(const char* reason, const char* detail);

/// Installs handlers for fatal signals (SIGSEGV, SIGBUS, SIGABRT, SIGFPE,
/// SIGILL) that dump a postmortem with reason "signal:<name>" and then
/// re-raise with the default disposition. No-op when no postmortem path
/// is configured at crash time.
void installCrashHandlers();

}  // namespace eco::obs
