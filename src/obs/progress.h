#pragma once
// Live run status: process-global gauges and label slots that long-running
// stages publish into, snapshotted on demand as the versioned
// "ecopatch-status" JSON document (DESIGN.md "Observability").
//
// The metrics registry (metrics.h) answers "how much work has happened";
// this layer answers "what is the process doing right now". Publishers are
// the engine stages (ProgressScope labels), the FRAIG round loop and the
// SAT search loop (gauges), and the fuzz sweep. Consumers are the CLI
// --status-fd stream, the SIGUSR1 dump, and the flight-recorder
// postmortem (the "in-flight stage" it names is the engine.stage label at
// dump time).
//
// Update contract mirrors metrics.h: interned once per site, then relaxed
// atomic stores — safe from any thread, no locks, no allocation. With
// several engines in one process the slots are last-writer-wins, which is
// the intended "what is happening now" semantics. -DECO_OBS_DISABLED=ON
// compiles every update site out; snapshots are then empty (still
// schema-valid).

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs_config.h"

namespace eco::obs {

/// Instantaneous signed value (current FRAIG round, conflicts into the
/// running SAT query, instances into a fuzz sweep, ...).
class Gauge {
 public:
  void set(std::int64_t v) {
#if ECO_OBS_ENABLED
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void add(std::int64_t d) {
#if ECO_OBS_ENABLED
    v_.fetch_add(d, std::memory_order_relaxed);
#else
    (void)d;
#endif
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Interns `name` (same contract as obs::counter): first call registers,
/// references stay valid for the process lifetime.
Gauge& gauge(std::string_view name);

/// Current value of a registered gauge; 0 when no site registered it.
std::int64_t gaugeValue(std::string_view name);

/// Label slots: named textual states ("engine.stage" -> "fraig"). Values
/// MUST be static-storage strings (string literals): the slot stores the
/// pointer, so publishing is one relaxed atomic store. nullptr clears.
void setLabel(std::string_view slot, const char* value);
/// Current value of a label slot; nullptr when unset or never registered.
const char* labelValue(std::string_view slot);

/// RAII stage publisher: sets `slot` to `value`, restores the previous
/// value on destruction (so nested scopes unwind correctly, including
/// through exceptions — a postmortem dumped during unwinding still sees
/// the enclosing stage).
class ProgressScope {
 public:
  ProgressScope(const char* slot, const char* value);
  ProgressScope(const ProgressScope&) = delete;
  ProgressScope& operator=(const ProgressScope&) = delete;
  ~ProgressScope();

 private:
#if ECO_OBS_ENABLED
  std::atomic<const char*>* slot_ = nullptr;
  const char* previous_ = nullptr;
#endif
};

struct StatusSnapshot {
  struct LabelRow {
    std::string slot;
    std::string value;  ///< "" when the slot is currently cleared
  };
  struct GaugeRow {
    std::string name;
    std::int64_t value = 0;
  };
  std::vector<LabelRow> labels;  ///< sorted by slot; cleared slots omitted
  std::vector<GaugeRow> gauges;  ///< sorted by name
  double uptime_seconds = 0;     ///< since the obs clock epoch (first use)
};

/// Snapshot of every registered label and gauge.
StatusSnapshot snapshotStatus();

inline constexpr const char* kStatusSchema = "ecopatch-status";
inline constexpr int kStatusSchemaVersion = 1;

/// One-line JSON document (no embedded newlines): schema, uptime, labels,
/// gauges, and a resource summary (RSS / CPU). Safe to stream line-wise.
std::string statusJson();

/// Structural validation of a status document (schema name/version plus
/// required keys/types), mirroring eco::validateJsonReport.
bool validateStatusJson(const std::string& json, std::string* error = nullptr);

/// Generalized heartbeat: "emit a liveness line when `period` seconds pass
/// silently" (extracted from the fuzz sweep's progress loop so any long
/// runner can reuse it). due() is edge-triggered: it returns true at most
/// once per elapsed period and re-arms itself; beat() re-arms without
/// firing (call it when regular progress output made a heartbeat
/// redundant). A non-positive period never fires.
class Heartbeat {
 public:
  explicit Heartbeat(double period_seconds);
  bool due();
  void beat();
  double sinceLastBeat() const;

 private:
  double period_;
  std::uint64_t last_beat_ns_;
};

// --- status emitter -------------------------------------------------------
//
// A small background thread that writes statusJson() lines to a file
// descriptor: every `period_seconds` when positive, and additionally
// whenever requestStatusDump() was called (the SIGUSR1 handler installed
// by installStatusSignalHandler() does exactly that — a handler can only
// set a flag, the emitter thread does the serialization). Used by
// `ecopatch_cli --status-fd`.

/// Starts the emitter (no-op if already running). period_seconds <= 0
/// means on-request only. Returns false when the thread is already up.
bool startStatusEmitter(int fd, double period_seconds);

/// Stops and joins the emitter thread (no-op when not running).
void stopStatusEmitter();

/// Asks the emitter to write one status line as soon as possible.
/// Async-signal-safe (one relaxed atomic store).
void requestStatusDump();

/// Installs a SIGUSR1 handler that calls requestStatusDump().
void installStatusSignalHandler();

// Interned-once gauge update macros (same shape as ECO_OBS_COUNT; the
// disabled form does not evaluate its arguments).
#if ECO_OBS_ENABLED
#define ECO_OBS_GAUGE_SET(name, v)                                    \
  do {                                                                \
    static ::eco::obs::Gauge& eco_obs_gauge_ =                        \
        ::eco::obs::gauge(name);                                      \
    eco_obs_gauge_.set(v);                                            \
  } while (0)
#define ECO_OBS_GAUGE_ADD(name, d)                                    \
  do {                                                                \
    static ::eco::obs::Gauge& eco_obs_gauge_ =                        \
        ::eco::obs::gauge(name);                                      \
    eco_obs_gauge_.add(d);                                            \
  } while (0)
#else
#define ECO_OBS_GAUGE_SET(name, v) \
  do {                             \
    (void)sizeof(v);               \
  } while (0)
#define ECO_OBS_GAUGE_ADD(name, d) \
  do {                             \
    (void)sizeof(d);               \
  } while (0)
#endif

}  // namespace eco::obs
