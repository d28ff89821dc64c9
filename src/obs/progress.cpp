#include "obs/progress.h"

#include <csignal>
#include <cstring>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/json.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace eco::obs {
namespace {

/// Interning maps, leaked like the metric maps (metrics.cpp): references
/// must survive static destruction because worker threads may still
/// publish while the process unwinds.
struct ProgressMaps {
  std::mutex mutex;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
  std::unordered_map<std::string, std::unique_ptr<std::atomic<const char*>>>
      labels;
};

ProgressMaps& maps() {
  static ProgressMaps* m = new ProgressMaps();
  return *m;
}

std::atomic<const char*>& labelSlot(std::string_view slot) {
  ProgressMaps& m = maps();
  std::lock_guard<std::mutex> lock(m.mutex);
  auto it = m.labels.find(std::string(slot));
  if (it == m.labels.end()) {
    it = m.labels
             .emplace(std::string(slot),
                      std::make_unique<std::atomic<const char*>>(nullptr))
             .first;
  }
  return *it->second;
}

}  // namespace

Gauge& gauge(std::string_view name) {
  ProgressMaps& m = maps();
  std::lock_guard<std::mutex> lock(m.mutex);
  auto it = m.gauges.find(std::string(name));
  if (it == m.gauges.end()) {
    it = m.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

std::int64_t gaugeValue(std::string_view name) {
  ProgressMaps& m = maps();
  std::lock_guard<std::mutex> lock(m.mutex);
  const auto it = m.gauges.find(std::string(name));
  return it == m.gauges.end() ? 0 : it->second->value();
}

void setLabel(std::string_view slot, const char* value) {
#if ECO_OBS_ENABLED
  labelSlot(slot).store(value, std::memory_order_relaxed);
#else
  (void)slot;
  (void)value;
#endif
}

const char* labelValue(std::string_view slot) {
  ProgressMaps& m = maps();
  std::lock_guard<std::mutex> lock(m.mutex);
  const auto it = m.labels.find(std::string(slot));
  return it == m.labels.end() ? nullptr
                              : it->second->load(std::memory_order_relaxed);
}

ProgressScope::ProgressScope(const char* slot, const char* value) {
#if ECO_OBS_ENABLED
  slot_ = &labelSlot(slot);
  previous_ = slot_->exchange(value, std::memory_order_relaxed);
#else
  (void)slot;
  (void)value;
#endif
}

ProgressScope::~ProgressScope() {
#if ECO_OBS_ENABLED
  slot_->store(previous_, std::memory_order_relaxed);
#endif
}

StatusSnapshot snapshotStatus() {
  StatusSnapshot snap;
  snap.uptime_seconds = static_cast<double>(monotonicNs()) * 1e-9;
  ProgressMaps& m = maps();
  std::lock_guard<std::mutex> lock(m.mutex);
  snap.labels.reserve(m.labels.size());
  for (const auto& [slot, value] : m.labels) {
    const char* v = value->load(std::memory_order_relaxed);
    if (v != nullptr) snap.labels.push_back({slot, v});
  }
  std::sort(snap.labels.begin(), snap.labels.end(),
            [](const auto& a, const auto& b) { return a.slot < b.slot; });
  snap.gauges.reserve(m.gauges.size());
  for (const auto& [name, g] : m.gauges) {
    snap.gauges.push_back({name, g->value()});
  }
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

std::string statusJson() {
  const StatusSnapshot snap = snapshotStatus();
  const ResourceSnapshot res = snapshotResources();
  JsonWriter w;
  w.beginObject();
  w.key("schema").value(kStatusSchema);
  w.key("schema_version").value(static_cast<std::int64_t>(kStatusSchemaVersion));
  w.key("uptime_seconds").valueFixed(snap.uptime_seconds, 3);
  w.key("labels").beginObject();
  for (const auto& row : snap.labels) w.key(row.slot).value(row.value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& row : snap.gauges) {
    w.key(row.name).value(static_cast<std::int64_t>(row.value));
  }
  w.endObject();
  w.key("resources");
  writeResourceJson(w, res);
  w.endObject();
  return w.take();
}

bool validateStatusJson(const std::string& json, std::string* error) {
  static constexpr json::RequiredKey kRequired[] = {
      {"uptime_seconds", json::Value::Kind::Number},
      {"labels", json::Value::Kind::Object},
      {"gauges", json::Value::Kind::Object},
      {"resources", json::Value::Kind::Object},
  };
  json::Value root;
  if (!json::parseDocument(json, "status", kStatusSchema, kStatusSchemaVersion,
                           kStatusSchemaVersion, kRequired, &root, error)) {
    return false;
  }
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (const auto& [name, value] : root.find("gauges")->object) {
    if (!value.isNumber()) {
      return fail("status gauge '" + name + "' must be a number");
    }
  }
  for (const auto& [name, value] : root.find("labels")->object) {
    if (!value.isString()) {
      return fail("status label '" + name + "' must be a string");
    }
  }
  return true;
}

Heartbeat::Heartbeat(double period_seconds)
    : period_(period_seconds), last_beat_ns_(monotonicNs()) {}

bool Heartbeat::due() {
  if (period_ <= 0) return false;
  const std::uint64_t now = monotonicNs();
  if (static_cast<double>(now - last_beat_ns_) * 1e-9 < period_) return false;
  last_beat_ns_ = now;
  return true;
}

void Heartbeat::beat() { last_beat_ns_ = monotonicNs(); }

double Heartbeat::sinceLastBeat() const {
  return static_cast<double>(monotonicNs() - last_beat_ns_) * 1e-9;
}

// --- status emitter -------------------------------------------------------

namespace {

struct Emitter {
  std::thread thread;
  std::atomic<bool> stop{false};
  bool running = false;
  std::mutex mutex;  ///< guards thread/running transitions
};

Emitter& emitter() {
  static Emitter* e = new Emitter();
  return *e;
}

std::atomic<bool> g_dump_requested{false};

void writeStatusLine(int fd) {
  std::string line = statusJson();
  line += '\n';
  // Best-effort: a closed/full status pipe must not kill the run.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void emitterMain(int fd, double period_seconds) {
  setThreadName("obs-status");
  Heartbeat hb(period_seconds);
  Emitter& e = emitter();
  while (!e.stop.load(std::memory_order_acquire)) {
    if (g_dump_requested.exchange(false, std::memory_order_acq_rel) ||
        hb.due()) {
      writeStatusLine(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Final line so stream consumers see the terminal state of the run.
  // On-request-only mode (period <= 0) has no subscriber: stay silent.
  if (period_seconds > 0) writeStatusLine(fd);
}

void sigusr1Handler(int) { requestStatusDump(); }

}  // namespace

bool startStatusEmitter(int fd, double period_seconds) {
  Emitter& e = emitter();
  std::lock_guard<std::mutex> lock(e.mutex);
  if (e.running) return false;
  e.stop.store(false, std::memory_order_release);
  e.thread = std::thread(emitterMain, fd, period_seconds);
  e.running = true;
  return true;
}

void stopStatusEmitter() {
  Emitter& e = emitter();
  std::lock_guard<std::mutex> lock(e.mutex);
  if (!e.running) return;
  e.stop.store(true, std::memory_order_release);
  e.thread.join();
  e.running = false;
}

void requestStatusDump() {
  g_dump_requested.store(true, std::memory_order_release);
}

void installStatusSignalHandler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &sigusr1Handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, nullptr);
}

}  // namespace eco::obs
