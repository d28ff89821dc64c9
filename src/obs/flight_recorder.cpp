#include "obs/flight_recorder.h"

#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace eco::obs {
namespace {

#if ECO_OBS_ENABLED

/// Per-thread ring. The owner is the only writer: it fills the slot at
/// head % kCap with relaxed stores, then publishes with a release store
/// of head. Readers load head with acquire and walk the last
/// min(head, kCap) slots — only the slot currently being overwritten can
/// mix two events.
struct FlightRing {
  static constexpr std::uint32_t kCap = 256;  // power of two
  static_assert((kCap & (kCap - 1)) == 0);

  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint8_t> kind{0};
  };

  explicit FlightRing(std::uint32_t id) : tid(id) {}

  /// Empties the ring for a new owner; registry mutex held, no writer.
  void reset() {
    head.store(0, std::memory_order_relaxed);
    for (Slot& s : slots) {
      s.kind.store(0, std::memory_order_relaxed);
      s.name.store(nullptr, std::memory_order_relaxed);
    }
    name.clear();
  }

  const std::uint32_t tid;
  std::atomic<std::uint64_t> head{0};  ///< events ever recorded
  std::array<Slot, kCap> slots;
  std::string name;  ///< guarded by FlightRegistry::mutex
};

/// Rings of exited threads kept intact for postmortems; past this many,
/// the oldest is reset and handed to the next new thread, so the ring
/// count stays bounded by the live threads plus this.
constexpr std::size_t kKeptDeadRings = 8;

struct FlightRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<FlightRing>> rings;
  std::deque<FlightRing*> dead;  ///< rings of exited threads, oldest first
};

/// Never destroyed: rings must outlive exiting threads and any
/// atexit/crash-time dump.
FlightRegistry& flightRegistry() {
  static FlightRegistry* r = new FlightRegistry();
  return *r;
}

thread_local FlightRing* t_ring = nullptr;

/// Returns the calling thread's ring to the registry when the thread
/// exits. Only touched when a ring is handed out, so record() reads the
/// plain t_ring pointer without a TLS-destructor guard.
struct RingLease {
  RingLease() = default;
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;
  ~RingLease() {
    if (t_ring == nullptr) return;
    FlightRegistry& reg = flightRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.dead.push_back(t_ring);
    t_ring = nullptr;
  }
};
thread_local RingLease t_lease;

FlightRing& localRing() {
  if (t_ring == nullptr) {
    FlightRegistry& reg = flightRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.dead.size() > kKeptDeadRings) {
      t_ring = reg.dead.front();
      reg.dead.pop_front();
      t_ring->reset();
    } else {
      auto ring = std::make_unique<FlightRing>(
          static_cast<std::uint32_t>(reg.rings.size()));
      t_ring = ring.get();
      reg.rings.push_back(std::move(ring));
    }
    (void)&t_lease;  // odr-use: registers the lease's exit destructor
  }
  return *t_ring;
}

void record(FlightEvent::Kind kind, const char* name, std::uint64_t value) {
  FlightRing& r = localRing();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  FlightRing::Slot& s = r.slots[h & (FlightRing::kCap - 1)];
  s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  s.name.store(name, std::memory_order_relaxed);
  s.value.store(value, std::memory_order_relaxed);
  s.ts_ns.store(monotonicNs(), std::memory_order_relaxed);
  r.head.store(h + 1, std::memory_order_release);
}

#endif  // ECO_OBS_ENABLED

const char* kindName(FlightEvent::Kind kind) {
  switch (kind) {
    case FlightEvent::Kind::kSpanBegin:
      return "span_begin";
    case FlightEvent::Kind::kSpanEnd:
      return "span_end";
    case FlightEvent::Kind::kCount:
      return "count";
    case FlightEvent::Kind::kNone:
      break;
  }
  return "none";
}

}  // namespace

void flightRecordSpanBegin(const char* name) {
#if ECO_OBS_ENABLED
  record(FlightEvent::Kind::kSpanBegin, name, 0);
#else
  (void)name;
#endif
}

void flightRecordSpanEnd(const char* name, std::uint64_t dur_ns) {
#if ECO_OBS_ENABLED
  record(FlightEvent::Kind::kSpanEnd, name, dur_ns);
#else
  (void)name;
  (void)dur_ns;
#endif
}

void flightRecordCount(const char* name, std::uint64_t n) {
#if ECO_OBS_ENABLED
  record(FlightEvent::Kind::kCount, name, n);
#else
  (void)name;
  (void)n;
#endif
}

void flightSetThreadName(const std::string& name) {
#if ECO_OBS_ENABLED
  FlightRing& r = localRing();
  std::lock_guard<std::mutex> lock(flightRegistry().mutex);
  r.name = name;
#else
  (void)name;
#endif
}

FlightDump snapshotFlight() {
  FlightDump dump;
#if ECO_OBS_ENABLED
  FlightRegistry& reg = flightRegistry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  dump.threads.reserve(reg.rings.size());
  for (const auto& ring : reg.rings) {
    FlightDump::ThreadRow row;
    row.tid = ring->tid;
    row.name = ring->name;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    row.recorded = head;
    const std::uint64_t n = head < FlightRing::kCap ? head : FlightRing::kCap;
    row.events.reserve(n);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const FlightRing::Slot& s = ring->slots[i & (FlightRing::kCap - 1)];
      FlightEvent ev;
      ev.kind = static_cast<FlightEvent::Kind>(
          s.kind.load(std::memory_order_relaxed));
      ev.name = s.name.load(std::memory_order_relaxed);
      ev.value = s.value.load(std::memory_order_relaxed);
      ev.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      if (ev.name != nullptr && ev.kind != FlightEvent::Kind::kNone) {
        row.events.push_back(ev);
      }
    }
    dump.threads.push_back(std::move(row));
  }
#endif
  return dump;
}

std::string postmortemJson(const char* reason, const char* detail) {
  const StatusSnapshot status = snapshotStatus();
  const FlightDump flight = snapshotFlight();
  JsonWriter w;
  w.beginObject();
  w.key("schema").value(kPostmortemSchema);
  w.key("schema_version")
      .value(static_cast<std::int64_t>(kPostmortemSchemaVersion));
  w.key("reason").value(reason != nullptr ? reason : "");
  w.key("detail").value(detail != nullptr ? detail : "");
  w.key("uptime_seconds").valueFixed(status.uptime_seconds, 3);
  w.key("labels").beginObject();
  for (const auto& row : status.labels) w.key(row.slot).value(row.value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& row : status.gauges) {
    w.key(row.name).value(static_cast<std::int64_t>(row.value));
  }
  w.endObject();
  w.key("resources");
  writeResourceJson(w, snapshotResources());
  w.key("counters").beginObject();
  for (const auto& row : snapshotMetrics().counters) {
    w.key(row.name).value(row.value);
  }
  w.endObject();
  w.key("threads").beginArray();
  for (const auto& thread : flight.threads) {
    w.beginObject();
    w.key("tid").value(std::uint64_t{thread.tid});
    w.key("name").value(thread.name);
    w.key("recorded").value(thread.recorded);
    w.key("events").beginArray();
    for (const FlightEvent& ev : thread.events) {
      w.beginObject();
      w.key("kind").value(kindName(ev.kind));
      w.key("name").value(ev.name);
      w.key("value").value(ev.value);
      w.key("ts_ns").value(ev.ts_ns);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.take();
}

bool validatePostmortemJson(const std::string& json, std::string* error) {
  static constexpr json::RequiredKey kRequired[] = {
      {"reason", json::Value::Kind::String},
      {"detail", json::Value::Kind::String},
      {"uptime_seconds", json::Value::Kind::Number},
      {"labels", json::Value::Kind::Object},
      {"gauges", json::Value::Kind::Object},
      {"resources", json::Value::Kind::Object},
      {"counters", json::Value::Kind::Object},
      {"threads", json::Value::Kind::Array},
  };
  json::Value root;
  if (!json::parseDocument(json, "postmortem", kPostmortemSchema,
                           kPostmortemSchemaVersion, kPostmortemSchemaVersion, kRequired,
                           &root, error)) {
    return false;
  }
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (const json::Value& thread : root.find("threads")->array) {
    if (!thread.isObject()) return fail("postmortem thread must be an object");
    const json::Value* events = thread.find("events");
    if (thread.find("tid") == nullptr || !thread.find("tid")->isNumber() ||
        thread.find("name") == nullptr || !thread.find("name")->isString() ||
        thread.find("recorded") == nullptr ||
        !thread.find("recorded")->isNumber() || events == nullptr ||
        !events->isArray()) {
      return fail("postmortem thread missing tid/name/recorded/events");
    }
    for (const json::Value& ev : events->array) {
      if (!ev.isObject() || ev.find("kind") == nullptr ||
          !ev.find("kind")->isString() || ev.find("name") == nullptr ||
          !ev.find("name")->isString() || ev.find("ts_ns") == nullptr ||
          !ev.find("ts_ns")->isNumber() || ev.find("value") == nullptr ||
          !ev.find("value")->isNumber()) {
        return fail("postmortem event missing kind/name/ts_ns/value");
      }
    }
  }
  return true;
}

// --- postmortem dump ------------------------------------------------------

namespace {

std::mutex g_path_mutex;
char g_path[4096] = {0};  ///< guarded by g_path_mutex for writes
std::atomic<bool> g_dumped{false};

}  // namespace

void setPostmortemPath(const char* path) {
  std::lock_guard<std::mutex> lock(g_path_mutex);
  if (path == nullptr) path = "";
  std::strncpy(g_path, path, sizeof(g_path) - 1);
  g_path[sizeof(g_path) - 1] = '\0';
  g_dumped.store(false, std::memory_order_release);
}

std::string postmortemPath() {
  std::lock_guard<std::mutex> lock(g_path_mutex);
  return g_path;
}

bool dumpPostmortem(const char* reason, const char* detail) {
  char path[sizeof(g_path)];
  {
    std::lock_guard<std::mutex> lock(g_path_mutex);
    std::memcpy(path, g_path, sizeof(path));
  }
  if (path[0] == '\0') return false;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return false;
  const std::string doc = postmortemJson(reason, detail);
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < doc.size()) {
    const ssize_t n = ::write(fd, doc.data() + off, doc.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return off == doc.size();
}

// --- crash handlers -------------------------------------------------------

namespace {

struct CrashSignal {
  int sig;
  const char* reason;
};

constexpr CrashSignal kCrashSignals[] = {
    {SIGSEGV, "signal:SIGSEGV"}, {SIGBUS, "signal:SIGBUS"},
    {SIGABRT, "signal:SIGABRT"}, {SIGFPE, "signal:SIGFPE"},
    {SIGILL, "signal:SIGILL"},
};

std::atomic<bool> g_in_crash{false};

void crashHandler(int sig) {
  if (!g_in_crash.exchange(true, std::memory_order_acq_rel)) {
    const char* reason = "signal:unknown";
    for (const CrashSignal& cs : kCrashSignals) {
      if (cs.sig == sig) reason = cs.reason;
    }
    dumpPostmortem(reason, "fatal signal");
  }
  // SA_RESETHAND restored the default disposition; re-raising delivers the
  // signal on handler return so the exit status reflects the crash.
  ::raise(sig);
}

}  // namespace

void installCrashHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &crashHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (const CrashSignal& cs : kCrashSignals) {
    sigaction(cs.sig, &sa, nullptr);
  }
}

}  // namespace eco::obs
