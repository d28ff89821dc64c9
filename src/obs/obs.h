#pragma once
// Umbrella header for the observability layer: scoped tracing spans
// (trace.h), the global metrics registry (metrics.h), live run status
// and heartbeats (progress.h), the flight recorder and postmortem dumps
// (flight_recorder.h), resource accounting (resource.h), and the JSON
// emitter/parser they share (json.h).
// See DESIGN.md "Observability" for the span taxonomy, metric name
// registry, and report schema policy.

#include "obs/flight_recorder.h"  // IWYU pragma: export
#include "obs/json.h"             // IWYU pragma: export
#include "obs/metrics.h"          // IWYU pragma: export
#include "obs/progress.h"         // IWYU pragma: export
#include "obs/resource.h"         // IWYU pragma: export
#include "obs/trace.h"            // IWYU pragma: export
