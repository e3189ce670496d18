// Chrome trace-event JSON export: renders an assembled Trace as the object
// form of the trace-event format ({"traceEvents": [...]}), loadable in
// chrome://tracing and Perfetto. Every span becomes a complete ("X") event
// with microsecond timestamps relative to the trace's begin, pid 1, and the
// recording ring index as tid — so spans recorded on worker threads (such
// as OPTIMIZE's opt_candidate spans) line up as separate tracks under the
// request.
#pragma once

#include <string>

#include "obs/flight_recorder.hpp"

namespace lama::obs {

std::string to_chrome_json(const Trace& trace);

}  // namespace lama::obs
