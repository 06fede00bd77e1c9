// The `trace:<path>` workload: replays a recorded access stream (binary
// trace format v1, src/trace/trace_format.hh) through the RegionHandle
// runtime API, so every trace file is a first-class sweep point —
// claimable, cacheable, `--check`- and `--assert-same`-able like the seven
// hand-written kernels.
#pragma once

#include <memory>
#include <string>

#include "trace/trace_format.hh"
#include "workloads/workload.hh"

namespace avr {

/// Workload over an in-memory trace (benches and tests); `name` becomes the
/// sweep-point key. Throws std::invalid_argument if `t` fails
/// trace::validate_trace.
std::unique_ptr<Workload> make_trace_workload(std::string name, trace::Trace t);

/// Workload for the sweep-point name "trace:<path>": loads and fully
/// validates the file EAGERLY, so a missing/corrupt trace fails here — at
/// make_workload time, i.e. at `avr_sweep --list`/startup — with a
/// diagnosable std::invalid_argument, never mid-sweep at replay time.
std::unique_ptr<Workload> make_trace_workload_from_spec(const std::string& name);

/// True iff `name` is a trace sweep-point spec ("trace:<path>").
bool is_trace_workload_name(const std::string& name);

}  // namespace avr
