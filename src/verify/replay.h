// Counterexample replay: runs an explorer trace on real engines.
//
// The explorer computes successors with the reaction kernel and keeps no
// counters or outputs. A counterexample is only trustworthy if a
// production engine agrees — so every trace can be replayed bit-exactly
// on any ReactiveEngine that packs its state (normally the SyncEngines
// of CompiledModule::makeSyncEngine): the same inputs per instant, the
// monitor wired off the design's reactions exactly as during
// exploration, and the final instant checked against the recorded
// violation (signal presence, emitted value bytes, and the packed
// post-state via ReactiveEngine::packState). Optional rt::TraceRecorders
// capture the run for VCD / timeline dumps (runtime/trace).
//
// Replay is store- and reduction-agnostic: the trace carries the full
// input letters, so a counterexample found through a lossy bitstate
// store, under partial-order reduction, or via native-successor
// expansion replays on the same production engines — the lossy store
// can miss violations, but any violation it reports is replayed and
// real.
#pragma once

#include <string>
#include <vector>

#include "src/runtime/engine.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/trace.h"
#include "src/verify/explorer.h"

namespace ecl::verify {

struct ReplayOutcome {
    /// The engines reproduced the recorded violation bit-exactly.
    bool reproduced = false;
    std::string detail; ///< Human-readable confirmation or mismatch.
};

/// Replays `result.trace` on a fresh pair of engines. `monitor` may be
/// null when the exploration ran without one. The recorders, when given,
/// are sampled after every design / monitor reaction. Engines must be
/// freshly created (pre-boot) engines of the modules the exploration ran
/// on, over the same flat tables (packState() control ids are flat ids).
ReplayOutcome replayCounterexample(rt::ReactiveEngine& design,
                                   rt::ReactiveEngine* monitor,
                                   const ExploreResult& result,
                                   rt::TraceRecorder* designRec = nullptr,
                                   rt::TraceRecorder* monitorRec = nullptr);

/// Renders a trace as text, one instant per line (CLI + logs).
std::string formatTrace(const ModuleSema& designSema,
                        const std::vector<TraceStep>& trace);

} // namespace ecl::verify
