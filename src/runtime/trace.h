// Reaction tracing: output recording (VCD / timeline) plus full
// input-stream record/replay.
//
// The paper leans on Esterel's "sophisticated graphical source-level
// debugger" for specification-level exploration; TraceRecorder is our
// equivalent of the waveform side: attach it to any engine, run the
// stimulus, and inspect the waves in GTKWave or the textual dump in a
// terminal.
//
// InputTrace / TraceWriter / TraceReader add the other direction: every
// input an engine receives — and every output it produced — is captured
// per instant into a versioned, stable format (binary "ECLTRC01" or a
// line-based text form, sniffed automatically on read). A recorded trace
// is a reproducible fixture: replayTrace() drives any fresh engine or a
// BatchEngine instance with the identical input stream and checks the
// outputs (presence, value bytes, termination, auto-resume) bit-exactly
// against the recording, returning the replayed engine's packed
// post-state so runs can also be compared across engines and -O levels.
// Signals travel by NAME in the format and are re-resolved on replay, so
// a trace survives signal-index or state renumbering between compiles of
// the same module.
//
// RecordingEngine wraps any ReactiveEngine and records transparently —
// existing drivers (benches, stimulus profiles, tests) become trace
// producers without modification.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/runtime/engine.h"
#include "src/sema/sema.h"

namespace ecl::rt {

class BatchEngine;

class TraceRecorder {
public:
    /// Records signals of `sema` (all of them, or a subset by name).
    explicit TraceRecorder(const ModuleSema& sema,
                           std::vector<std::string> signals = {});

    /// Samples the engine's last reaction (call right after react()).
    void sample(const ReactiveEngine& engine);

    /// Presence flags can also be provided directly (baseline engine,
    /// RTOS tasks): `present[i]` for recorded signal i, `values[i]` the
    /// scalar value or 0.
    void sampleRaw(const std::vector<bool>& present,
                   const std::vector<std::int64_t>& values);

    [[nodiscard]] std::size_t instants() const { return instants_; }

    /// IEEE-1364 VCD: one time unit per instant, wires for presence, and
    /// integer variables for scalar-valued signals.
    [[nodiscard]] std::string toVcd(const std::string& moduleName) const;

    /// Terminal timeline: one row per signal, one column per instant.
    [[nodiscard]] std::string toTimeline() const;

private:
    struct Track {
        std::string name;
        int signalIndex;
        bool valued;            ///< Scalar-valued (value track emitted).
        std::vector<bool> present;
        std::vector<std::int64_t> values;
    };

    const ModuleSema& sema_;
    std::vector<Track> tracks_;
    std::size_t instants_ = 0;
};

// ---------------------------------------------------------------------------
// Input-stream record/replay
// ---------------------------------------------------------------------------

/// One signal event: presence (empty `value`) or an emission/input with
/// its raw little-endian value bytes.
struct TraceEvent {
    std::uint32_t signal = 0;        ///< Index into InputTrace::signals.
    std::vector<std::uint8_t> value; ///< Empty for pure signals.
};

struct TraceInstant {
    std::vector<TraceEvent> inputs;  ///< Inputs staged before react().
    std::vector<TraceEvent> outputs; ///< Output signals present after it.
    bool terminated = false;
    bool autoResume = false;
};

/// A recorded run: the module's signal table (names, direction, sizes)
/// plus the per-instant input/output stream. Self-describing — replay
/// re-resolves signals by name against the target engine's sema.
struct InputTrace {
    /// Stable format version (bumped on any incompatible change; readers
    /// reject versions they do not know).
    static constexpr std::uint32_t kVersion = 1;

    struct SignalDesc {
        std::string name;
        bool input = false;
        bool output = false;
        bool pure = true;
        std::uint32_t valueSize = 0; ///< Value byte width (0 when pure).
    };

    std::string module;
    std::vector<SignalDesc> signals;
    std::vector<TraceInstant> instants;

    /// Canonical text of the recorded OUTPUT stream (presence + value
    /// bytes + termination/auto-resume per instant); two runs are
    /// output-equivalent iff these strings are equal. Digest it with
    /// fnv1a64 for compact comparison.
    [[nodiscard]] std::string outputLog() const;
};

enum class TraceFormat {
    Binary, ///< "ECLTRC01" magic; compact, little-endian.
    Text,   ///< "eclrtrace" first line; line-based, diff-friendly.
};

/// Builds an InputTrace incrementally. Drivers either call the input
/// methods + endInstant() themselves or wrap their engine in a
/// RecordingEngine which does it for them.
class TraceWriter {
public:
    /// Captures the signal table of the module being recorded.
    explicit TraceWriter(const ModuleSema& sema, std::string moduleName);

    void input(int sigIndex);
    void inputValue(int sigIndex, const Value& v);
    /// Closes the instant: samples every output signal of `eng` (call
    /// right after react()).
    void endInstant(const ReactiveEngine& eng);
    /// Closes the instant with pre-sampled outputs (batch instances).
    void endInstantRaw(std::vector<TraceEvent> outputs, bool terminated,
                       bool autoResume);

    [[nodiscard]] const InputTrace& trace() const { return trace_; }
    [[nodiscard]] InputTrace takeTrace() { return std::move(trace_); }

private:
    const ModuleSema& sema_;
    InputTrace trace_;
    TraceInstant pending_;
};

/// Serializes `trace` (see TraceFormat). Throws EclError on write errors.
void writeTrace(const InputTrace& trace, std::ostream& os, TraceFormat fmt);
void writeTraceFile(const InputTrace& trace, const std::string& path,
                    TraceFormat fmt);

/// Parses either format (sniffed from the first bytes). Throws EclError
/// on malformed input or an unknown version.
InputTrace readTrace(std::istream& is);
InputTrace readTraceFile(const std::string& path);

/// Transparent recording wrapper: forwards every call to `inner` and
/// captures inputs per instant + outputs per reaction into a TraceWriter.
/// The wrapped engine must outlive the wrapper.
class RecordingEngine final : public ReactiveEngine {
public:
    RecordingEngine(ReactiveEngine& inner, std::string moduleName);

    using ReactiveEngine::outputPresent;
    using ReactiveEngine::outputValue;
    using ReactiveEngine::setInput;
    using ReactiveEngine::setInputScalar;
    using ReactiveEngine::setInputValue;

    void setInput(int sigIndex) override;
    void setInputScalar(int sigIndex, std::int64_t v) override;
    void setInputValue(int sigIndex, Value v) override;
    ReactionResult react() override;
    [[nodiscard]] bool outputPresent(int sigIndex) const override;
    [[nodiscard]] Value outputValue(int sigIndex) const override;
    [[nodiscard]] bool terminated() const override;
    [[nodiscard]] bool needsAutoResume() const override;
    [[nodiscard]] const ModuleSema& moduleSema() const override;
    [[nodiscard]] const char* backendName() const override;
    [[nodiscard]] std::vector<std::uint8_t> packState() const override;

    [[nodiscard]] const InputTrace& trace() const { return writer_.trace(); }
    [[nodiscard]] InputTrace takeTrace() { return writer_.takeTrace(); }

private:
    ReactiveEngine& inner_;
    TraceWriter writer_;
};

/// Replay outcome: output equivalence against the recording plus the
/// replayed engine's final packed state and summed counters.
struct TraceReplayResult {
    std::size_t instants = 0;
    /// Outputs (presence, value bytes, termination, auto-resume) matched
    /// the recording at every instant. Always true when the trace holds
    /// no outputs or checking was disabled.
    bool outputsMatch = true;
    std::string mismatch; ///< First divergence, human-readable.
    /// fnv1a64 hex digest of the replayed run's canonical output log —
    /// equal digests mean output-equivalent runs (comparable across
    /// engines and -O levels).
    std::string outputDigest;
    /// Packed post-state [i32 control state][instance-layout data bytes].
    /// The control id is representation-dependent (state minimization
    /// renumbers at -O1+); compare `finalData()` across -O levels and the
    /// full vector between engines of the same compile.
    std::vector<std::uint8_t> finalState;
    [[nodiscard]] std::vector<std::uint8_t> finalData() const
    {
        return {finalState.begin() + 4, finalState.end()};
    }
    // Summed engine-level counters (cross-engine exactness contract:
    // sync vs batch exact at any level; -O0/-O1 exact vs tree walk; -O2
    // data counters may only shrink).
    std::uint64_t treeTests = 0;
    std::uint64_t actionsRun = 0;
    std::uint64_t emitsRun = 0;
    ExecCounters dataCounters;
};

struct TraceReplayOptions {
    /// Check outputs against the recording (when the trace has them).
    bool checkOutputs = true;
};

/// Replays `trace` on any fresh (pre-boot) ReactiveEngine; the final
/// packed state comes from the engine's packState() virtual, so VM and
/// native engines compare byte-for-byte.
TraceReplayResult replayTrace(ReactiveEngine& engine, const InputTrace& trace,
                              const TraceReplayOptions& opts = {});

/// Replays `trace` on instance `inst` of a BatchEngine; every instant is
/// a stepAll() (strict lockstep, matching SyncEngine reaction-per-instant
/// semantics). Other instances receive no inputs.
TraceReplayResult replayTrace(BatchEngine& batch, std::size_t inst,
                              const InputTrace& trace,
                              const TraceReplayOptions& opts = {});

} // namespace ecl::rt
