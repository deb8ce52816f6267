// Batch multi-instance runtime: N instances of one compiled module over
// shared flat tables.
//
// A SyncEngine owns one instance's arena plus its own VM. Serving
// thousands of concurrent sessions of the *same* compiled module that
// way costs one heap-allocated engine + VM per session. BatchEngine
// instead keeps ONE shared efsm::FlatProgram + bc::Program and stores
// all per-instance state structure-of-arrays in contiguous arenas:
//  * control state ids, instant-open flags, dirty flags: one byte/int row
//    per instance in plain vectors,
//  * signal presence and last-reaction presence: N x S byte matrices,
//  * variables and valued-signal bytes: one fixed-layout slice per
//    instance in a single arena (offsets computed once from ModuleSema),
//    64-byte instance stride to keep worker threads off shared lines.
// Execution state that is scratch rather than per-instance — the kernel
// with its VM register files, function-call frames and native output
// ring — lives in per-WORKER contexts shared by every instance the worker
// serves, so a reaction still runs without heap allocation no matter how
// many instances exist.
//
// Every reaction is one call of the reaction kernel (src/runtime/kernel.h)
// on the instance's arena slice and presence row: the VM kernel by
// default, or the native kernel when constructed with a loaded
// rt::NativeModule (CompiledModule::makeBatchEngine with
// EngineKind::Native) — the generated C operates on the exact
// computeInstanceLayout bytes, so the slice is passed straight through
// with no marshalling. A SyncEngine is the same kernel over one instance,
// so each reacted instance is bit-exact with a SyncEngine of the same
// backend: outputs, packed state, termination, auto-resume and counters.
//
// Scheduling is dirty-list driven: step() reacts only instances that have
// pending inputs or auto-resume (an await() delta pause), the same
// event-driven contract as rtos::Network tasks. stepAll() reacts every
// instance — exact lockstep with N independent SyncEngines, including
// empty-instant reactions. stepDrain(k) runs up to k consecutive
// input-free steps inside ONE worker-pool epoch (auto-resume chains
// drain without per-step wakeups); it is output- and state-equivalent to
// k step() calls with no input staging in between, except that
// reactedLastStep() reports "reacted in ANY drained sub-step".
//
// With BatchOptions::threads > 1 the reacting instances are partitioned
// into contiguous shards over a persistent worker pool. Instances are
// independent (no instant-level communication), every worker writes only
// its instances' rows, and the merged per-step output events are
// concatenated in shard order — so results and event order are identical
// for any thread count. Steps whose work list is small run on fewer
// workers (down to the caller alone): waking a helper costs more than a
// handful of reactions, and the contiguous partition keeps the merged
// order identical regardless of how many workers participate. The merge
// itself is lazy — step() returns without touching the event buffers,
// and lastStepEvents() concatenates on first use.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/interp/eval.h"
#include "src/interp/vm.h"
#include "src/runtime/engine.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/kernel.h"
#include "src/runtime/native_module.h"
#include "src/runtime/worker_pool.h"
#include "src/sema/sema.h"

namespace ecl::rt {

struct BatchOptions {
    /// Worker threads for step()/stepAll(). 1 = run on the caller.
    int threads = 1;
};

class BatchEngine {
public:
    /// `flat`, `sema` and the structures behind `code` must outlive the
    /// engine (retain() the CompiledModule). Starts with `instances`
    /// slots, all marked dirty so the first step() boots them. When
    /// `native` is non-null its reaction function replaces the VM for
    /// every reaction (the caller — normally makeBatchEngine — is
    /// responsible for the fall-back-to-VM policy); the module shape is
    /// validated against `flat` and the instance layout.
    BatchEngine(const efsm::FlatProgram& flat,
                std::shared_ptr<const bc::Program> code,
                const ModuleSema& sema, std::size_t instances,
                BatchOptions options = {},
                std::shared_ptr<const NativeModule> native = nullptr);

    BatchEngine(const BatchEngine&) = delete;
    BatchEngine& operator=(const BatchEngine&) = delete;

    /// Keeps the owning CompiledModule alive (same contract as
    /// ReactiveEngine::retain).
    void retain(std::shared_ptr<const void> owner) { owner_ = std::move(owner); }

    [[nodiscard]] std::size_t instanceCount() const { return state_.size(); }
    /// Appends one fresh (dirty, unbooted) instance; returns its id. Only
    /// between steps.
    std::size_t addInstance();

    // --- slot lifecycle (between steps; single-threaded) ---
    // Instances can never be removed (ids are stable arena offsets), but a
    // serving layer reuses slots: park a slot when its session leaves,
    // then reset (fresh session) or restore (migrated-in session) it.
    /// Makes the slot inert: clears its dirty mark and any staged inputs
    /// so no future step reacts it until reset/restored. State bytes are
    /// left in place (checkpoint first if they matter).
    void parkInstance(std::size_t inst);
    /// Returns the slot to the exact post-addInstance state: initial
    /// control state, zeroed arena slice and presence rows, boot reaction
    /// pending.
    void resetInstance(std::size_t inst);
    /// Loads a packed state record [i32 control state][instance-layout
    /// data bytes] (the packInstanceState / ReactiveEngine::packState
    /// format) into
    /// the slot: control + data restored, presence/staged inputs cleared,
    /// no boot (the record is a post-boot snapshot). The slot is re-marked
    /// dirty only when the restored control state auto-resumes. Throws
    /// EclError on a size mismatch or an out-of-range control state.
    void restoreInstanceState(std::size_t inst, const std::uint8_t* data,
                              std::size_t size);

    // --- input phase (between steps; single-threaded) ---
    void setInput(std::size_t inst, int sigIndex);
    void setInputScalar(std::size_t inst, int sigIndex, std::int64_t v);
    void setInputValue(std::size_t inst, int sigIndex, const Value& v);

    // --- stepping ---
    /// Reacts every instance with pending inputs or auto-resume; returns
    /// the number of reactions run.
    std::size_t step();
    /// Reacts every instance (lockstep with N independent SyncEngines).
    std::size_t stepAll();
    /// Up to `maxSteps` consecutive input-free step()s amortized into one
    /// worker-pool epoch: sub-step 0 reacts the dirty set, later
    /// sub-steps only the auto-resume survivors, stopping early when no
    /// instance resumes. Returns total reactions across all sub-steps;
    /// lastStepEvents() is the concatenation of the per-sub-step merges
    /// (identical to the step()-loop event stream for any thread count).
    std::size_t stepDrain(int maxSteps);

    // --- per-instance queries (post-step) ---
    [[nodiscard]] bool reactedLastStep(std::size_t inst) const;
    /// Full last reaction record, ExecCounters included; instance must
    /// have reacted at least once.
    [[nodiscard]] const ReactionResult& lastResult(std::size_t inst) const;
    [[nodiscard]] bool outputPresent(std::size_t inst, int sigIndex) const;
    /// Materialized (owning) copy of a valued signal's current value.
    [[nodiscard]] Value outputValue(std::size_t inst, int sigIndex) const;
    [[nodiscard]] bool terminated(std::size_t inst) const;
    [[nodiscard]] bool needsAutoResume(std::size_t inst) const;
    /// True when the instance is queued for the next step() (pending
    /// inputs, auto-resume, or not yet booted).
    [[nodiscard]] bool pendingDirty(std::size_t inst) const;
    /// True when inputs have been staged on the instance since its last
    /// reaction (the instant is open).
    [[nodiscard]] bool hasStagedInputs(std::size_t inst) const;
    /// True when any instance is queued for the next step() — the
    /// scheduler probe a serving layer uses to skip idle engines.
    [[nodiscard]] bool hasPendingWork() const;

    /// One output emission of the last step()/stepAll()/stepDrain().
    struct StepEvent {
        std::uint32_t instance;
        std::int32_t signal;
    };
    /// Merged outputs of the last step, ascending instance id, per-instance
    /// emission order preserved; identical for any thread count. Merged
    /// lazily from the per-worker buffers on first call after a step.
    [[nodiscard]] const std::vector<StepEvent>& lastStepEvents() const
    {
        mergeStepEvents();
        return stepEvents_;
    }

    /// Packs instance `inst` into the shared verification state record
    /// [i32 control state][instance-layout data bytes] — byte-compatible
    /// with ReactiveEngine::packState and the explorer's interned states:
    /// equal byte strings mean same state.
    [[nodiscard]] std::vector<std::uint8_t>
    packInstanceState(std::size_t inst) const;

    [[nodiscard]] const ModuleSema& moduleSema() const { return sema_; }
    [[nodiscard]] int threads() const
    {
        return static_cast<int>(shards_.size());
    }
    /// "native" when reactions run the AOT-compiled function, else
    /// "flat" (the bytecode VM) — the same names the single engines use.
    [[nodiscard]] const char* backendName() const
    {
        return native_ ? "native" : "flat";
    }
    /// Arena stride: variables + valued-signal bytes per instance, padded
    /// to a 64-byte boundary (memory model / capacity planning).
    [[nodiscard]] std::size_t bytesPerInstance() const
    {
        return layout_.stride;
    }

private:
    /// Per-worker execution context: scratch shared by all instances the
    /// worker reacts (never by two workers at once).
    struct Shard {
        VmKernel vm;
        std::unique_ptr<NativeKernel> native; ///< Set on native engines.
        std::vector<StepEvent> events; ///< This epoch, processing order.
        /// Event count at each sub-step boundary (stepDrain merge keys).
        std::vector<std::uint32_t> substepEnds;
        std::vector<std::uint32_t> active;     ///< Drain survivors.
        std::vector<std::uint32_t> nextActive; ///< Drain scratch.
        std::size_t reactions = 0; ///< Reactions run this epoch.
        std::exception_ptr error;

        Shard(const BatchEngine& engine, std::uint8_t* scratchBase);
    };

    void checkInstance(std::size_t inst) const;
    const SignalInfo& checkSignal(std::size_t inst, int sigIndex) const;
    const SignalInfo& checkInput(std::size_t inst, int sigIndex) const;
    std::uint8_t* slice(std::size_t inst)
    {
        return dataArena_.data() + inst * layout_.stride;
    }
    std::uint8_t* presentRow(std::size_t inst)
    {
        return present_.data() + inst * sema_.signals.size();
    }
    void markDirty(std::size_t inst);
    void openInstant(std::size_t inst);
    void reactOne(Shard& shard, std::size_t inst);
    std::size_t runStep(bool all, int drainSteps);
    void runShard(int w);
    void mergeStepEvents() const;

    const efsm::FlatProgram& flat_;
    std::shared_ptr<const bc::Program> code_;
    const ModuleSema& sema_;
    std::shared_ptr<const void> owner_;
    /// AOT backend; null = bytecode VM.
    std::shared_ptr<const NativeModule> native_;

    /// Shared fixed layout of one instance's arena slice (the same layout
    /// the verification explorer packs states with — see
    /// src/runtime/instance_layout.h).
    InstanceLayout layout_;
    /// One zeroed slice views point at before their first bind (keeps all
    /// pointer arithmetic inside a live object, even with 0 instances).
    std::vector<std::uint8_t> scratchSlice_;

    // Structure-of-arrays per-instance state.
    std::vector<std::int32_t> state_;        ///< Current EFSM state id.
    std::vector<std::uint8_t> instantOpen_;  ///< Inputs staged this instant.
    std::vector<std::uint8_t> dirty_;        ///< Queued for next step.
    std::vector<std::uint8_t> reacted_;      ///< Reacted in the last step.
    std::vector<std::uint8_t> present_;      ///< N x S, current instant.
    std::vector<std::uint8_t> lastPresent_;  ///< N x S, post-reaction.
    std::vector<std::uint8_t> dataArena_;    ///< N x stride_ value bytes.
    std::vector<ReactionResult> last_;       ///< Last reaction per instance.

    std::vector<std::uint32_t> dirtyList_; ///< Marked instances (may hold
                                           ///< stale entries; dirty_ rules).
    std::vector<std::uint32_t> work_;      ///< This step, sorted ascending.
    /// Lazily merged event stream of the last step (mergeStepEvents).
    mutable std::vector<StepEvent> stepEvents_;
    mutable bool eventsMerged_ = true;

    // Worker pool (threads > 1): one epoch per step, contiguous ranges
    // over work_ per shard. All per-instance rows a worker touches are
    // disjoint byte ranges, so the only synchronization is the pool's
    // epoch barrier.
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::pair<std::size_t, std::size_t>> ranges_;
    std::unique_ptr<WorkerPool> pool_;
    std::size_t participants_ = 1; ///< Shards used by the last epoch.
    int drainSteps_ = 1;           ///< Sub-step budget of the epoch.
};

} // namespace ecl::rt
