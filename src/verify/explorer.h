// Explicit-state verification: parallel reachability + safety checking
// over the shared flat tables.
//
// The ECL paper's pitch is that the Esterel-derived reactive part has a
// formal synchronous semantics, so system-level specs can be *verified*,
// not just executed. This layer exploits that: a compiled module's
// reaction function (efsm::FlatProgram + bc::Program, the same read-only
// tables the SyncEngine and the batch runtime execute) is a total
// function  (control state, data bytes, inputs) -> (control state, data
// bytes, emissions),  so the reachable state space can be enumerated
// exactly.
//
// State encoding — one packed fixed-size record per reached state:
//   [design control state : i32][monitor control state : i32, if any]
//   [design data bytes][monitor data bytes]
// where "data bytes" is the module's rt::InstanceLayout slice (variables
// + valued-signal slots) — byte-compatible with a batch-engine arena
// slice and with any engine's ReactiveEngine::packState(). Records are
// interned in a pluggable StateStore (ExplorerOptions::storeKind —
// exact arena, collapse-compressed, or lossy supertrace bitstate; see
// src/verify/state_store.h); the
// interned pause-set configuration behind a control state id is
// available through FlatProgram::configOf.
//
// Input alphabet — per instant the environment may set any subset of the
// input signals, valued inputs carrying one value from a finite domain
// (ExplorerOptions: {0,1} for scalars by default, the zero value for
// aggregates). Letters are enumerated in a canonical mixed-radix order
// (lowest signal index = least significant digit, absent < domain
// values), capped by maxLettersPerState. Dirty-set pruning: a *pure*
// input whose presence is never tested by the current control state's
// decision tree cannot affect the reaction, so it is held absent —
// valued inputs always stay in the alphabet because their value write
// persists in the state bytes. Pruning is sound for reachability and
// for minimal counterexamples (the minimal trace never sets an
// untested pure input).
//
// Partial-order reduction (ExplorerOptions::partialOrder, default off) —
// a composite letter {a, b, ...} of pure inputs commutes with its
// singleton decomposition when the per-signal reactions are independent:
// the same end control state, the same emitted-signal set and the same
// multiset of executed data actions, every executed action a
// state-independent commutative update (constant increment/decrement of
// a scalar variable). Such letters are dropped: the canonical
// interleaving a-then-b-then-... reaches the identical packed state
// through singleton letters that are ALWAYS kept, so every reachable
// state stays reachable (reduced set == unreduced set on complete runs;
// under a depth bound the reduced frontier is narrower, which is where
// the state-count reduction shows up). Soundness of the check is
// decided by a presence-only simulation of the decision tree: any
// data-dependent branch, valued emission, runtime-error leaf or
// non-commutative action disqualifies the letter. Letters that emit a
// checked violation signal are kept (shortest-counterexample quality),
// and the reduction is disabled entirely when a monitor is attached
// (the monitor observes instants, which the decomposition multiplies).
//
// Frontier expansion — BFS by default: each depth level is a contiguous
// id range, expanded in consecutive *epochs*. An epoch is a run of
// frontier states whose successors fill each worker's buffer to about
// kWorkerEpochBytes (a successor costs packedSize_ + its hash + a Succ;
// a state costs the letters it keeps), so the buffers have a fixed size
// and are reused epoch after epoch instead of holding a whole level; a
// level that fits one epoch runs as one. The epoch is cut into
// contiguous chunks of about equal successor count, worker threads
// expand them through per-worker reaction kernels (src/runtime/kernel.h,
// the same kernel the batch runtime's shards and SyncEngine call, with
// no result record: the explorer keeps no counters or outputs) and
// hash each successor record they pack, then a sequential merge interns
// the epoch's successors — probing with the worker's hash, prefetching
// a fixed distance ahead — in canonical frontier x letter order. Epoch
// boundaries depend on the thread count but the merge order does not,
// so state numbering, state count, transitions and the reported
// counterexample are identical for any thread count, and BFS parent
// links give shortest traces. Workers never read the state store: the
// current level's records travel in an explicit frontier buffer (which
// is also what makes the write-only bitstate store possible, and
// removes the at()-across-intern() stale-pointer hazard by
// construction). Strategy::Dfs explores depth-first on the calling
// thread instead (lower memory for deep narrow spaces; traces not
// minimal); both strategies expand a state through one helper.
//
// Native successors — when an AOT-compiled module is attached
// (attachNative / ExplorerOptions::nativeSuccessors via
// CompiledModule::makeExplorer), workers compute DESIGN successors with
// the native kernel instead of the VM kernel: same arena slice, same
// presence bytes, same trap messages, bit-exact states (differentially
// tested). The monitor, when attached, always reacts through the VM.
//
// Violations — three sources, checked per *transition* (emissions are
// per-instant and not part of the packed state):
//  * a monitor module attached with attachMonitor(): its inputs are
//    wired by name to design signals, it reacts synchronously on the
//    design's every instant, and emitting any violation signal
//    (ExplorerOptions::violationSignals, default any signal whose name
//    contains "violation") flags the transition;
//  * the same signal check on the design itself when no monitor is
//    attached;
//  * registered predicates over the post-reaction design state bytes.
// A reaction that traps at runtime (instantaneous-loop leaf, data
// runtime error) is reported as Violation::Kind::RuntimeError with the
// trace that reaches it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/interp/vm.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/kernel.h"
#include "src/runtime/worker_pool.h"
#include "src/sema/sema.h"
#include "src/verify/state_store.h"

namespace ecl::rt {
class NativeModule;
}

namespace ecl::verify {

/// One present input in one instant of a counterexample trace.
struct InputEvent {
    int signal = -1; ///< SignalInfo::index in the design module.
    Value value;     ///< Empty for pure signals.
};

/// One instant of a counterexample: inputs to apply, then react().
struct TraceStep {
    std::vector<InputEvent> inputs;
};

struct Violation {
    enum class Kind {
        MonitorSignal, ///< Violation signal emitted by the monitor.
        DesignSignal,  ///< Violation signal emitted by the design.
        Predicate,     ///< A registered predicate returned true.
        RuntimeError,  ///< The reaction trapped (instantaneous loop, ...).
    };
    Kind kind = Kind::DesignSignal;
    std::string what; ///< Signal name, predicate name, or error text.
    int signal = -1;  ///< Signal kinds: index in the monitored module.
    Value value;      ///< Emitted value when the signal is valued.
    int depth = 0;    ///< Instants from boot up to the violating reaction.
    /// Packed post-reaction record (design [+ monitor]); empty for
    /// RuntimeError (the reaction never completed).
    std::vector<std::uint8_t> state;
};

struct ExploreStats {
    std::uint64_t states = 0;      ///< Distinct states interned (root incl.).
    /// Control states of the explored flat machine (post-flatten
    /// minimization already applied when the module was compiled at
    /// -O1/-O2); the packed reachable set is bounded by
    /// controlStates x data valuations.
    std::uint64_t controlStates = 0;
    std::uint64_t transitions = 0; ///< (state, letter) expansions executed.
    std::uint64_t peakFrontier = 0;
    int depthReached = 0; ///< Deepest instant expanded into.
    /// Frontier exhausted within every bound. NOTE: with a lossy store
    /// (lossyStore below) this is a coverage statement only — hash
    /// collisions may have merged distinct states, so a complete lossy
    /// run means "no violation found", never "verified".
    bool complete = false;
    bool alphabetTruncated = false; ///< maxLettersPerState hit somewhere.
    StoreKind storeKind = StoreKind::Exact;
    bool lossyStore = false;          ///< stateStore().lossy().
    std::uint64_t storeMemoryBytes = 0; ///< stateStore().memoryBytes().
    /// (state, letter) expansions skipped by partial-order reduction.
    std::uint64_t lettersReduced = 0;
    /// Design successors were computed by the AOT native reaction (an
    /// attached module that failed validation falls back to the VM and
    /// leaves this false — honest reporting over silent assumptions).
    bool usedNativeSuccessors = false;
    double seconds = 0;
    double statesPerSec = 0;
    /// Wall time expanding states (BFS: the parallel worker-pool
    /// epochs; DFS: each state's letters) and merging their successors
    /// into the store (the sequential intern phase).
    double expandSeconds = 0;
    double mergeSeconds = 0;
    /// Wall time of the partial-order reduction precompute (0 when the
    /// reduction is off); spent in run() before the first expansion.
    double porSeconds = 0;
    /// BFS expansion epochs run (each one worker-pool round plus its
    /// merge); DFS leaves it 0.
    std::uint64_t epochs = 0;
};

struct ExploreResult {
    ExploreStats stats;
    bool violated = false;
    Violation violation;          ///< Valid when violated.
    std::vector<TraceStep> trace; ///< Counterexample inputs, instant 0 first.
};

enum class Strategy {
    Bfs, ///< Level-parallel, deterministic ids, shortest counterexamples.
    Dfs, ///< Sequential depth-first; lower frontier memory, traces not
         ///< minimal.
};

struct ExplorerOptions {
    int threads = 1; ///< Worker threads for BFS level expansion.
    Strategy strategy = Strategy::Bfs;
    /// Maximum instants from boot (exploration depth). States beyond the
    /// bound stay unexpanded and the result is marked incomplete.
    int maxDepth = 1 << 20;
    /// Hard cap on interned states; hitting it marks the result
    /// incomplete (deterministically — interning order is canonical).
    std::uint32_t maxStates = 1u << 20;
    /// Input-alphabet cap per state (letters beyond it are dropped and
    /// stats.alphabetTruncated is set).
    std::size_t maxLettersPerState = 4096;
    /// Hold pure inputs absent in states whose decision tree never tests
    /// them (sound; see the header comment). Off = full alphabet.
    bool pruneInputs = true;
    /// Which StateStore implementation holds the reachable set.
    StoreKind storeKind = StoreKind::Exact;
    /// State-store byte budget. Bitstate sizes its bit table from it
    /// (0 = its 4 MiB default); exact/compressed runs stop — marked
    /// incomplete — once memoryBytes() exceeds it (0 = unlimited).
    std::uint64_t storeBudgetBytes = 0;
    /// Partial-order reduction over independent pure input letters
    /// (see the header comment for the exact commutation check).
    bool partialOrder = false;
    /// Ask CompiledModule::makeExplorer to attach the module's AOT
    /// native reaction for design successor computation (silently
    /// falls back to the VM when the backend is unavailable — check
    /// ExploreStats::usedNativeSuccessors).
    bool nativeSuccessors = false;
    /// Candidate values for scalar-valued inputs, smallest set that can
    /// drive both branches of most predicates by default.
    std::vector<std::int64_t> scalarDomain = {0, 1};
    /// Per-signal overrides of scalarDomain, keyed by input-signal name.
    std::map<std::string, std::vector<std::int64_t>> scalarDomains;
    /// Names of violation signals in the monitored module (monitor when
    /// attached, else the design). Empty = any signal whose lowercase
    /// name contains "violation".
    std::vector<std::string> violationSignals;
};

/// The name the ISSUE-facing docs use; same type.
using ExploreOptions = ExplorerOptions;

/// Read-only view of one packed design state (predicate interface).
class StateView {
public:
    StateView(const ModuleSema& sema, const rt::InstanceLayout& layout,
              int controlState, const std::uint8_t* data)
        : sema_(&sema), layout_(&layout), control_(controlState), data_(data)
    {
    }

    [[nodiscard]] int controlState() const { return control_; }

    /// Scalar variable by VarInfo index / by name.
    [[nodiscard]] std::int64_t var(int idx) const
    {
        const VarInfo& v = sema_->vars[static_cast<std::size_t>(idx)];
        return readScalar(
            data_ + layout_->varOffsets[static_cast<std::size_t>(idx)],
            v.type);
    }
    [[nodiscard]] std::int64_t var(const std::string& name) const;

    /// Materialized copy of any variable (aggregates included).
    [[nodiscard]] Value varValue(int idx) const
    {
        const VarInfo& v = sema_->vars[static_cast<std::size_t>(idx)];
        return Value::fromBytes(
            v.type, data_ + layout_->varOffsets[static_cast<std::size_t>(idx)]);
    }

    /// Persistent value slot of a valued signal.
    [[nodiscard]] std::int64_t signal(int idx) const;
    [[nodiscard]] Value signalValue(int idx) const;

private:
    const ModuleSema* sema_;
    const rt::InstanceLayout* layout_;
    int control_;
    const std::uint8_t* data_;
};

using Predicate = std::function<bool(const StateView&)>;

/// One name-wire between a monitor input and a design signal.
struct MonitorWire {
    int monitorSig = -1;
    int designSig = -1;
    bool valued = false; ///< Value transferred along with presence.
};

/// Resolves every monitor input against the design's signal table by
/// name (any direction — inputs, outputs and locals are observable).
/// Throws EclError on unknown names or value-type size mismatches.
std::vector<MonitorWire> wireMonitor(const ModuleSema& design,
                                     const ModuleSema& monitor);

class Explorer {
public:
    /// `flat`, `sema` and the structures behind `code` must outlive the
    /// explorer (retain() the CompiledModule, or use
    /// CompiledModule::makeExplorer which does).
    Explorer(const efsm::FlatProgram& flat,
             std::shared_ptr<const bc::Program> code, const ModuleSema& sema,
             ExplorerOptions options = {});

    Explorer(const Explorer&) = delete;
    Explorer& operator=(const Explorer&) = delete;

    /// Keeps an owner (typically a CompiledModule) alive.
    void retain(std::shared_ptr<const void> owner)
    {
        owners_.push_back(std::move(owner));
    }

    /// Attaches an observer module: inputs wired by name to design
    /// signals (wireMonitor rules), reacting on every explored instant.
    /// Must be called before run(); only one monitor is supported.
    void attachMonitor(const efsm::FlatProgram& flat,
                       std::shared_ptr<const bc::Program> code,
                       const ModuleSema& sema,
                       std::shared_ptr<const void> owner = nullptr);

    /// Attaches the design's AOT-compiled reaction function: workers
    /// call it for design successor computation (bit-exact with the VM
    /// path). Validates the module's shape record against the design
    /// tables; throws EclError on mismatch. Must be called before
    /// run().
    void attachNative(std::shared_ptr<const rt::NativeModule> native);

    /// Registers a safety predicate over post-reaction design states;
    /// returning true flags the transition as a violation.
    void addPredicate(std::string name, Predicate fn);

    /// Explores the reachable state space. Single-shot: a second call
    /// throws (build a fresh Explorer per run).
    ExploreResult run();

    [[nodiscard]] const ModuleSema& designSema() const { return sema_; }
    [[nodiscard]] const rt::InstanceLayout& designLayout() const
    {
        return layout_;
    }
    /// Order-sensitive digest over all interned states (determinism
    /// fingerprint for tests; comparable across store kinds). Valid
    /// after run().
    [[nodiscard]] std::uint64_t stateDigest() const;
    /// The interned packed records (reachable-set introspection; tests
    /// cross-check it against brute-force enumeration). Valid after
    /// run().
    [[nodiscard]] const StateStore& stateStore() const;
    [[nodiscard]] std::size_t packedSize() const { return packedSize_; }

private:
    /// One input letter: the present inputs of an instant.
    struct Letter {
        /// (design signal index, domain index) — domain index -1 for
        /// pure signals.
        std::vector<std::pair<std::int32_t, std::int32_t>> sets;
    };
    struct StateAlphabet {
        std::vector<Letter> letters;
        /// Indices of the letters to expand, ascending: all of them
        /// unless partial-order reduction dropped some (see
        /// computePartialOrder).
        std::vector<std::uint32_t> kept;
        bool truncated = false;
    };

    /// Per-module execution scratch of one worker (design or monitor).
    struct ModuleCtx {
        std::vector<std::uint8_t> slice;   ///< stride bytes, zeroed.
        std::vector<std::uint8_t> present; ///< One byte per signal.
        rt::VmKernel kernel;               ///< Bound to `slice`.

        ModuleCtx(const efsm::FlatProgram& flat,
                  std::shared_ptr<const bc::Program> code,
                  const ModuleSema& sema, const rt::InstanceLayout& layout);
        /// One VM reaction of the loaded slice from `state`, without
        /// counters or outputs; returns the next state.
        int react(int state);
    };

    /// One expanded successor, recorded by a worker for the merge phase.
    struct Succ {
        std::uint32_t parent = 0;
        std::uint32_t letter = 0;
        /// Violation-check index; -1 = none, kTrapped = the reaction
        /// trapped (message in Worker::traps).
        std::int32_t check = -1;
    };
    static constexpr std::int32_t kTrapped = -2;

    /// Per-worker successor budget of one BFS epoch (see the header
    /// comment): small enough that an epoch's successors are still in
    /// the shared cache when the merge reads them.
    static constexpr std::size_t kWorkerEpochBytes = std::size_t{1} << 20;

    struct Worker {
        ModuleCtx design;
        std::optional<ModuleCtx> monitor;
        /// Native design kernel (null unless a module is attached).
        std::unique_ptr<rt::NativeKernel> native;
        // Successor buffers, refilled every BFS epoch / DFS state.
        std::vector<std::uint8_t> packed; ///< Successors, packedSize each.
        /// StateStore::hashBytes of each packed successor (0 for a trap
        /// placeholder), so the merge never rehashes a record.
        std::vector<std::uint64_t> hashes;
        std::vector<Succ> succs;
        /// Trap messages: (succs index, text) of each kTrapped successor.
        std::vector<std::pair<std::uint32_t, std::string>> traps;
        std::uint64_t lettersReduced = 0; ///< POR-skipped expansions.
        bool sawTruncation = false; ///< Expanded a truncated-alphabet state.
        std::exception_ptr fatal;

        Worker(const Explorer& ex);
        void clearSuccessors();
    };

    struct ParentLink {
        std::uint32_t parent = 0;
        std::uint32_t letter = 0;
    };

    /// Resolved violation check (signal checks first, then predicates).
    struct Check {
        Violation::Kind kind = Violation::Kind::DesignSignal;
        int signal = -1; ///< Signal checks.
        std::size_t predicate = 0; ///< Index into predicates_.
        std::string name;
    };

    /// Presence-only decision-tree simulation result (POR).
    struct SimResult {
        int endState = -1;
        std::vector<std::int32_t> emitted; ///< Signals, walk order.
        std::vector<std::int32_t> chunks;  ///< Executed action chunks.
    };

    void buildAlphabet();
    void resolveChecks();
    void computePartialOrder();
    bool simPure(int state, std::vector<std::uint8_t>& present,
                 SimResult& out) const;
    [[nodiscard]] bool isCommutativeChunk(std::int32_t chunk) const;
    /// Expands one (state, letter) from the packed record `rec`.
    void expandOne(Worker& w, const std::uint8_t* rec, std::uint32_t id,
                   std::uint32_t letterIdx);
    /// Expands every kept letter of live state `id` (record `rec`) into
    /// w's successor buffers — the one letter loop of BFS and DFS.
    void expandState(Worker& w, const std::uint8_t* rec, std::uint32_t id);
    /// Successors a BFS expansion of state `id` produces (0 if dead).
    [[nodiscard]] std::uint32_t expansionsOf(std::uint32_t id) const;
    /// Expands frontier ids [begin, end); records are read from the
    /// level buffer (levelRecs_ at levelBase_), never from the store.
    void expandRange(Worker& w, std::uint32_t begin, std::uint32_t end);
    /// Picks the epoch starting at frontier id `begin` (ending no later
    /// than `levelEnd`), stages its contiguous per-worker chunks in
    /// ranges_ and returns the epoch's end.
    std::uint32_t planEpoch(std::uint32_t begin, std::uint32_t levelEnd,
                            std::uint64_t budget);
    ExploreResult runBfs();
    ExploreResult runDfs();
    /// Merges one worker buffer in canonical order; appends new records
    /// to nextRecs_. Returns true when a violation stops exploration.
    bool mergeWorker(Worker& w, ExploreResult& out);
    void recordViolation(const Worker& w, std::size_t i,
                         const std::uint8_t* packed, ExploreResult& out);
    std::vector<TraceStep> buildTrace(std::uint32_t parent,
                                      std::uint32_t letterIdx) const;
    TraceStep letterToStep(std::uint32_t stateId,
                           std::uint32_t letterIdx) const;

    const efsm::FlatProgram& flat_;
    std::shared_ptr<const bc::Program> code_;
    const ModuleSema& sema_;
    rt::InstanceLayout layout_;
    ExplorerOptions options_;
    std::vector<std::shared_ptr<const void>> owners_;

    // Monitor (optional).
    const efsm::FlatProgram* monFlat_ = nullptr;
    std::shared_ptr<const bc::Program> monCode_;
    const ModuleSema* monSema_ = nullptr;
    rt::InstanceLayout monLayout_;
    std::vector<MonitorWire> wires_;

    // Native successor function (optional).
    std::shared_ptr<const rt::NativeModule> native_;

    // Packed-record geometry.
    std::size_t headerBytes_ = 4;
    std::size_t packedSize_ = 0;

    // Canonical per-design-state input alphabet.
    std::vector<std::vector<Value>> domains_; ///< Per design signal index.
    std::vector<StateAlphabet> alphabet_;     ///< Per design flat state.

    // Violation checks.
    std::vector<Check> checks_;
    std::vector<std::pair<std::string, Predicate>> predicates_;

    // Exploration state. Workers never read store_: the current BFS
    // level's records live in levelRecs_ (id i at levelRecs_[i -
    // levelBase_]), the merge appends newly interned records to
    // nextRecs_ (the two swap every level and keep their blocks, so
    // frontier memory is allocated once, for the widest pair of
    // levels), and designStates_ carries each id's design
    // control state for dead-state checks and trace reconstruction —
    // which is what lets the bitstate store drop the records entirely,
    // and removes every at()-across-intern() stale-pointer site.
    std::unique_ptr<StateStore> store_;
    RecordArena levelRecs_{1};
    RecordArena nextRecs_{1};
    std::uint32_t levelBase_ = 0;
    std::vector<std::int32_t> designStates_; ///< Per interned id.
    std::vector<ParentLink> parents_; ///< Per interned id.
    std::vector<std::uint32_t> depths_;
    bool ran_ = false;

    // BFS worker pool (threads > 1): one rt::WorkerPool round per epoch
    // over contiguous frontier chunks — the batch runtime's discipline,
    // now literally the same code.
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges_;
};

} // namespace ecl::verify
