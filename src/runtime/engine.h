// Synchronous reactive engines.
//
// SyncEngine executes the compiled EFSM: one decision-tree walk per instant
// — the paper's fast path ("the Esterel compiler does case analysis much
// better than a human designer"). It is a one-instance view over the
// reaction kernel (src/runtime/kernel.h): the instance's variables and
// signal values live in one InstanceLayout arena, presence is one byte per
// signal, and each react() hands both to the VM kernel (flat tables +
// bytecode) or, when built with a NativeModule, to the native kernel
// (AOT-compiled C). packState() is a copy of the arena, byte-compatible
// with batch instances and the verifier's states.
//
// TreeEngine is the original unique_ptr decision-tree walk with the
// tree-walking Evaluator, kept as the independent oracle the flat and
// native paths are differentially tested against; it also runs modules
// that have no flat program.
//
// RcEngine is the Reactive-C-style baseline of the related-work section:
// it re-walks the whole reactive program structure every instant, keeping
// an explicit set of active pause points. Semantically equivalent (used as
// a differential-testing oracle) but with interpretive overhead per
// reaction, like RC's direct compilation to C.
//
// All three open a fresh runaway-guard window (op budget or native fuel)
// per reaction, so an unbounded data loop traps within the reaction that
// runs it, with the same message on every engine.
//
// Input/output APIs come in two flavors: index-based (the fast path —
// signal indices from ModuleSema, no hash lookups; used by the RTOS
// simulator and benches) and string-based convenience wrappers that
// resolve the name once and delegate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/efsm/efsm.h"
#include "src/efsm/flatten.h"
#include "src/interp/eval.h"
#include "src/interp/vm.h"
#include "src/ir/ir.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/kernel.h"
#include "src/runtime/signal_env.h"
#include "src/sema/sema.h"

namespace ecl::rt {

using FunctionSemaMap = std::unordered_map<std::string, FunctionSema>;

/// Common interface so tests and benches can drive both engines uniformly.
class ReactiveEngine {
public:
    virtual ~ReactiveEngine() = default;

    /// Keeps an owner (typically the CompiledModule) alive for the
    /// engine's lifetime — engines hold references into compiled
    /// structures.
    void retain(std::shared_ptr<const void> owner) { owner_ = std::move(owner); }

    // --- index-based fast path (indices are SignalInfo::index) ---
    virtual void setInput(int sigIndex) = 0;
    virtual void setInputScalar(int sigIndex, std::int64_t v) = 0;
    virtual void setInputValue(int sigIndex, Value v) = 0;
    virtual ReactionResult react() = 0;
    /// Presence of any signal in the last reaction (observability API —
    /// internal signals included, not only outputs).
    [[nodiscard]] virtual bool outputPresent(int sigIndex) const = 0;
    [[nodiscard]] virtual Value outputValue(int sigIndex) const = 0;

    [[nodiscard]] virtual bool terminated() const = 0;
    /// True when the engine must react next instant even with no inputs
    /// (an await() delta pause is pending).
    [[nodiscard]] virtual bool needsAutoResume() const = 0;
    /// Signal table of the module this engine runs (name resolution).
    [[nodiscard]] virtual const ModuleSema& moduleSema() const = 0;

    /// Short stable name of the execution backend: "flat", "tree", "rc"
    /// or "native". Lets callers of makeEngine(EngineKind::Native) tell a
    /// real native engine from a VM fallback.
    [[nodiscard]] virtual const char* backendName() const = 0;
    /// Packed snapshot [i32 control state][instance-layout data bytes] —
    /// the shared verification/batch state record, byte-comparable across
    /// backends of the same compile. Throws EclError when the engine
    /// cannot snapshot (the default).
    [[nodiscard]] virtual std::vector<std::uint8_t> packState() const;

    // --- string convenience wrappers (resolve the name, then delegate) ---
    void setInput(const std::string& name);
    void setInputScalar(const std::string& name, std::int64_t v);
    void setInputValue(const std::string& name, Value v);
    [[nodiscard]] bool outputPresent(const std::string& name) const;
    [[nodiscard]] Value outputValue(const std::string& name) const;

    /// Index of any signal by name; throws EclError when unknown.
    [[nodiscard]] int signalIndex(const std::string& name) const;
    /// Index of an input signal by name; throws when unknown or not input.
    [[nodiscard]] int inputIndex(const std::string& name) const;

private:
    std::shared_ptr<const void> owner_;
};

class SyncEngine final : public ReactiveEngine {
public:
    /// VM kernel over the module's flat tables and their bytecode.
    SyncEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
               std::shared_ptr<const bc::Program> code);
    /// Native kernel over a module generated from `flat`; the
    /// constructor validates the module's shape record against `flat`
    /// and the instance layout.
    SyncEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
               std::shared_ptr<const NativeModule> module);

    SyncEngine(const SyncEngine&) = delete;
    SyncEngine& operator=(const SyncEngine&) = delete;

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
    [[nodiscard]] const ModuleSema& moduleSema() const override
    {
        return sema_;
    }
    [[nodiscard]] const char* backendName() const override
    {
        return native_ ? "native" : "flat";
    }
    [[nodiscard]] std::vector<std::uint8_t> packState() const override;

    /// Current control state id, a FlatProgram id (post-flatten
    /// minimization may have renumbered it away from the Efsm's).
    [[nodiscard]] int currentState() const { return state_; }
    /// Data memory footprint: variables + signal values (memory model).
    [[nodiscard]] std::size_t dataBytes() const { return layout_.dataBytes; }
    /// The loaded module behind a native engine (backendName() ==
    /// "native"; must not be called otherwise).
    [[nodiscard]] const NativeModule& nativeModule() const
    {
        return *module_;
    }

private:
    SyncEngine(const ModuleSema& sema, const efsm::FlatProgram& flat);
    void beginInput();

    const ModuleSema& sema_;
    const efsm::FlatProgram& flat_;
    InstanceLayout layout_;
    std::vector<std::uint8_t> arena_;   ///< layout_.stride bytes.
    std::vector<std::uint8_t> present_; ///< One byte per signal.
    std::vector<std::uint8_t> lastPresent_;
    std::shared_ptr<const NativeModule> module_;
    std::unique_ptr<VmKernel> vm_;         ///< Exactly one of these two
    std::unique_ptr<NativeKernel> native_; ///< kernels is set.
    int state_ = 0;
    bool instantOpen_ = false;
};

/// The native engine is a SyncEngine built with a NativeModule.
using NativeEngine = SyncEngine;

class TreeEngine final : public ReactiveEngine {
public:
    TreeEngine(const efsm::Efsm& machine, const ModuleSema& sema,
               const ProgramSema& program, const FunctionSemaMap& functions);

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
    [[nodiscard]] const ModuleSema& moduleSema() const override
    {
        return sema_;
    }
    [[nodiscard]] const char* backendName() const override { return "tree"; }
    /// Packs the store and signal values field by field into the
    /// instance layout; the control state is an Efsm id.
    [[nodiscard]] std::vector<std::uint8_t> packState() const override;

private:
    void beginInput();
    void runActions(const std::vector<efsm::Action>& actions,
                    ReactionResult& result);

    const efsm::Efsm& machine_;
    const ModuleSema& sema_;
    SignalEnv env_;
    Store store_;
    Evaluator eval_;
    int state_ = 0;
    std::vector<bool> lastPresent_;
    bool instantOpen_ = false;
};

class RcEngine final : public ReactiveEngine {
public:
    RcEngine(const ir::ReactiveProgram& program, const ModuleSema& sema,
             const ProgramSema& programSema, const FunctionSemaMap& functions);

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
    [[nodiscard]] const ModuleSema& moduleSema() const override
    {
        return sema_;
    }
    [[nodiscard]] const char* backendName() const override { return "rc"; }

    [[nodiscard]] Store& store() { return store_; }

private:
    enum class Comp { Term, Pause, Exit };
    struct WalkResult {
        Comp comp = Comp::Term;
        int trapId = -1;
        int trapDepth = 0;
        PauseSet pauses;
    };
    enum class Mode { Start, Resume };

    WalkResult walk(const ir::Node& n, Mode mode, ReactionResult& result);
    bool guardValue(const ir::SigGuard& g);
    void doEmit(const ir::Node& n, ReactionResult& result);

    const ir::ReactiveProgram& prog_;
    const ModuleSema& sema_;
    SignalEnv env_;
    Store store_;
    Evaluator eval_;
    PauseSet config_;
    bool started_ = false;
    bool dead_ = false;
    std::vector<bool> lastPresent_;
};

} // namespace ecl::rt
