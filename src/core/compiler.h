// The ECL compiler driver — the library's primary public API.
//
// Pipeline (paper Section 1, "ECL Overview"):
//   source --lex/parse--> AST --sema--> typed program
//          --elaborate--> flat module (sync composition by inlining)
//          --partition/lower--> reactive IR + data actions (the split)
//          --build--> EFSM
//          --codegen--> Esterel / C / Verilog artifacts (src/codegen)
//
// Usage:
//   ecl::Compiler compiler(sourceText);
//   auto mod = compiler.compile("toplevel");
//   auto engine = mod->makeEngine();
//   engine->setInputScalar("in_byte", 0x5a);
//   engine->react();
//
// A CompiledModule owns every structure the engines reference; keep the
// shared_ptr alive as long as any engine created from it runs.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "src/efsm/efsm.h"
#include "src/efsm/flatten.h"
#include "src/frontend/ast.h"
#include "src/interp/bytecode.h"
#include "src/ir/ir.h"
#include "src/opt/opt.h"
#include "src/partition/lower.h"
#include "src/runtime/batch_engine.h"
#include "src/runtime/engine.h"
#include "src/runtime/native_module.h"
#include "src/sema/sema.h"
#include "src/support/diagnostics.h"
#include "src/verify/explorer.h"

namespace ecl {

struct CompileOptions {
    efsm::BuildOptions efsm;
    /// Run the decision-tree optimizer (redundant/repeated test
    /// elimination) after the build. Off by default so size studies see
    /// the raw automaton; see src/efsm/optimize.h.
    bool optimizeEfsm = false;
    /// Flatten the EFSM and compile data code to bytecode (what
    /// SyncEngine, the batch runtime and the verifier run). On by
    /// default; the tree-walking representation is always built and
    /// kept as the oracle.
    bool flatten = true;
    /// Post-flatten optimization level (eclc -O{0,1,2}; see
    /// src/opt/opt.h). 0 = tables and bytecode verbatim; 1 = chunk dedup
    /// + flat-state minimization + config dedup (behavior AND
    /// instruction-level ExecCounters bit-exact); 2 = + the bytecode
    /// optimizer (constant folding, copy propagation, DCE, peephole
    /// fusion) — behavior bit-exact, but eliminated instructions no
    /// longer bump ExecCounters, so exact counter equality with the
    /// tree-walking oracle is only defined at levels 0 and 1.
    /// After minimization (>= 1), flat state ids no longer equal the
    /// source Efsm's.
    int optLevel = 2;
};

/// Which execution backend makeEngine() wires up.
enum class EngineKind {
    Flat,     ///< Dense tables + bytecode VM (default fast path).
    TreeWalk, ///< unique_ptr decision trees + tree-walking Evaluator
              ///< (differential-testing oracle, perf baseline).
    Native,   ///< AOT: generated C compiled + dlopened (rt::SyncEngine on
              ///< the native kernel);
              ///< falls back to Flat when the native backend is
              ///< unavailable — check backendName() == "native".
};

/// Parsed + program-analyzed source, shared by all modules compiled from it.
struct SharedProgram {
    ast::Program program;
    ProgramSema sema;
    rt::FunctionSemaMap functions;
};

class CompiledModule : public std::enable_shared_from_this<CompiledModule> {
public:
    CompiledModule(std::shared_ptr<const SharedProgram> shared,
                   std::unique_ptr<ast::ModuleDecl> flat,
                   const CompileOptions& options, Diagnostics& diags);

    [[nodiscard]] const std::string& name() const { return flat_->name; }
    [[nodiscard]] const ast::ModuleDecl& flatModule() const { return *flat_; }
    [[nodiscard]] const ModuleSema& moduleSema() const { return *sema_; }
    [[nodiscard]] const ir::ReactiveProgram& reactiveProgram() const
    {
        return *reactive_;
    }
    [[nodiscard]] const efsm::Efsm& machine() const { return *machine_; }
    [[nodiscard]] const ProgramSema& programSema() const
    {
        return shared_->sema;
    }
    [[nodiscard]] const rt::FunctionSemaMap& functions() const
    {
        return shared_->functions;
    }
    [[nodiscard]] const LowerStats& lowerStats() const { return lowerStats_; }
    /// What the post-flatten pipeline did at CompileOptions::optLevel
    /// (all-zero when optLevel = 0 or the flat representation was not
    /// built); surfaced by `eclc --opt-stats`.
    [[nodiscard]] const opt::PipelineStats& optStats() const
    {
        return optStats_;
    }

    /// True when the flattened tables + bytecode were built (the fast
    /// path makeEngine() wires up by default).
    [[nodiscard]] bool hasFlatProgram() const
    {
        return flatProgram_ != nullptr && byteCode_ != nullptr;
    }
    /// The flattened machine; requires hasFlatProgram().
    [[nodiscard]] const efsm::FlatProgram& flatProgram() const
    {
        return *flatProgram_;
    }
    /// The compiled data bytecode; requires hasFlatProgram().
    [[nodiscard]] const bc::Program& byteCode() const { return *byteCode_; }
    /// Shared ownership of the bytecode (engines/explorers built by
    /// hand); null when the flat representation was not built.
    [[nodiscard]] std::shared_ptr<const bc::Program> byteCodePtr() const
    {
        return byteCode_;
    }

    /// Creates a synchronous engine of the requested backend. The
    /// CompiledModule must outlive it. EngineKind::TreeWalk yields the
    /// tree-walking oracle (rt::TreeEngine), and so does EngineKind::Flat
    /// when the flat representation was not built (flatten=false);
    /// EngineKind::Native falls back to Flat when C generation, the host
    /// compiler, or dlopen is unavailable (the returned engine's
    /// backendName() tells which one you got).
    [[nodiscard]] std::unique_ptr<rt::ReactiveEngine>
    makeEngine(EngineKind kind = EngineKind::Flat) const;

    /// Like makeEngine() but statically typed to the arena engine, for
    /// callers that need SyncEngine itself (verifier replay, state
    /// packing tests): the VM kernel for EngineKind::Flat, the native
    /// kernel for EngineKind::Native (with makeEngine's fall-back-to-VM
    /// policy). Requires hasFlatProgram() and rejects
    /// EngineKind::TreeWalk, throwing EclError.
    [[nodiscard]] std::unique_ptr<rt::SyncEngine>
    makeSyncEngine(EngineKind kind = EngineKind::Flat) const;

    /// The generated-C source and compiled shared object behind
    /// EngineKind::Native, built on demand and memoized per module
    /// (every Native engine of this module shares one dlopened object).
    /// Throws EclError when the native backend is unavailable.
    [[nodiscard]] std::shared_ptr<const rt::NativeModule>
    nativeModule() const;

    /// Why the latest EngineKind::Native request of makeEngine,
    /// makeBatchEngine or makeExplorer ran on the VM instead (no flat
    /// program, untypeable chunk, host compiler failure naming the
    /// compiler, dlopen or shape mismatch); empty while none has fallen
    /// back.
    [[nodiscard]] std::string nativeFallbackReason() const;

    /// Creates the Reactive-C-style baseline engine (related-work
    /// comparison and differential-testing oracle).
    [[nodiscard]] std::unique_ptr<rt::RcEngine> makeBaselineEngine() const;

    /// Creates a batch engine running `instances` independent instances of
    /// this module over the shared flat tables + bytecode (see
    /// src/runtime/batch_engine.h). Requires hasFlatProgram(); throws
    /// EclError when the flat representation was not built.
    /// EngineKind::Native makes every batch worker call the AOT-compiled
    /// reaction function on the shared arenas, with the same silent
    /// fall-back-to-VM policy as makeEngine (check backendName());
    /// EngineKind::TreeWalk is rejected — the batch runtime is
    /// arena-based by construction.
    [[nodiscard]] std::unique_ptr<rt::BatchEngine>
    makeBatchEngine(std::size_t instances, rt::BatchOptions options = {},
                    EngineKind kind = EngineKind::Flat) const;

    /// Creates an explicit-state verification explorer over this module's
    /// shared flat tables + bytecode (see src/verify/explorer.h).
    /// Requires hasFlatProgram(); throws EclError otherwise.
    [[nodiscard]] std::unique_ptr<verify::Explorer>
    makeExplorer(verify::ExplorerOptions options = {}) const;

    /// Attaches this module to `explorer` as an observer/assertion
    /// monitor: its inputs are wired by name to the explored design's
    /// signals and any violation signal it emits flags a counterexample.
    /// Requires hasFlatProgram().
    void attachAsMonitor(verify::Explorer& explorer) const;

private:
    std::shared_ptr<const SharedProgram> shared_;
    std::unique_ptr<ast::ModuleDecl> flat_;
    std::unique_ptr<ModuleSema> sema_;
    std::unique_ptr<ir::ReactiveProgram> reactive_;
    std::unique_ptr<efsm::Efsm> machine_;
    std::unique_ptr<efsm::FlatProgram> flatProgram_;
    std::shared_ptr<const bc::Program> byteCode_;
    LowerStats lowerStats_;
    opt::PipelineStats optStats_;
    /// Memoized AOT artifact (built on first Native engine request).
    mutable std::mutex nativeMutex_;
    mutable std::shared_ptr<const rt::NativeModule> nativeModule_;
    mutable bool nativeTried_ = false;
    mutable std::string nativeError_;
    mutable std::string nativeFallbackReason_;

    void noteNativeFallback(const EclError& e) const;
};

class Compiler {
public:
    /// Parses and analyzes `source`. Throws EclError with diagnostics on
    /// lexical, syntax or program-level semantic errors.
    explicit Compiler(const std::string& source);

    /// Compiles module `topName` synchronously: every instantiation inlined
    /// into one EFSM (the paper's single-task implementation).
    std::shared_ptr<CompiledModule> compile(const std::string& topName,
                                            const CompileOptions& options = {});

    [[nodiscard]] const ast::Program& program() const
    {
        return shared_->program;
    }
    [[nodiscard]] const ProgramSema& programSema() const
    {
        return shared_->sema;
    }
    [[nodiscard]] const Diagnostics& diagnostics() const { return diags_; }

    /// Names of all modules in the program (for async composition).
    [[nodiscard]] std::vector<std::string> moduleNames() const;

private:
    std::shared_ptr<SharedProgram> shared_;
    Diagnostics diags_;
};

} // namespace ecl
