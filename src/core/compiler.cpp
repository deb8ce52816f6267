#include "src/core/compiler.h"

#include "src/codegen/c_gen.h"
#include "src/frontend/parser.h"
#include "src/efsm/optimize.h"
#include "src/sema/elaborate.h"

namespace ecl {

CompiledModule::CompiledModule(std::shared_ptr<const SharedProgram> shared,
                               std::unique_ptr<ast::ModuleDecl> flat,
                               const CompileOptions& options,
                               Diagnostics& diags)
    : shared_(std::move(shared)), flat_(std::move(flat))
{
    sema_ = std::make_unique<ModuleSema>(
        analyzeModule(*flat_, shared_->sema, diags));
    reactive_ = std::make_unique<ir::ReactiveProgram>(
        lowerModule(*flat_, *sema_, diags, &lowerStats_));
    machine_ = std::make_unique<efsm::Efsm>(
        buildEfsm(*reactive_, *sema_, diags, options.efsm));
    if (options.optimizeEfsm) efsm::optimize(*machine_);

    if (!options.flatten) return;
    // Flatten the decision trees and compile every data predicate, data
    // action and emit-value expression to bytecode, then run the
    // post-flatten optimization pipeline (src/opt) at options.optLevel.
    // Any failure degrades to the tree-walking representation (recorded
    // as a note) rather than failing the compile — the flat path is an
    // optimization.
    try {
        auto fp = std::make_unique<efsm::FlatProgram>(
            efsm::flatten(*machine_));
        bc::ProgramBuilder builder(shared_->sema, shared_->functions,
                                   *sema_);
        for (efsm::FlatNode& n : fp->nodes)
            if (n.dataCond) n.predChunk = builder.compileExpr(*n.dataCond);
        for (efsm::FlatAction& a : fp->actions) {
            if (a.kind == efsm::FlatAction::Kind::Emit) {
                if (a.valueExpr) a.chunk = builder.compileExpr(*a.valueExpr);
                continue;
            }
            const ir::DataAction& da =
                reactive_->actions[static_cast<std::size_t>(a.dataActionId)];
            if (da.stmt)
                a.chunk = builder.compileStmt(*da.stmt);
            else if (da.expr)
                a.chunk = builder.compileExpr(*da.expr);
        }
        std::shared_ptr<bc::Program> code = builder.finish();
        optStats_ = opt::optimize(*fp, *code, options.optLevel);
        byteCode_ = std::move(code);
        flatProgram_ = std::move(fp);
    } catch (const EclError& e) {
        diags.note({}, "flat execution disabled for module '" + flat_->name +
                           "': " + e.what());
        flatProgram_.reset();
        byteCode_.reset();
        optStats_ = {};
    }
}

std::unique_ptr<rt::SyncEngine>
CompiledModule::makeSyncEngine(EngineKind kind) const
{
    if (!hasFlatProgram())
        throw EclError("makeSyncEngine: module '" + flat_->name +
                       "' has no flat program (compiled with flatten=false "
                       "or flattening was disabled by a note)");
    if (kind == EngineKind::TreeWalk)
        throw EclError("makeSyncEngine: SyncEngine runs the flat tables; "
                       "use makeEngine(EngineKind::TreeWalk) for the tree "
                       "walk");
    std::unique_ptr<rt::SyncEngine> engine;
    if (kind == EngineKind::Native) {
        try {
            engine = std::make_unique<rt::SyncEngine>(*sema_, *flatProgram_,
                                                      nativeModule());
        } catch (const EclError& e) {
            // Native backend unavailable (untypeable chunk, no host
            // compiler, dlopen failure, shape mismatch): run the same
            // semantics on the VM; backendName() tells which one ran.
            noteNativeFallback(e);
        }
    }
    if (!engine)
        engine = std::make_unique<rt::SyncEngine>(*sema_, *flatProgram_,
                                                  byteCode_);
    // Keep this module alive while the engine exists (compile() hands out
    // shared_ptrs; stack-constructed modules simply skip the retain).
    if (auto self = weak_from_this().lock()) engine->retain(self);
    return engine;
}

std::shared_ptr<const rt::NativeModule> CompiledModule::nativeModule() const
{
    std::lock_guard<std::mutex> lock(nativeMutex_);
    if (!nativeTried_) {
        nativeTried_ = true;
        try {
            nativeModule_ =
                rt::NativeModule::build(codegen::generateC(*this), name());
        } catch (const EclError& e) {
            nativeError_ = e.what();
        }
    }
    if (!nativeModule_) throw EclError(nativeError_);
    return nativeModule_;
}

std::string CompiledModule::nativeFallbackReason() const
{
    std::lock_guard<std::mutex> lock(nativeMutex_);
    return nativeFallbackReason_;
}

void CompiledModule::noteNativeFallback(const EclError& e) const
{
    std::lock_guard<std::mutex> lock(nativeMutex_);
    nativeFallbackReason_ = e.what();
}

std::unique_ptr<rt::ReactiveEngine>
CompiledModule::makeEngine(EngineKind kind) const
{
    if (kind != EngineKind::TreeWalk && hasFlatProgram())
        return makeSyncEngine(kind);
    if (kind == EngineKind::Native) {
        // No flat program, so no native code: nativeModule() names why.
        try {
            static_cast<void>(nativeModule());
        } catch (const EclError& e) {
            noteNativeFallback(e);
        }
    }
    auto engine = std::make_unique<rt::TreeEngine>(
        *machine_, *sema_, shared_->sema, shared_->functions);
    if (auto self = weak_from_this().lock()) engine->retain(self);
    return engine;
}

std::unique_ptr<rt::BatchEngine>
CompiledModule::makeBatchEngine(std::size_t instances,
                                rt::BatchOptions options,
                                EngineKind kind) const
{
    if (!hasFlatProgram())
        throw EclError("makeBatchEngine: module '" + flat_->name +
                       "' has no flat program (compiled with flatten=false "
                       "or flattening was disabled by a note)");
    if (kind == EngineKind::TreeWalk)
        throw EclError("makeBatchEngine: the batch runtime is arena-based; "
                       "EngineKind::TreeWalk has no batch backend");
    std::shared_ptr<const rt::NativeModule> native;
    if (kind == EngineKind::Native) {
        try {
            native = nativeModule();
            rt::validateNativeShape(native->info(), *sema_, *flatProgram_,
                                    rt::computeInstanceLayout(*sema_));
        } catch (const EclError& e) {
            // Native backend unavailable: run the same semantics on the
            // VM (makeEngine's fallback contract; backendName() tells).
            noteNativeFallback(e);
            native.reset();
        }
    }
    auto engine = std::make_unique<rt::BatchEngine>(
        *flatProgram_, byteCode_, *sema_, instances, options,
        std::move(native));
    if (auto self = weak_from_this().lock()) engine->retain(self);
    return engine;
}

std::unique_ptr<verify::Explorer>
CompiledModule::makeExplorer(verify::ExplorerOptions options) const
{
    if (!hasFlatProgram())
        throw EclError("makeExplorer: module '" + flat_->name +
                       "' has no flat program (compiled with flatten=false "
                       "or flattening was disabled by a note)");
    const bool wantNative = options.nativeSuccessors;
    auto explorer = std::make_unique<verify::Explorer>(
        *flatProgram_, byteCode_, *sema_, std::move(options));
    if (wantNative) {
        try {
            explorer->attachNative(nativeModule());
        } catch (const EclError& e) {
            noteNativeFallback(e);
            // Native backend unavailable: explore on the VM (the same
            // fallback contract as makeEngine/makeBatchEngine;
            // ExploreStats::usedNativeSuccessors reports which ran).
        }
    }
    if (auto self = weak_from_this().lock()) explorer->retain(self);
    return explorer;
}

void CompiledModule::attachAsMonitor(verify::Explorer& explorer) const
{
    if (!hasFlatProgram())
        throw EclError("attachAsMonitor: module '" + flat_->name +
                       "' has no flat program");
    explorer.attachMonitor(*flatProgram_, byteCode_, *sema_,
                           weak_from_this().lock());
}

std::unique_ptr<rt::RcEngine> CompiledModule::makeBaselineEngine() const
{
    auto engine = std::make_unique<rt::RcEngine>(
        *reactive_, *sema_, shared_->sema, shared_->functions);
    if (auto self = weak_from_this().lock()) engine->retain(self);
    return engine;
}

Compiler::Compiler(const std::string& source)
{
    shared_ = std::make_shared<SharedProgram>();
    shared_->program = parseEcl(source, diags_);
    shared_->sema = analyzeProgramDecls(shared_->program, diags_);
    // ProgramSema::program points at the pre-move AST; fix it up to the
    // final location inside the shared struct.
    shared_->sema.program = &shared_->program;
    for (const ast::TopDeclPtr& d : shared_->program.decls) {
        if (d->kind != ast::DeclKind::Function) continue;
        const auto& fn = static_cast<const ast::FunctionDecl&>(*d);
        shared_->functions.emplace(
            fn.name, analyzeFunction(fn, shared_->sema, diags_));
    }
}

std::shared_ptr<CompiledModule> Compiler::compile(const std::string& topName,
                                                  const CompileOptions& options)
{
    std::unique_ptr<ast::ModuleDecl> flat =
        elaborate(shared_->program, shared_->sema, topName, diags_);
    return std::make_shared<CompiledModule>(shared_, std::move(flat), options,
                                            diags_);
}

std::vector<std::string> Compiler::moduleNames() const
{
    std::vector<std::string> out;
    for (const ast::TopDeclPtr& d : shared_->program.decls)
        if (d->kind == ast::DeclKind::Module)
            out.push_back(static_cast<const ast::ModuleDecl&>(*d).name);
    return out;
}

} // namespace ecl
