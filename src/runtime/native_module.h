// AOT native backend harness: compile the generated C, dlopen it, and
// run it behind the common ReactiveEngine interface.
//
// NativeModule::build() takes the translation unit emitted by
// codegen::generateC(), invokes a host C compiler on it ($CC if set,
// else the first of cc/gcc/clang that works), caches the shared object
// by source+compiler hash (ECL_NATIVE_CACHE_DIR, default a directory
// under the system temp dir, write-then-rename so concurrent builds are
// safe), loads it with dlopen and resolves `ecl_module_info` +
// `ecl_native_react`. Every failure mode — ECL_NATIVE_DISABLE set, no
// working compiler, compile error, ABI version mismatch — throws
// EclError; CompiledModule::makeEngine(EngineKind::Native) catches that
// and falls back to the bytecode VM.
//
// The loaded module runs through NativeKernel (src/runtime/kernel.h), the
// native implementation of the one reaction kernel: a SyncEngine built
// with a NativeModule (rt::NativeEngine), native BatchEngine workers and
// the explorer's native successors all call it over InstanceLayout bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/native_abi.h"
#include "src/sema/sema.h"

namespace ecl::rt {

class NativeModule {
public:
    /// Compiles + loads `cSource`; throws EclError when the native
    /// backend is unavailable (see file comment). `moduleName` only
    /// names cache artifacts and error messages.
    static std::shared_ptr<const NativeModule>
    build(const std::string& cSource, const std::string& moduleName);

    NativeModule(const NativeModule&) = delete;
    NativeModule& operator=(const NativeModule&) = delete;
    ~NativeModule();

    [[nodiscard]] const EclNativeInfo& info() const { return *info_; }
    [[nodiscard]] EclNativeReactFn react() const { return react_; }
    /// The cached shared object backing this module (diagnostics).
    [[nodiscard]] const std::string& objectPath() const { return soPath_; }
    /// The compiler command that produced it ("" on a cache hit).
    [[nodiscard]] const std::string& compiler() const { return compiler_; }

private:
    NativeModule() = default;

    void* handle_ = nullptr;
    const EclNativeInfo* info_ = nullptr;
    EclNativeReactFn react_ = nullptr;
    std::string soPath_;
    std::string compiler_;
};

/// Backward-branch budget every reaction starts from — the native
/// analogue of bc::Vm's op budget (see c_gen.h on the approximation).
/// NativeKernel reseeds it per reaction, as VmKernel opens a fresh op
/// window per reaction.
inline constexpr std::int64_t kNativeReactFuel = 500'000'000;

/// Validates a loaded module's shape record against the host tables it
/// is about to run over (data layout, signal/state counts, initial
/// state); throws EclError on any mismatch (stale cache, wrong flat
/// tables). Shared by SyncEngine, BatchEngine and the explorer so
/// every native entry point rejects a mismatched module the same way.
void validateNativeShape(const EclNativeInfo& info, const ModuleSema& sema,
                         const efsm::FlatProgram& flat,
                         const InstanceLayout& layout);

} // namespace ecl::rt
