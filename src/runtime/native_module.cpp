#include "src/runtime/native_module.h"

#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/interp/value.h"
#include "src/support/strings.h"

namespace ecl::rt {

namespace fs = std::filesystem;

namespace {

std::string hex16(std::uint64_t v)
{
    static const char* digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4) s[i] = digits[v & 0xf];
    return s;
}

std::string readLogTail(const fs::path& log)
{
    std::ifstream is(log);
    if (!is) return {};
    std::stringstream ss;
    ss << is.rdbuf();
    std::string text = ss.str();
    if (text.size() > 512) text = "..." + text.substr(text.size() - 512);
    return text;
}

} // namespace

// ---------------------------------------------------------------------------
// NativeModule
// ---------------------------------------------------------------------------

std::shared_ptr<const NativeModule>
NativeModule::build(const std::string& cSource, const std::string& moduleName)
{
    if (const char* off = std::getenv("ECL_NATIVE_DISABLE");
        off && *off)
        throw EclError("native backend disabled via ECL_NATIVE_DISABLE");

    std::vector<std::string> candidates;
    if (const char* cc = std::getenv("CC"); cc && *cc)
        candidates = {cc}; // $CC is authoritative: no silent substitute.
    else
        candidates = {"cc", "gcc", "clang"};

    fs::path cacheDir;
    if (const char* dir = std::getenv("ECL_NATIVE_CACHE_DIR"); dir && *dir)
        cacheDir = dir;
    else
        cacheDir = fs::temp_directory_path() / "ecl-native-cache";
    std::error_code ec;
    fs::create_directories(cacheDir, ec);
    if (ec)
        throw EclError("native backend: cannot create cache dir '" +
                       cacheDir.string() + "': " + ec.message());

    auto mod = std::shared_ptr<NativeModule>(new NativeModule());
    std::string firstError;
    fs::path soPath;
    for (const std::string& compiler : candidates) {
        // The compiler is part of the cache key: different compilers may
        // produce ABI-identical but byte-different objects, and a failed
        // $CC must never hit a cache entry a working cc produced.
        std::uint64_t h = fnv1a64(cSource + '\0' + compiler);
        fs::path base =
            cacheDir / ("ecl_" + moduleName + "_" + hex16(h));
        soPath = base;
        soPath += ".so";
        if (fs::exists(soPath)) {
            mod->compiler_.clear(); // Cache hit.
            break;
        }

        fs::path cPath = base;
        cPath += ".c";
        fs::path logPath = base;
        logPath += ".log";
        {
            std::ofstream os(cPath, std::ios::binary | std::ios::trunc);
            os << cSource;
            if (!os)
                throw EclError("native backend: cannot write '" +
                               cPath.string() + "'");
        }
        // Write-then-rename: concurrent builders race benignly.
        fs::path tmp = soPath;
        tmp += ".tmp" + std::to_string(static_cast<long>(::getpid()));
        std::string cmd = compiler + " -std=c99 -O2 -fPIC -shared -o '" +
                          tmp.string() + "' '" + cPath.string() + "' 2>'" +
                          logPath.string() + "'";
        int rc = std::system(cmd.c_str());
        if (rc == 0 && fs::exists(tmp)) {
            fs::rename(tmp, soPath, ec);
            if (ec && !fs::exists(soPath))
                throw EclError("native backend: rename failed: " +
                               ec.message());
            mod->compiler_ = compiler;
            break;
        }
        fs::remove(tmp, ec);
        if (firstError.empty()) {
            firstError = "'" + compiler + "' failed (exit " +
                         std::to_string(rc) + ")";
            std::string tail = readLogTail(logPath);
            if (!tail.empty()) firstError += ": " + tail;
        }
        soPath.clear();
    }
    if (soPath.empty())
        throw EclError("native backend: no working C compiler for module '" +
                       moduleName + "': " + firstError);

    mod->soPath_ = soPath.string();
    mod->handle_ = ::dlopen(mod->soPath_.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!mod->handle_) {
        const char* err = ::dlerror();
        throw EclError("native backend: dlopen('" + mod->soPath_ +
                       "') failed: " + (err ? err : "unknown error"));
    }
    mod->info_ = static_cast<const EclNativeInfo*>(
        ::dlsym(mod->handle_, "ecl_module_info"));
    mod->react_ = reinterpret_cast<EclNativeReactFn>(
        ::dlsym(mod->handle_, "ecl_native_react"));
    if (!mod->info_ || !mod->react_)
        throw EclError("native backend: '" + mod->soPath_ +
                       "' lacks the ecl_module_info/ecl_native_react "
                       "symbols");
    if (mod->info_->abi_version != kEclNativeAbiVersion)
        throw EclError("native backend: ABI version " +
                       std::to_string(mod->info_->abi_version) +
                       " in '" + mod->soPath_ + "', host expects " +
                       std::to_string(kEclNativeAbiVersion));
    return mod;
}

NativeModule::~NativeModule()
{
    if (handle_) ::dlclose(handle_);
}

void validateNativeShape(const EclNativeInfo& info, const ModuleSema& sema,
                         const efsm::FlatProgram& flat,
                         const InstanceLayout& layout)
{
    if (info.data_bytes != layout.dataBytes ||
        info.signals != sema.signals.size() ||
        info.states != flat.states.size() ||
        info.initial_state != flat.initialState)
        throw EclError(std::string("native backend: module '") +
                       (info.module_name ? info.module_name : "?") +
                       "' shape does not match this compile (stale cache "
                       "or wrong flat tables)");
}

} // namespace ecl::rt
