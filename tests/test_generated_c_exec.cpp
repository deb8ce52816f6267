// Native AOT backend differential suite: the C emitted by
// codegen::generateC() is compiled with the host C compiler, dlopened
// through rt::NativeModule, and driven behind the common ReactiveEngine
// interface — then compared bit-exactly (trace strings AND packed final
// state) against the -O2 bytecode VM over the paper modules, the
// committed scenario corpus, and a seeded generator sweep; the corpus
// and generator sweeps also compare the walk counters and emitted
// outputs of every reaction. Every test
// that needs a host C compiler skips cleanly when none is available;
// the fallback tests assert the graceful degradation contract itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/codegen/c_gen.h"
#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/corpus/program_gen.h"
#include "src/runtime/native_abi.h"
#include "src/runtime/native_module.h"
#include "src/support/strings.h"

namespace ecl {
namespace {

// The eight paper modules (both figures), with per-module stimulus seeds
// so no two modules see the same input stream.
struct PaperCase {
    const char* module;
    bool stack; ///< protocolStackSource vs audioBufferSource.
    unsigned stimSeed;
};

const PaperCase kPaperCases[] = {
    {"assemble", true, 101},   {"checkcrc", true, 102},
    {"prochdr", true, 103},    {"toplevel", true, 104},
    {"producer", false, 105},  {"playback", false, 106},
    {"blinker", false, 107},   {"buffer_top", false, 108},
};

std::shared_ptr<CompiledModule> compilePaper(const PaperCase& pc,
                                             int optLevel)
{
    Compiler compiler(pc.stack ? paper::protocolStackSource()
                               : paper::audioBufferSource());
    CompileOptions opts;
    opts.optLevel = optLevel;
    return compiler.compile(pc.module, opts);
}

/// True when makeEngine(EngineKind::Native) actually yields the native
/// backend on this machine (a host C compiler exists and the generated
/// C compiles). Probed once; every differential test skips otherwise.
bool nativeAvailable()
{
    static const bool avail = [] {
        auto mod = compilePaper(kPaperCases[6], 2); // blinker: smallest
        auto eng = mod->makeEngine(EngineKind::Native);
        return std::string(eng->backendName()) == "native";
    }();
    return avail;
}

#define REQUIRE_NATIVE()                                                    \
    if (!nativeAvailable())                                                 \
    GTEST_SKIP() << "no host C compiler; native backend unavailable"

/// A compiler usable for standalone syntax checks of the emitted TU.
std::string syntaxCheckCompiler()
{
    if (const char* cc = std::getenv("CC"); cc && *cc) return cc;
    for (const char* cand : {"cc", "gcc", "clang"}) {
        std::string probe =
            std::string(cand) + " --version >/dev/null 2>&1";
        if (std::system(probe.c_str()) == 0) return cand;
    }
    return "";
}

/// Scoped env var override that restores the previous value on exit.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

private:
    const char* name_;
    bool hadOld_ = false;
    std::string old_;
};

std::filesystem::path freshTempDir(const std::string& tag)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("ecl_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    return dir;
}

std::shared_ptr<CompiledModule> compileCorpus(const std::string& name,
                                              int optLevel)
{
    for (const corpus::Scenario& s : corpus::loadCorpusDir(ECL_CORPUS_DIR))
        if (s.name == name) return corpus::compileScenario(s, optLevel);
    ADD_FAILURE() << "no corpus scenario " << name;
    return nullptr;
}

/// One reaction's walk counters and emitted outputs.
struct WalkRecord {
    std::uint64_t treeTests = 0;
    std::uint64_t actionsRun = 0;
    std::uint64_t emitsRun = 0;
    std::vector<int> emittedOutputs;

    bool operator==(const WalkRecord& o) const
    {
        return treeTests == o.treeTests && actionsRun == o.actionsRun &&
               emitsRun == o.emitsRun && emittedOutputs == o.emittedOutputs;
    }
};

/// Forwards to `inner` and records every reaction's WalkRecord, so two
/// engines driven by the same stimulus compare reaction by reaction.
class WalkRecorder final : public rt::ReactiveEngine {
public:
    explicit WalkRecorder(rt::ReactiveEngine& inner) : inner_(inner) {}

    std::vector<WalkRecord> records;

    void setInput(int sig) override { inner_.setInput(sig); }
    void setInputScalar(int sig, std::int64_t v) override
    {
        inner_.setInputScalar(sig, v);
    }
    void setInputValue(int sig, Value v) override
    {
        inner_.setInputValue(sig, std::move(v));
    }
    rt::ReactionResult react() override
    {
        rt::ReactionResult r = inner_.react();
        records.push_back(
            {r.treeTests, r.actionsRun, r.emitsRun, r.emittedOutputs});
        return r;
    }
    bool outputPresent(int sig) const override
    {
        return inner_.outputPresent(sig);
    }
    Value outputValue(int sig) const override
    {
        return inner_.outputValue(sig);
    }
    bool terminated() const override { return inner_.terminated(); }
    bool needsAutoResume() const override
    {
        return inner_.needsAutoResume();
    }
    const ModuleSema& moduleSema() const override
    {
        return inner_.moduleSema();
    }
    const char* backendName() const override
    {
        return inner_.backendName();
    }

private:
    rt::ReactiveEngine& inner_;
};

/// Fails at the first reaction whose native walk record differs from the
/// VM's (the boot reaction is record 0).
void expectSameWalks(const WalkRecorder& native, const WalkRecorder& vm,
                     const std::string& label)
{
    ASSERT_FALSE(vm.records.empty()) << label;
    ASSERT_EQ(native.records.size(), vm.records.size()) << label;
    for (std::size_t r = 0; r < native.records.size(); ++r) {
        const WalkRecord& n = native.records[r];
        const WalkRecord& v = vm.records[r];
        ASSERT_TRUE(n == v)
            << label << ": reaction " << r << " native tests/actions/emits "
            << n.treeTests << "/" << n.actionsRun << "/" << n.emitsRun
            << " (" << n.emittedOutputs.size() << " outputs) vs VM "
            << v.treeTests << "/" << v.actionsRun << "/" << v.emitsRun
            << " (" << v.emittedOutputs.size() << " outputs)";
    }
}

// ---------------------------------------------------------------------------
// The emitted translation unit itself: compiles standalone, warning-clean.
// ---------------------------------------------------------------------------

// Compiled at -O2, not only syntax-checked: -Wclobbered (in -Wextra) and
// -Wmaybe-uninitialized come from the optimizer.
TEST(NativeCodegen, GeneratedCIsWarningCleanC99)
{
    std::string cc = syntaxCheckCompiler();
    if (cc.empty()) GTEST_SKIP() << "no host C compiler on PATH";
    auto dir = freshTempDir("cgen_syntax");
    std::vector<std::pair<std::string, std::shared_ptr<CompiledModule>>>
        designs;
    for (const PaperCase& pc : kPaperCases)
        designs.emplace_back(pc.module, compilePaper(pc, 2));
    for (const char* name : {"par_pure6", "payload_256", "preempt_n10"})
        designs.emplace_back(name, compileCorpus(name, 2));
    {
        corpus::ProgramGen gen(7, 3);
        Compiler compiler(gen.generate());
        CompileOptions opts;
        opts.optLevel = 2;
        designs.emplace_back("program_gen_s7", compiler.compile("m", opts));
    }
    for (const auto& [name, mod] : designs) {
        ASSERT_TRUE(mod && mod->hasFlatProgram()) << name;
        std::string c = codegen::generateC(*mod);
        auto cPath = dir / (name + ".c");
        { std::ofstream(cPath) << c; }
        for (const char* form : {"", " -DECL_NO_COMPUTED_GOTO"}) {
            auto logPath = dir / (name + ".log");
            std::string cmd = cc + " -std=c99 -O2 -Wall -Wextra" + form +
                              " -c '" + cPath.string() + "' -o '" +
                              (dir / (name + ".o")).string() + "' 2>'" +
                              logPath.string() + "'";
            EXPECT_EQ(std::system(cmd.c_str()), 0) << name << form;
            std::ifstream log(logPath);
            std::string diag((std::istreambuf_iterator<char>(log)),
                             std::istreambuf_iterator<char>());
            EXPECT_TRUE(diag.empty())
                << name << form << " generated C warns:\n"
                << diag;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(NativeCodegen, ModuleInfoMatchesCompiledShape)
{
    REQUIRE_NATIVE();
    auto mod = compilePaper(kPaperCases[3], 2); // toplevel
    auto eng = mod->makeEngine(EngineKind::Native);
    ASSERT_STREQ(eng->backendName(), "native");
    auto* native = dynamic_cast<rt::NativeEngine*>(eng.get());
    ASSERT_NE(native, nullptr);
    const rt::EclNativeInfo& info = native->nativeModule().info();
    EXPECT_EQ(info.abi_version, rt::kEclNativeAbiVersion);
    rt::InstanceLayout layout =
        rt::computeInstanceLayout(mod->moduleSema());
    EXPECT_EQ(info.data_bytes, layout.dataBytes);
    EXPECT_EQ(info.signals, mod->moduleSema().signals.size());
    EXPECT_STREQ(info.module_name, "toplevel");
    EXPECT_FALSE(native->nativeModule().objectPath().empty());
}

// ---------------------------------------------------------------------------
// Differential: native vs the -O2 bytecode VM, bit-exact.
// ---------------------------------------------------------------------------

TEST(NativeDifferential, PaperModulesMatchO2Vm)
{
    REQUIRE_NATIVE();
    const corpus::Profile profiles[] = {corpus::Profile::Random,
                                        corpus::Profile::Payload,
                                        corpus::Profile::Bursty};
    for (const PaperCase& pc : kPaperCases) {
        auto mod = compilePaper(pc, 2);
        ASSERT_TRUE(mod->hasFlatProgram()) << pc.module;
        for (corpus::Profile profile : profiles) {
            auto native = mod->makeEngine(EngineKind::Native);
            ASSERT_STREQ(native->backendName(), "native") << pc.module;
            auto vm = mod->makeSyncEngine();
            std::string traceN =
                corpus::runStimulus(*native, profile, pc.stimSeed, 160);
            std::string traceV =
                corpus::runStimulus(*vm, profile, pc.stimSeed, 160);
            EXPECT_EQ(traceN, traceV)
                << pc.module << " diverged from the -O2 VM under "
                << corpus::profileName(profile);
            // Same compile => same flat state ids and the same packed
            // instance layout: the full snapshot must match byte for
            // byte, not just the sampled outputs.
            EXPECT_EQ(native->packState(), vm->packState())
                << pc.module << " final state diverged under "
                << corpus::profileName(profile);
        }
    }
}

TEST(NativeDifferential, AotAtO0MatchesAotAtO2)
{
    REQUIRE_NATIVE();
    for (const PaperCase& pc : kPaperCases) {
        auto modO0 = compilePaper(pc, 0);
        auto modO2 = compilePaper(pc, 2);
        auto engO0 = modO0->makeEngine(EngineKind::Native);
        auto engO2 = modO2->makeEngine(EngineKind::Native);
        ASSERT_STREQ(engO0->backendName(), "native") << pc.module;
        ASSERT_STREQ(engO2->backendName(), "native") << pc.module;
        // State ids differ across opt levels (state minimization), so
        // compare observable behavior: the full sampled trace.
        EXPECT_EQ(corpus::runStimulus(*engO0, corpus::Profile::Random,
                                      pc.stimSeed, 160),
                  corpus::runStimulus(*engO2, corpus::Profile::Random,
                                      pc.stimSeed, 160))
            << pc.module << " AOT(-O0) diverged from AOT(-O2)";
    }
}

TEST(NativeDifferential, CorpusSweepBitExact)
{
    REQUIRE_NATIVE();
    auto scenarios = corpus::loadCorpusDir(ECL_CORPUS_DIR);
    ASSERT_FALSE(scenarios.empty());
    auto quarantined = corpus::loadQuarantine(ECL_CORPUS_DIR);
    unsigned swept = 0;
    for (const corpus::Scenario& s : scenarios) {
        bool parked = false;
        for (const std::string& q : quarantined)
            if (q == s.name) parked = true;
        if (parked) continue;
        auto mod = corpus::compileScenario(s, 2);
        auto native = mod->makeEngine(EngineKind::Native);
        ASSERT_STREQ(native->backendName(), "native")
            << s.name << ": native backend fell back to the VM";
        WalkRecorder walksN(*native);
        std::string traceN =
            corpus::runStimulus(walksN, s.profile, s.stimSeed, s.instants);
        // Pinned oracle digest (the tree-walk trace) — the strongest
        // cross-version pin the corpus carries.
        EXPECT_EQ(hex64(fnv1a64(traceN)), s.oracleDigest)
            << s.name << " native trace diverged from the pinned oracle";
        // And bit-exact final data, walk counters and emitted outputs
        // against a fresh -O2 VM run.
        auto vm = mod->makeSyncEngine();
        WalkRecorder walksV(*vm);
        std::string traceV =
            corpus::runStimulus(walksV, s.profile, s.stimSeed, s.instants);
        EXPECT_EQ(traceN, traceV) << s.name;
        EXPECT_EQ(native->packState(), vm->packState()) << s.name;
        expectSameWalks(walksN, walksV, s.name);
        ++swept;
    }
    // The ASSERT above makes every non-quarantined scenario run natively,
    // par_pure10 included; 31 is today's whole corpus, so a scenario
    // dropped or parked fails here too.
    EXPECT_GE(swept, 31u);
}

TEST(NativeDifferential, GeneratorSweepMatchesVm)
{
    REQUIRE_NATIVE();
    unsigned nativeRuns = 0;
    for (unsigned seed = 1; seed <= 16; ++seed) {
        corpus::ProgramGen gen(seed, 3);
        Compiler compiler(gen.generate());
        CompileOptions opts;
        opts.optLevel = 2;
        auto mod = compiler.compile("m", opts);
        if (!mod->hasFlatProgram()) continue; // flatten degraded: no AOT
        auto native = mod->makeEngine(EngineKind::Native);
        EXPECT_STREQ(native->backendName(), "native")
            << "seed " << seed << " fell back to the VM";
        auto vm = mod->makeSyncEngine();
        WalkRecorder walksN(*native);
        WalkRecorder walksV(*vm);
        std::string traceN = corpus::runStimulus(
            walksN, corpus::Profile::Random, seed, 120);
        std::string traceV =
            corpus::runStimulus(walksV, corpus::Profile::Random, seed, 120);
        EXPECT_EQ(traceN, traceV) << "seed " << seed;
        if (std::string(native->backendName()) == "native") {
            EXPECT_EQ(native->packState(), vm->packState())
                << "seed " << seed;
            expectSameWalks(walksN, walksV, "seed " + std::to_string(seed));
            ++nativeRuns;
        }
    }
    EXPECT_GE(nativeRuns, 14u);
}

// ---------------------------------------------------------------------------
// Trap parity: runtime failures must carry the VM's exact message.
// ---------------------------------------------------------------------------

TEST(NativeDifferential, DivisionByZeroTrapsLikeVm)
{
    REQUIRE_NATIVE();
    const char* src =
        "module m (input int v, output int o)\n"
        "{\n"
        "    while (1) {\n"
        "        await (v);\n"
        "        emit_v (o, 100 / v);\n"
        "    }\n"
        "}\n";
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    auto native = mod->makeEngine(EngineKind::Native);
    ASSERT_STREQ(native->backendName(), "native");
    auto vm = mod->makeSyncEngine();

    auto trapMessage = [](rt::ReactiveEngine& eng) {
        eng.react(); // boot reaction reaches the await
        eng.setInputScalar("v", 0);
        try {
            eng.react();
        } catch (const EclError& e) {
            return std::string(e.what());
        }
        return std::string("(no trap)");
    };
    std::string msgN = trapMessage(*native);
    std::string msgV = trapMessage(*vm);
    EXPECT_EQ(msgN, msgV);
    EXPECT_NE(msgN.find("division by zero"), std::string::npos) << msgN;
}

// The runaway guard bounds one reaction: each reaction starts from a
// fresh kNativeReactFuel (500M backward branches), so 510 reactions of a
// 1M-iteration loop (510M branches in all) never trap.
TEST(NativeEngineBudget, FuelIsPerReactionNotPerLifetime)
{
    REQUIRE_NATIVE();
    const char* src =
        "module m (input pure go, output int o)\n"
        "{\n"
        "    int i; int s;\n"
        "    while (1) {\n"
        "        await (go);\n"
        "        s = 0;\n"
        "        for (i = 0; i < 1000000; i++) { s = s + i % 3; }\n"
        "        emit_v (o, s);\n"
        "    }\n"
        "}\n";
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    auto eng = mod->makeEngine(EngineKind::Native);
    ASSERT_STREQ(eng->backendName(), "native");
    eng->react(); // boot reaction reaches the await
    for (int r = 0; r < 510; ++r) {
        eng->setInput("go");
        ASSERT_NO_THROW(eng->react()) << "reaction " << r;
        ASSERT_EQ(eng->outputValue("o").toInt(), 999999) << "reaction " << r;
    }
}

// An unbounded data loop traps inside the reaction that runs it, with the
// same message from the native kernel (its fuel) and the VM kernel (its op
// budget, lowered here so the VM side runs in milliseconds).
TEST(NativeDifferential, RunawayLoopTrapsLikeVm)
{
    REQUIRE_NATIVE();
    const char* src =
        "module m (input pure go, output int o)\n"
        "{\n"
        "    int i;\n"
        "    await (go);\n"
        "    while (1) { i = i + 1; }\n"
        "}\n";
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const int go = sema.findSignal("go")->index;

    auto native = mod->makeEngine(EngineKind::Native);
    ASSERT_STREQ(native->backendName(), "native");
    native->react(); // boot reaction reaches the await
    native->setInput(go);
    std::string msgN = "(no trap)";
    try {
        native->react();
    } catch (const EclError& e) {
        msgN = e.what();
    }

    const rt::InstanceLayout layout = rt::computeInstanceLayout(sema);
    std::vector<std::uint8_t> data(layout.stride, 0);
    std::vector<std::uint8_t> present(sema.signals.size(), 0);
    rt::VmKernel vm(mod->flatProgram(), mod->byteCodePtr(), sema, layout,
                    data.data());
    vm.vm().setOpBudget(100'000);
    int state = vm.react(data.data(), present.data(),
                         mod->flatProgram().initialState, nullptr);
    present[static_cast<std::size_t>(go)] = 1;
    std::string msgV = "(no trap)";
    try {
        vm.react(data.data(), present.data(), state, nullptr);
    } catch (const EclError& e) {
        msgV = e.what();
    }
    EXPECT_EQ(msgN, msgV);
    EXPECT_NE(msgN.find("op budget exceeded"), std::string::npos) << msgN;
}

// ---------------------------------------------------------------------------
// Graceful degradation: Native must never fail the caller.
// ---------------------------------------------------------------------------

TEST(NativeFallback, DisableEnvVarFallsBackToVm)
{
    ScopedEnv disable("ECL_NATIVE_DISABLE", "1");
    auto mod = compilePaper(kPaperCases[6], 2);
    auto eng = mod->makeEngine(EngineKind::Native);
    EXPECT_STREQ(eng->backendName(), "flat");
    // The fallback engine is fully functional.
    std::string trace =
        corpus::runStimulus(*eng, corpus::Profile::Random, 1, 40);
    EXPECT_FALSE(trace.empty());
}

TEST(NativeFallback, MissingCompilerFallsBackToVm)
{
    auto cache = freshTempDir("native_nocc");
    std::string cachePath = cache.string();
    ScopedEnv cc("CC", "/nonexistent/ecl-no-such-cc");
    ScopedEnv dir("ECL_NATIVE_CACHE_DIR", cachePath.c_str());
    auto mod = compilePaper(kPaperCases[6], 2);
    auto eng = mod->makeEngine(EngineKind::Native);
    EXPECT_STREQ(eng->backendName(), "flat");
    std::string trace =
        corpus::runStimulus(*eng, corpus::Profile::Random, 1, 40);
    EXPECT_FALSE(trace.empty());
    std::filesystem::remove_all(cache);
}

TEST(NativeFallback, FallbackReasonNamesTheCompiler)
{
    auto cache = freshTempDir("native_falsecc");
    std::string cachePath = cache.string();
    ScopedEnv cc("CC", "/bin/false");
    ScopedEnv dir("ECL_NATIVE_CACHE_DIR", cachePath.c_str());
    auto mod = compilePaper(kPaperCases[6], 2);
    EXPECT_EQ(mod->nativeFallbackReason(), "");
    auto eng = mod->makeEngine(EngineKind::Native);
    EXPECT_STREQ(eng->backendName(), "flat");
    EXPECT_NE(mod->nativeFallbackReason().find("'/bin/false' failed"),
              std::string::npos)
        << mod->nativeFallbackReason();
    // The batch runtime's fallback keeps the reason too.
    auto mod2 = compilePaper(kPaperCases[6], 2);
    auto batch = mod2->makeBatchEngine(2, {}, EngineKind::Native);
    EXPECT_NE(mod2->nativeFallbackReason().find("/bin/false"),
              std::string::npos)
        << mod2->nativeFallbackReason();
    std::filesystem::remove_all(cache);
}

// par_pure10's verbatim -O0 tree is about 11 MB of C: emission stops at
// the C-size budget and the module runs on the VM with that reason. CC
// is a compiler that always fails, so a reason naming it would mean cc
// ran.
TEST(NativeFallback, CSizeBudgetFallsBackBeforeCc)
{
    auto cache = freshTempDir("native_budget");
    std::string cachePath = cache.string();
    ScopedEnv cc("CC", "/bin/false");
    ScopedEnv dir("ECL_NATIVE_CACHE_DIR", cachePath.c_str());
    auto mod = compileCorpus("par_pure10", 0);
    ASSERT_TRUE(mod && mod->hasFlatProgram());
    EXPECT_THROW(static_cast<void>(codegen::generateC(*mod)),
                 codegen::EmissionLimitError);
    auto eng = mod->makeEngine(EngineKind::Native);
    EXPECT_STREQ(eng->backendName(), "flat");
    const std::string reason = mod->nativeFallbackReason();
    EXPECT_NE(reason.find("C-size budget"), std::string::npos) << reason;
    EXPECT_NE(reason.find(std::to_string(codegen::kMaxGeneratedCBytes)),
              std::string::npos)
        << reason;
    EXPECT_EQ(reason.find("/bin/false"), std::string::npos) << reason;
    EXPECT_TRUE(std::filesystem::is_empty(cache));
    std::filesystem::remove_all(cache);
}

TEST(NativeFallback, NativeModuleBuildReportsCompilerError)
{
    auto cache = freshTempDir("native_badsrc");
    std::string cachePath = cache.string();
    ScopedEnv dir("ECL_NATIVE_CACHE_DIR", cachePath.c_str());
    if (syntaxCheckCompiler().empty())
        GTEST_SKIP() << "no host C compiler on PATH";
    EXPECT_THROW(rt::NativeModule::build("this is not C\n", "bad"),
                 EclError);
    std::filesystem::remove_all(cache);
}

} // namespace
} // namespace ecl
