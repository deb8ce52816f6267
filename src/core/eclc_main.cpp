// eclc — the ECL command-line compiler and verifier.
//
// Usage:
//   eclc [options] file.ecl
//   eclc [options] --paper stack|buffer
//
// Options:
//   --module NAME      top module to compile (default: last module in file)
//   --emit KIND        artifact: c | esterel | verilog | efsm | ir | stats
//                      (default: c). May be repeated.
//   --emit-c           shorthand for --emit c (the AOT translation unit)
//   -O0 | -O1 | -O2    post-flatten optimization level (default -O2):
//                      0 = flat tables/bytecode verbatim, 1 = chunk dedup
//                      + state minimization (counter-exact), 2 = + the
//                      bytecode optimizer (see src/opt/opt.h)
//   --opt-stats        print the optimization pipeline report
//   --async            compile every module separately and report per-task
//                      sizes instead of collapsing into one EFSM
//   -o PREFIX          write artifacts to PREFIX.<ext> instead of stdout
//   --paper NAME       use an embedded paper source (stack | buffer)
//                      instead of a file
//
// Verification (src/verify — explicit-state reachability + monitors):
//   --verify           explore the top module's state space instead of
//                      emitting artifacts
//   --monitor FILE     attach FILE's last module as an assertion monitor
//                      (inputs wired by name; emitting a *violation*
//                      signal flags a counterexample)
//   --depth N          exploration depth bound in instants (default
//                      unbounded)
//   --max-states N     interned-state cap (default 1M)
//   --threads N        worker threads for the BFS frontier (default 1)
//   --dfs              depth-first exploration (lower memory, traces not
//                      minimal)
//   --store KIND       state store: exact | compressed | bitstate
//                      (default exact; --store=KIND also accepted).
//                      bitstate is LOSSY — a clean run prints an explicit
//                      bounded/lossy line and exits 0, meaning "no
//                      violation found", never "verified"
//   --store-mem N      state-store memory budget in bytes (K/M/G suffix
//                      accepted). Sizes the bitstate table; exact and
//                      compressed stores stop at the budget (exit 4)
//   --por              partial-order reduction over independent pure
//                      input letters (sound; see src/verify/explorer.h)
//   --native-succ      compute design successors with the AOT-compiled
//                      reaction when the native backend is available
//                      (bit-exact; silently falls back to the VM)
//
// Trace record/replay (src/runtime/trace.h + the corpus stimulus
// profiles):
//   --record-trace FILE  drive the top module with a stimulus profile and
//                        write the full input/output stream to FILE
//   --trace-text         write the text trace format (default: binary)
//   --stim-profile NAME  random | bursty | sparse | payload | lockstep
//                        (default random)
//   --stim-instants N    instants to record (default 100)
//   --stim-seed N        stimulus seed (default 1)
//   --replay-trace FILE  replay FILE on every representation of the
//                        traced module (flat -O2, flat -O0, tree walk,
//                        batch instance) and check outputs bit-exactly
//                        against the recording; exit 1 on any divergence
//
// AOT native backend (src/runtime/native_module.h):
//   --aot              compile the top module's generated C with the host
//                      C compiler, dlopen it, and differentially check the
//                      native engine against the bytecode VM of the same
//                      compile (trace + packed final state bit-exact over
//                      a stimulus run). Exit 0 on agreement; exit 1 when
//                      the native backend is unavailable or diverges.
//                      Honors --stim-profile / --stim-instants /
//                      --stim-seed and -O0|-O1|-O2.
//
// Exit codes (asserted by tests/test_eclc_cli.cpp):
//   0  success; with --verify: state space exhausted, no violation
//   1  file / parse / semantic errors
//   2  usage errors
//   3  --verify found a violation (counterexample printed + replayed)
//   4  --verify hit an exploration bound (depth/states/alphabet/memory)
//      without finding a violation — the result is inconclusive. The
//      partial ExploreStats always print before this exit. A bitstate
//      run never exits 4: its result is bounded/lossy by construction,
//      so a violation-free run reports that explicitly and exits 0
//
// Mirrors the paper's flow: one ECL file in; Esterel + C (+ glue) out; the
// EFSM and synthesis artifacts derived from them — plus the verification
// workload the synchronous semantics was chosen for.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/codegen/c_gen.h"
#include "src/codegen/esterel_gen.h"
#include "src/codegen/verilog_gen.h"
#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/cost/cost.h"
#include "src/ir/ir.h"
#include "src/runtime/trace.h"
#include "src/verify/replay.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitViolation = 3;
constexpr int kExitBoundReached = 4;

struct Options {
    std::string file;
    std::string paper;
    std::string module;
    std::vector<std::string> emits;
    std::string outPrefix;
    bool asyncMode = false;
    bool optimize = false;
    int optLevel = 2;
    bool optStats = false;
    bool verify = false;
    std::string monitorFile;
    int depth = -1;
    long long maxStates = -1;
    int threads = 1;
    bool dfs = false;
    std::string store;
    ecl::verify::StoreKind storeKind = ecl::verify::StoreKind::Exact;
    long long storeMem = -1;
    bool por = false;
    bool nativeSucc = false;
    bool aot = false;
    std::string recordTrace;
    std::string replayTrace;
    std::string stimProfile = "random";
    int stimInstants = 100;
    unsigned stimSeed = 1;
    bool traceText = false;
};

int usage()
{
    std::fprintf(stderr,
                 "usage: eclc [--module NAME] [--emit c|esterel|verilog|"
                 "efsm|ir|stats]... [--emit-c] [-O0|-O1|-O2] [--opt-stats]\n"
                 "            [--async] [--optimize] [-o PREFIX] [--aot]\n"
                 "            [--verify [--monitor FILE] [--depth N] "
                 "[--max-states N] [--threads N] [--dfs]\n"
                 "                      [--store exact|compressed|bitstate] "
                 "[--store-mem N[K|M|G]] [--por] [--native-succ]]\n"
                 "            [--record-trace FILE [--trace-text] "
                 "[--stim-profile NAME] [--stim-instants N] "
                 "[--stim-seed N]]\n"
                 "            [--replay-trace FILE]\n"
                 "            file.ecl | --paper stack|buffer\n"
                 "exit codes: 0 ok/verified, 1 compile error, 2 usage, "
                 "3 violation found, 4 verify bound reached\n");
    return kExitUsage;
}

void writeArtifact(const Options& opt, const std::string& ext,
                   const std::string& text)
{
    if (opt.outPrefix.empty()) {
        std::printf("%s", text.c_str());
        return;
    }
    std::string path = opt.outPrefix + "." + ext;
    std::ofstream out(path);
    out << text;
    std::fprintf(stderr, "eclc: wrote %s (%zu bytes)\n", path.c_str(),
                 text.size());
}

std::string statsText(const ecl::CompiledModule& mod)
{
    ecl::cost::CostModel cm;
    auto st = mod.machine().stats();
    auto sz = cm.moduleSize(mod.machine());
    std::ostringstream out;
    out << "module " << mod.name() << ":\n"
        << "  EFSM states:        " << st.states << "\n"
        << "  decision nodes:     " << st.testNodes << "\n"
        << "  transition leaves:  " << st.leaves << "\n"
        << "  max tree depth:     " << st.maxTreeDepth << "\n"
        << "  data actions:       " << mod.lowerStats().dataActions << "\n"
        << "  extracted loops:    " << mod.lowerStats().extractedLoops << "\n"
        << "  pause points:       " << mod.lowerStats().pauses << "\n"
        << "  est. code size:     " << sz.codeBytes << " B (R3000 model)\n"
        << "  est. data size:     " << sz.dataBytes << " B\n";
    // The AOT translation unit's size, per flat node: how the native
    // build's input grows with the design.
    try {
        const std::size_t bytes = ecl::codegen::generateC(mod).size();
        const std::size_t nodes = mod.flatProgram().nodes.size();
        char perNode[32];
        std::snprintf(perNode, sizeof perNode, "%.1f",
                      static_cast<double>(bytes) /
                          static_cast<double>(nodes));
        out << "  flat nodes:         " << nodes << "\n"
            << "  generated C:        " << bytes << " B (" << perNode
            << " B per flat node)\n";
    } catch (const ecl::EclError& e) {
        out << "  generated C:        none (" << e.what() << ")\n";
    }
    return out.str();
}

/// "65536", "64K", "4M", "1G" -> bytes; <= 0 on malformed input.
long long parseByteSize(const char* s)
{
    char* end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (end == s || v <= 0) return -1;
    switch (*end) {
    case '\0': return v;
    case 'k': case 'K': ++end; v *= 1024; break;
    case 'm': case 'M': ++end; v *= 1024 * 1024; break;
    case 'g': case 'G': ++end; v *= 1024 * 1024 * 1024; break;
    default: return -1;
    }
    return *end == '\0' ? v : -1;
}

bool readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path);
    if (!in) return false;
    std::stringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

const char* violationKindName(ecl::verify::Violation::Kind k)
{
    switch (k) {
    case ecl::verify::Violation::Kind::MonitorSignal:
        return "monitor signal";
    case ecl::verify::Violation::Kind::DesignSignal: return "design signal";
    case ecl::verify::Violation::Kind::Predicate: return "predicate";
    case ecl::verify::Violation::Kind::RuntimeError: return "runtime error";
    }
    return "?";
}

int runVerify(const Options& opt, ecl::Compiler& compiler,
              const std::string& top)
{
    ecl::CompileOptions copts;
    copts.optimizeEfsm = opt.optimize;
    copts.optLevel = opt.optLevel;
    auto mod = compiler.compile(top, copts);
    if (!mod->hasFlatProgram()) {
        std::fprintf(stderr,
                     "eclc: module '%s' has no flat program; cannot verify\n",
                     top.c_str());
        return kExitError;
    }
    if (opt.optStats) std::printf("%s", mod->optStats().report().c_str());

    ecl::verify::ExplorerOptions vopts;
    vopts.threads = opt.threads;
    if (opt.depth > 0) vopts.maxDepth = opt.depth;
    if (opt.maxStates > 0)
        vopts.maxStates = static_cast<std::uint32_t>(opt.maxStates);
    if (opt.dfs) vopts.strategy = ecl::verify::Strategy::Dfs;
    vopts.storeKind = opt.storeKind;
    if (opt.storeMem > 0)
        vopts.storeBudgetBytes = static_cast<std::uint64_t>(opt.storeMem);
    vopts.partialOrder = opt.por;
    vopts.nativeSuccessors = opt.nativeSucc;
    auto explorer = mod->makeExplorer(vopts);

    std::shared_ptr<ecl::CompiledModule> monMod;
    std::unique_ptr<ecl::Compiler> monCompiler;
    if (!opt.monitorFile.empty()) {
        std::string src;
        if (!readFile(opt.monitorFile, src)) {
            std::fprintf(stderr, "eclc: cannot open monitor file %s\n",
                         opt.monitorFile.c_str());
            return kExitError;
        }
        monCompiler = std::make_unique<ecl::Compiler>(src);
        std::vector<std::string> names = monCompiler->moduleNames();
        if (names.empty()) {
            std::fprintf(stderr, "eclc: no modules in monitor file %s\n",
                         opt.monitorFile.c_str());
            return kExitError;
        }
        monMod = monCompiler->compile(names.back());
        if (!monMod->hasFlatProgram()) {
            std::fprintf(stderr,
                         "eclc: monitor module '%s' has no flat program\n",
                         names.back().c_str());
            return kExitError;
        }
        monMod->attachAsMonitor(*explorer);
        std::fprintf(stderr, "eclc: monitor '%s' attached to '%s'\n",
                     names.back().c_str(), top.c_str());
    }

    ecl::verify::ExploreResult res = explorer->run();
    const ecl::verify::ExploreStats& st = res.stats;
    std::printf("verify %s: %llu states (%llu control), %llu transitions, "
                "depth %d, peak frontier %llu, %.0f states/s, %s\n",
                top.c_str(), static_cast<unsigned long long>(st.states),
                static_cast<unsigned long long>(st.controlStates),
                static_cast<unsigned long long>(st.transitions),
                st.depthReached,
                static_cast<unsigned long long>(st.peakFrontier),
                st.statesPerSec,
                st.complete
                    ? "complete"
                    : (res.violated
                           ? "stopped at violation"
                           : (st.alphabetTruncated
                                  ? "incomplete (alphabet truncated)"
                                  : "incomplete (bound reached)")));
    // The stats above print on EVERY path — a bound-reached (exit 4) or
    // violated run still reports its partial exploration.
    std::printf("store %s: %llu bytes%s\n",
                ecl::verify::storeKindName(st.storeKind),
                static_cast<unsigned long long>(st.storeMemoryBytes),
                st.lossyStore ? ", lossy" : "");
    std::printf("phases: expand %.3f s, merge %.3f s, por %.3f s\n",
                st.expandSeconds, st.mergeSeconds, st.porSeconds);
    if (opt.por)
        std::printf("por: %llu expansions skipped\n",
                    static_cast<unsigned long long>(st.lettersReduced));
    if (opt.nativeSucc)
        std::printf("native successors: %s\n",
                    st.usedNativeSuccessors ? "yes" : "no (VM fallback)");

    if (!res.violated) {
        if (st.lossyStore) {
            // Honest lossy reporting: bitstate hash collisions may have
            // merged distinct states, so a clean sweep is coverage, not
            // proof — and never exit 4: lossiness IS the bound.
            std::printf("result: no violation found (bounded/lossy "
                        "bitstate search, not a proof)\n");
            return kExitOk;
        }
        return st.complete ? kExitOk : kExitBoundReached;
    }

    const ecl::verify::Violation& v = res.violation;
    std::printf("VIOLATION (%s) '%s' at depth %d\n",
                violationKindName(v.kind), v.what.c_str(), v.depth);
    std::printf("counterexample (%zu instants):\n%s", res.trace.size(),
                ecl::verify::formatTrace(mod->moduleSema(), res.trace)
                    .c_str());

    // Confirm on the production engine before claiming the bug is real.
    auto designEngine = mod->makeSyncEngine();
    std::unique_ptr<ecl::rt::SyncEngine> monitorEngine;
    if (monMod) monitorEngine = monMod->makeSyncEngine();
    ecl::verify::ReplayOutcome rp = ecl::verify::replayCounterexample(
        *designEngine, monitorEngine.get(), res);
    std::printf("replay: %s\n", rp.detail.c_str());
    if (!rp.reproduced)
        std::fprintf(stderr,
                     "eclc: WARNING: counterexample did not replay on "
                     "SyncEngine\n");
    return kExitViolation;
}

int runRecord(const Options& opt, ecl::Compiler& compiler,
              const std::string& top)
{
    ecl::corpus::Profile profile =
        ecl::corpus::profileFromName(opt.stimProfile);
    ecl::CompileOptions copts;
    copts.optimizeEfsm = opt.optimize;
    copts.optLevel = opt.optLevel;
    auto mod = compiler.compile(top, copts);
    auto eng = mod->makeEngine();
    ecl::rt::RecordingEngine rec(*eng, top);
    ecl::corpus::runStimulus(rec, profile, opt.stimSeed, opt.stimInstants);
    ecl::rt::writeTraceFile(rec.trace(), opt.recordTrace,
                            opt.traceText ? ecl::rt::TraceFormat::Text
                                          : ecl::rt::TraceFormat::Binary);
    std::fprintf(stderr,
                 "eclc: recorded %zu instants of '%s' (%s stimulus, seed "
                 "%u) to %s\n",
                 rec.trace().instants.size(), top.c_str(),
                 opt.stimProfile.c_str(), opt.stimSeed,
                 opt.recordTrace.c_str());
    return kExitOk;
}

int runReplay(const Options& opt, ecl::Compiler& compiler)
{
    ecl::rt::InputTrace trace = ecl::rt::readTraceFile(opt.replayTrace);
    const std::string top =
        opt.module.empty() ? trace.module : opt.module;

    ecl::CompileOptions o2opts;
    o2opts.optLevel = 2;
    ecl::CompileOptions o0opts;
    o0opts.optLevel = 0;
    auto mod2 = compiler.compile(top, o2opts);
    auto mod0 = compiler.compile(top, o0opts);

    struct Row {
        const char* name;
        ecl::rt::TraceReplayResult r;
    };
    std::vector<Row> rows;
    {
        auto e = mod2->makeEngine();
        rows.push_back({"flat -O2", ecl::rt::replayTrace(*e, trace)});
    }
    {
        auto e = mod0->makeEngine();
        rows.push_back({"flat -O0", ecl::rt::replayTrace(*e, trace)});
    }
    {
        auto e = mod0->makeEngine(ecl::EngineKind::TreeWalk);
        rows.push_back({"tree-walk", ecl::rt::replayTrace(*e, trace)});
    }
    {
        auto b = mod2->makeBatchEngine(1);
        rows.push_back({"batch[0] -O2",
                        ecl::rt::replayTrace(*b, 0, trace)});
    }

    bool ok = true;
    for (const Row& row : rows) {
        std::printf("replay %-13s %zu instants, output digest %s: %s\n",
                    row.name, row.r.instants, row.r.outputDigest.c_str(),
                    row.r.outputsMatch ? "outputs match recording"
                                       : row.r.mismatch.c_str());
        ok = ok && row.r.outputsMatch;
    }
    // Cross-representation agreement: identical output digests, identical
    // final data bytes (control ids are renumbered at -O1+, so only the
    // same-compile batch comparison checks the full packed state).
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].r.outputDigest != rows[0].r.outputDigest) {
            std::printf("DIVERGENCE: %s output digest differs from %s\n",
                        rows[i].name, rows[0].name);
            ok = false;
        }
        if (rows[i].r.finalData() != rows[0].r.finalData()) {
            std::printf("DIVERGENCE: %s final data state differs from %s\n",
                        rows[i].name, rows[0].name);
            ok = false;
        }
    }
    if (rows.back().r.finalState != rows.front().r.finalState) {
        std::printf("DIVERGENCE: batch packed state differs from flat -O2\n");
        ok = false;
    }
    std::printf("replay: %s\n",
                ok ? "all representations bit-exact" : "DIVERGED");
    return ok ? kExitOk : kExitError;
}

int runAot(const Options& opt, ecl::Compiler& compiler,
           const std::string& top)
{
    ecl::CompileOptions copts;
    copts.optimizeEfsm = opt.optimize;
    copts.optLevel = opt.optLevel;
    auto mod = compiler.compile(top, copts);
    if (!mod->hasFlatProgram()) {
        std::fprintf(stderr,
                     "eclc: module '%s' has no flat program; cannot AOT\n",
                     top.c_str());
        return kExitError;
    }
    if (opt.optStats) std::printf("%s", mod->optStats().report().c_str());

    auto native = mod->makeEngine(ecl::EngineKind::Native);
    if (std::string(native->backendName()) != "native") {
        std::fprintf(stderr, "eclc: native backend unavailable for '%s': %s\n",
                     top.c_str(), mod->nativeFallbackReason().c_str());
        return kExitError;
    }
    std::fprintf(stderr, "eclc: AOT object %s\n",
                 mod->nativeModule()->objectPath().c_str());

    // Differential acceptance run: the dlopened reaction function must be
    // bit-exact — emitted outputs per instant AND packed final state —
    // against the bytecode VM of the very same compile.
    ecl::corpus::Profile profile =
        ecl::corpus::profileFromName(opt.stimProfile);
    std::string nativeTrace = ecl::corpus::runStimulus(
        *native, profile, opt.stimSeed, opt.stimInstants);
    auto vm = mod->makeEngine(ecl::EngineKind::Flat);
    std::string vmTrace = ecl::corpus::runStimulus(*vm, profile,
                                                   opt.stimSeed,
                                                   opt.stimInstants);
    bool tracesOk = nativeTrace == vmTrace;
    bool stateOk = native->packState() == vm->packState();
    std::printf("aot %s: %d instants (%s stimulus, seed %u, -O%d): "
                "traces %s, final state %s\n",
                top.c_str(), opt.stimInstants, opt.stimProfile.c_str(),
                opt.stimSeed, opt.optLevel,
                tracesOk ? "bit-exact" : "DIVERGED",
                stateOk ? "bit-exact" : "DIVERGED");
    if (!tracesOk) {
        std::printf("--- native trace ---\n%s--- vm trace ---\n%s",
                    nativeTrace.c_str(), vmTrace.c_str());
    }
    return tracesOk && stateOk ? kExitOk : kExitError;
}

int emitAll(const Options& opt, const ecl::CompiledModule& mod)
{
    for (const std::string& kind : opt.emits) {
        if (kind == "c") {
            writeArtifact(opt, "c", ecl::codegen::generateC(mod));
        } else if (kind == "esterel") {
            writeArtifact(opt, "strl",
                          ecl::codegen::generateEsterel(
                              mod.reactiveProgram(), mod.moduleSema(),
                              mod.name()));
            writeArtifact(opt, "data.c",
                          ecl::codegen::generateEsterelDataFile(
                              mod.reactiveProgram(), mod.moduleSema(),
                              mod.name()));
        } else if (kind == "verilog") {
            ecl::codegen::HwReport hw = ecl::codegen::generateVerilog(mod);
            if (!hw.synthesizable) {
                std::fprintf(stderr, "eclc: %s\n", hw.reason.c_str());
                return 1;
            }
            writeArtifact(opt, "v", hw.verilog);
        } else if (kind == "efsm") {
            writeArtifact(opt, "efsm", mod.machine().describe());
        } else if (kind == "ir") {
            writeArtifact(opt, "ir",
                          ecl::ir::printIr(*mod.reactiveProgram().root));
        } else if (kind == "stats") {
            writeArtifact(opt, "stats", statsText(mod));
        } else {
            std::fprintf(stderr, "eclc: unknown --emit kind '%s'\n",
                         kind.c_str());
            return 2;
        }
    }
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--module" && i + 1 < argc) {
            opt.module = argv[++i];
        } else if (arg == "--emit" && i + 1 < argc) {
            opt.emits.push_back(argv[++i]);
        } else if (arg == "--emit-c") {
            opt.emits.push_back("c");
        } else if (arg == "--aot") {
            opt.aot = true;
        } else if (arg == "-o" && i + 1 < argc) {
            opt.outPrefix = argv[++i];
        } else if (arg == "--async") {
            opt.asyncMode = true;
        } else if (arg == "--optimize") {
            opt.optimize = true;
        } else if (arg.size() == 3 && arg[0] == '-' && arg[1] == 'O') {
            if (arg[2] < '0' || arg[2] > '2') return usage();
            opt.optLevel = arg[2] - '0';
        } else if (arg == "--opt-stats") {
            opt.optStats = true;
        } else if (arg == "--paper" && i + 1 < argc) {
            opt.paper = argv[++i];
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--monitor" && i + 1 < argc) {
            opt.monitorFile = argv[++i];
        } else if (arg == "--depth" && i + 1 < argc) {
            opt.depth = std::atoi(argv[++i]);
            if (opt.depth <= 0) return usage();
        } else if (arg == "--max-states" && i + 1 < argc) {
            opt.maxStates = std::atoll(argv[++i]);
            if (opt.maxStates <= 0 ||
                opt.maxStates > 0xffffffffll)
                return usage();
        } else if (arg == "--threads" && i + 1 < argc) {
            opt.threads = std::atoi(argv[++i]);
            if (opt.threads <= 0) return usage();
        } else if (arg == "--dfs") {
            opt.dfs = true;
        } else if (arg == "--store" && i + 1 < argc) {
            opt.store = argv[++i];
        } else if (arg.rfind("--store=", 0) == 0) {
            opt.store = arg.substr(8);
        } else if (arg == "--store-mem" && i + 1 < argc) {
            opt.storeMem = parseByteSize(argv[++i]);
            if (opt.storeMem <= 0) return usage();
        } else if (arg == "--por") {
            opt.por = true;
        } else if (arg == "--native-succ") {
            opt.nativeSucc = true;
        } else if (arg == "--record-trace" && i + 1 < argc) {
            opt.recordTrace = argv[++i];
        } else if (arg == "--replay-trace" && i + 1 < argc) {
            opt.replayTrace = argv[++i];
        } else if (arg == "--stim-profile" && i + 1 < argc) {
            opt.stimProfile = argv[++i];
        } else if (arg == "--stim-instants" && i + 1 < argc) {
            opt.stimInstants = std::atoi(argv[++i]);
            if (opt.stimInstants <= 0) return usage();
        } else if (arg == "--stim-seed" && i + 1 < argc) {
            opt.stimSeed =
                static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--trace-text") {
            opt.traceText = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            if (!opt.file.empty()) return usage();
            opt.file = arg;
        }
    }
    if (opt.file.empty() == opt.paper.empty()) return usage();
    if (!opt.paper.empty() && opt.paper != "stack" && opt.paper != "buffer")
        return usage();
    if (opt.verify && opt.asyncMode) return usage();
    // Verify-only flags without --verify would be silently ignored —
    // reject them so exit 0 can never be mistaken for "verified".
    if (!opt.verify && (!opt.monitorFile.empty() || opt.depth > 0 ||
                        opt.maxStates > 0 || opt.threads != 1 || opt.dfs ||
                        !opt.store.empty() || opt.storeMem > 0 || opt.por ||
                        opt.nativeSucc))
        return usage();
    ecl::verify::StoreKind storeKind = ecl::verify::StoreKind::Exact;
    if (!opt.store.empty() &&
        !ecl::verify::parseStoreKind(opt.store, storeKind)) {
        std::fprintf(stderr, "eclc: unknown --store kind '%s'\n",
                     opt.store.c_str());
        return usage();
    }
    opt.storeKind = storeKind;
    // Trace modes are exclusive with each other and with verify/async/aot;
    // stimulus flags only mean something when a stimulus is driven
    // (recording or the AOT differential run).
    if (!opt.recordTrace.empty() && !opt.replayTrace.empty())
        return usage();
    const bool traceMode =
        !opt.recordTrace.empty() || !opt.replayTrace.empty();
    if (traceMode && (opt.verify || opt.asyncMode || opt.aot))
        return usage();
    if (opt.aot && (opt.verify || opt.asyncMode)) return usage();
    if (opt.recordTrace.empty() && !opt.aot &&
        (opt.stimProfile != "random" || opt.stimInstants != 100 ||
         opt.stimSeed != 1))
        return usage();
    if (opt.recordTrace.empty() && opt.traceText) return usage();
    if (opt.emits.empty()) opt.emits.push_back("c");

    std::string source;
    if (!opt.paper.empty()) {
        source = opt.paper == "stack" ? ecl::paper::protocolStackSource()
                                      : ecl::paper::audioBufferSource();
    } else if (!readFile(opt.file, source)) {
        std::fprintf(stderr, "eclc: cannot open %s\n", opt.file.c_str());
        return kExitError;
    }

    try {
        ecl::Compiler compiler(source);
        std::vector<std::string> modules = compiler.moduleNames();
        if (modules.empty()) {
            std::fprintf(stderr, "eclc: no modules in %s\n",
                         opt.file.empty() ? opt.paper.c_str()
                                          : opt.file.c_str());
            return kExitError;
        }

        std::string top = opt.module.empty() ? modules.back() : opt.module;
        if (opt.verify) return runVerify(opt, compiler, top);
        if (opt.aot) return runAot(opt, compiler, top);
        if (!opt.recordTrace.empty()) return runRecord(opt, compiler, top);
        if (!opt.replayTrace.empty()) return runReplay(opt, compiler);

        ecl::CompileOptions copts;
        copts.optimizeEfsm = opt.optimize;
        copts.optLevel = opt.optLevel;

        if (opt.asyncMode) {
            // Per-module compilation (the RTOS/task path).
            int rc = 0;
            for (const std::string& name : modules) {
                auto mod = compiler.compile(name, copts);
                std::printf("--- task %s ---\n", name.c_str());
                if (opt.optStats)
                    std::printf("%s", mod->optStats().report().c_str());
                rc |= emitAll(opt, *mod);
            }
            return rc;
        }

        auto mod = compiler.compile(top, copts);
        if (opt.optStats)
            std::printf("%s", mod->optStats().report().c_str());
        return emitAll(opt, *mod);
    } catch (const ecl::EclError& e) {
        std::fprintf(stderr, "eclc: %s\n", e.what());
        return kExitError;
    }
}
