// Property-based tests.
//
// The seeded full-kernel-grammar generator (tests/ecl_program_gen.h)
// produces random reactive programs — valued signals, variables and data
// actions, trap/exit (reactive while + break), strong/weak preemption,
// parallel branches carrying data; properties checked over random
// stimuli:
//  * trace equivalence between the compiled EFSM and the Reactive-C-style
//    structural interpreter (two independent implementations of the
//    semantics),
//  * determinism (same stimulus, fresh engine => same trace),
//  * replay stability of the EFSM build (describe() is a pure function of
//    the source).
// Parameterized gtest sweeps (TEST_P) drive the seeds.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "tests/ecl_program_gen.h"

namespace {

using namespace ecl;
using test::ProgramGen;
using test::runTrace;

class RandomProgramTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomProgramTest, EfsmMatchesStructuralInterpreter)
{
    unsigned seed = GetParam();
    ProgramGen gen(seed);
    std::string src = gen.generate();
    SCOPED_TRACE(src);

    std::shared_ptr<CompiledModule> mod;
    try {
        Compiler compiler(src);
        mod = compiler.compile("m");
    } catch (const EclError&) {
        GTEST_SKIP() << "generator produced a rejected program (causality)";
    }

    for (unsigned stim = 1; stim <= 3; ++stim) {
        auto efsm = mod->makeSyncEngine();
        auto rc = mod->makeBaselineEngine();
        EXPECT_EQ(runTrace(*efsm, stim, 40), runTrace(*rc, stim, 40))
            << "program seed " << seed << " stimulus " << stim;
    }
}

TEST_P(RandomProgramTest, DeterministicReplay)
{
    unsigned seed = GetParam();
    ProgramGen gen(seed);
    std::string src = gen.generate();

    std::shared_ptr<CompiledModule> mod;
    try {
        Compiler compiler(src);
        mod = compiler.compile("m");
    } catch (const EclError&) {
        GTEST_SKIP();
    }
    auto e1 = mod->makeSyncEngine();
    auto e2 = mod->makeSyncEngine();
    EXPECT_EQ(runTrace(*e1, 7, 50), runTrace(*e2, 7, 50));
}

TEST_P(RandomProgramTest, FlatExecutionMatchesTreeWalk)
{
    // The flat-table/bytecode engine and the original unique_ptr tree walk
    // must produce identical traces from the same compiled machine.
    unsigned seed = GetParam();
    ProgramGen gen(seed);
    std::string src = gen.generate();
    SCOPED_TRACE(src);

    std::shared_ptr<CompiledModule> mod;
    try {
        Compiler compiler(src);
        mod = compiler.compile("m");
    } catch (const EclError&) {
        GTEST_SKIP();
    }
    ASSERT_TRUE(mod->hasFlatProgram());
    auto flat = mod->makeSyncEngine(EngineKind::Flat);
    auto tree = mod->makeEngine(EngineKind::TreeWalk);
    ASSERT_STREQ(flat->backendName(), "flat");
    ASSERT_STREQ(tree->backendName(), "tree");
    EXPECT_EQ(runTrace(*flat, 11, 50), runTrace(*tree, 11, 50));
}

TEST_P(RandomProgramTest, BuildIsReproducible)
{
    unsigned seed = GetParam();
    ProgramGen gen1(seed);
    ProgramGen gen2(seed);
    std::string src1 = gen1.generate();
    std::string src2 = gen2.generate();
    ASSERT_EQ(src1, src2);
    try {
        Compiler c1(src1);
        Compiler c2(src2);
        EXPECT_EQ(c1.compile("m")->machine().describe(),
                  c2.compile("m")->machine().describe());
    } catch (const EclError&) {
        GTEST_SKIP();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(1u, 41u));

// --- exhaustive input sweeps (coherence/determinism per state) ---------------

class InputSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(InputSweepTest, EveryInputValuationHasExactlyOneReaction)
{
    // For a fixed control state, replaying any of the 2^3 input valuations
    // must give identical outputs on both engines and never throw.
    int valuation = GetParam();
    Compiler compiler(
        "module m (input pure i0, input pure i1, input pure i2,"
        " output pure o0, output pure o1) {"
        " while (1) {"
        "  par {"
        "    { await (i0 & ~i1); emit (o0); }"
        "    { await (i1 | i2); emit (o1); }"
        "  }"
        " } }");
    auto mod = compiler.compile("m");
    auto efsm = mod->makeSyncEngine();
    auto rc = mod->makeBaselineEngine();
    efsm->react();
    rc->react();
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 3; ++i) {
            if ((valuation >> i) & 1) {
                efsm->setInput("i" + std::to_string(i));
                rc->setInput("i" + std::to_string(i));
            }
        }
        efsm->react();
        rc->react();
        ASSERT_EQ(efsm->outputPresent("o0"), rc->outputPresent("o0"));
        ASSERT_EQ(efsm->outputPresent("o1"), rc->outputPresent("o1"));
    }
}

INSTANTIATE_TEST_SUITE_P(AllValuations, InputSweepTest,
                         ::testing::Range(0, 8));

// --- paper-source differential sweeps (flat/bytecode vs oracles) -------------
//
// Seeded-random input sequences over every module of both paper sources,
// checking three engines instant by instant: the flat-table/bytecode
// SyncEngine against the tree-walking TreeEngine (same EFSM, different
// execution representation — outputs, termination, auto-resume AND exact
// ExecCounters must agree) and against the structural RcEngine (independent
// semantics — outputs, termination, auto-resume must agree). Runs at both
// -O0 (verbatim tables) and -O1 (chunk dedup + state minimization), the
// levels whose contract includes exact instruction-level ExecCounters;
// -O2's bytecode optimizer legitimately removes counted instructions and
// is differentially covered (outputs/termination/values) in
// tests/test_opt.cpp.

struct PaperCase {
    const char* source; ///< "stack" or "buffer".
    const char* module;
};

void PrintTo(const PaperCase& c, std::ostream* os)
{
    *os << c.source << "/" << c.module;
}

class PaperSourceDifferentialTest
    : public ::testing::TestWithParam<PaperCase> {};

void expectCountersEqual(const ExecCounters& a, const ExecCounters& b,
                         int instant)
{
    EXPECT_EQ(a.exprOps, b.exprOps) << "instant " << instant;
    EXPECT_EQ(a.loads, b.loads) << "instant " << instant;
    EXPECT_EQ(a.stores, b.stores) << "instant " << instant;
    EXPECT_EQ(a.branches, b.branches) << "instant " << instant;
    EXPECT_EQ(a.calls, b.calls) << "instant " << instant;
    EXPECT_EQ(a.aggBytes, b.aggBytes) << "instant " << instant;
}

TEST_P(PaperSourceDifferentialTest, FlatMatchesTreeWalkAndStructuralOracle)
{
    const PaperCase& pc = GetParam();
    Compiler compiler(std::string(pc.source) == std::string("stack")
                          ? paper::protocolStackSource()
                          : paper::audioBufferSource());
    for (int optLevel : {0, 1}) {
    SCOPED_TRACE("optLevel " + std::to_string(optLevel));
    CompileOptions copts;
    copts.optLevel = optLevel;
    auto mod = compiler.compile(pc.module, copts);
    ASSERT_TRUE(mod->hasFlatProgram()) << pc.module;
    const ModuleSema& sema = mod->moduleSema();

    for (unsigned seed = 1; seed <= 3; ++seed) {
        auto flat = mod->makeSyncEngine(EngineKind::Flat);
        auto tree = mod->makeEngine(EngineKind::TreeWalk);
        auto rc = mod->makeBaselineEngine();
        ASSERT_STREQ(flat->backendName(), "flat");

        std::mt19937 rng(seed * 7919u + 17u);
        flat->react();
        tree->react();
        rc->react();
        for (int t = 0; t < 150; ++t) {
            // Random stimulus: each input present with probability 1/4;
            // valued inputs carry random bytes (small scalars, random
            // aggregate contents — exercises the union packet views).
            for (const SignalInfo& s : sema.signals) {
                if (s.dir != SignalDir::Input) continue;
                if ((rng() & 3u) != 0) continue; // present 1/4 of instants
                if (s.pure) {
                    flat->setInput(s.index);
                    tree->setInput(s.index);
                    rc->setInput(s.index);
                } else {
                    Value v(s.valueType);
                    for (std::size_t i = 0; i < v.size(); ++i)
                        v.data()[i] = static_cast<std::uint8_t>(rng());
                    flat->setInputValue(s.index, v);
                    tree->setInputValue(s.index, v);
                    rc->setInputValue(s.index, std::move(v));
                }
            }
            rt::ReactionResult rf = flat->react();
            rt::ReactionResult rt2 = tree->react();
            rt::ReactionResult rr = rc->react();

            for (const SignalInfo& s : sema.signals) {
                if (s.dir != SignalDir::Output) continue;
                ASSERT_EQ(flat->outputPresent(s.index),
                          rc->outputPresent(s.index))
                    << pc.module << " seed " << seed << " instant " << t
                    << " output " << s.name;
                ASSERT_EQ(flat->outputPresent(s.index),
                          tree->outputPresent(s.index))
                    << pc.module << " seed " << seed << " instant " << t
                    << " output " << s.name;
                if (!s.pure && flat->outputPresent(s.index)) {
                    ASSERT_TRUE(flat->outputValue(s.index) ==
                                rc->outputValue(s.index))
                        << pc.module << " seed " << seed << " instant " << t
                        << " value of " << s.name;
                    ASSERT_TRUE(flat->outputValue(s.index) ==
                                tree->outputValue(s.index))
                        << pc.module << " seed " << seed << " instant " << t
                        << " value of " << s.name;
                }
            }
            ASSERT_EQ(rf.terminated, rr.terminated)
                << pc.module << " seed " << seed << " instant " << t;
            ASSERT_EQ(flat->terminated(), rc->terminated())
                << pc.module << " seed " << seed << " instant " << t;
            ASSERT_EQ(flat->needsAutoResume(), rc->needsAutoResume())
                << pc.module << " seed " << seed << " instant " << t;
            ASSERT_EQ(flat->needsAutoResume(), tree->needsAutoResume())
                << pc.module << " seed " << seed << " instant " << t;

            // Flat vs tree walk share the EFSM: the engine-level counters
            // and the data-evaluator counters must match exactly (the
            // cost model consumes them).
            ASSERT_EQ(rf.treeTests, rt2.treeTests) << "instant " << t;
            ASSERT_EQ(rf.actionsRun, rt2.actionsRun) << "instant " << t;
            ASSERT_EQ(rf.emitsRun, rt2.emitsRun) << "instant " << t;
            ASSERT_EQ(rf.emittedOutputs, rt2.emittedOutputs)
                << "instant " << t;
            expectCountersEqual(rf.dataCounters, rt2.dataCounters, t);
        }
    }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModules, PaperSourceDifferentialTest,
    ::testing::Values(PaperCase{"stack", "assemble"},
                      PaperCase{"stack", "checkcrc"},
                      PaperCase{"stack", "prochdr"},
                      PaperCase{"stack", "toplevel"},
                      PaperCase{"buffer", "producer"},
                      PaperCase{"buffer", "playback"},
                      PaperCase{"buffer", "blinker"},
                      PaperCase{"buffer", "buffer_top"}));

// --- batch multi-instance differential sweeps --------------------------------
//
// A BatchEngine running N instances of one compiled module over shared flat
// tables must be bit-exact with N independent SyncEngines: outputs,
// persistent signal values, termination, auto-resume AND exact ExecCounters
// per reacted instance, for every (instances, threads) combination. Two
// stepping contracts are proven separately:
//  * stepAll(): strict lockstep — every instance reacts every instant,
//    including empty instants (absence-triggered transitions included);
//  * step(): dirty-list scheduling — an instance reacts iff it has pending
//    inputs or auto-resume, and the schedule decision itself is pinned
//    against the oracle's auto-resume state.

struct BatchCase {
    const char* source; ///< "stack" or "buffer".
    const char* module;
    int instances;
    int threads;
    /// Post-flatten optimization level the module is compiled at. Batch
    /// and oracle engines share the same tables, so equality (counters
    /// included) must hold at every level — the default fast path (-O2)
    /// and the verbatim tables (-O0) are both swept.
    int optLevel = 2;
    /// Run the batch under EngineKind::Native (AOT reaction function on
    /// the shared arenas) against NativeEngine oracles. When the native
    /// backend is unavailable both sides fall back to the VM, so the
    /// differential stays meaningful either way.
    bool native = false;
};

void PrintTo(const BatchCase& c, std::ostream* os)
{
    *os << c.source << "/" << c.module << "/n" << c.instances << "/t"
        << c.threads << "/O" << c.optLevel << (c.native ? "/native" : "");
}

class BatchDifferentialTest : public ::testing::TestWithParam<BatchCase> {
protected:
    std::unique_ptr<rt::BatchEngine>
    makeBatch(const std::shared_ptr<CompiledModule>& mod, std::size_t n)
    {
        const BatchCase& bc = GetParam();
        return mod->makeBatchEngine(
            n, {.threads = bc.threads},
            bc.native ? EngineKind::Native : EngineKind::Flat);
    }

    std::unique_ptr<rt::ReactiveEngine>
    makeOracle(const std::shared_ptr<CompiledModule>& mod)
    {
        // Backend-matched oracle: Native batch vs NativeEngine, VM batch
        // vs SyncEngine — both fall back to the VM together.
        if (GetParam().native) return mod->makeEngine(EngineKind::Native);
        return mod->makeSyncEngine(EngineKind::Flat);
    }

    std::shared_ptr<CompiledModule> compileCase()
    {
        const BatchCase& bc = GetParam();
        Compiler compiler(std::string(bc.source) == std::string("stack")
                              ? paper::protocolStackSource()
                              : paper::audioBufferSource());
        CompileOptions copts;
        copts.optLevel = bc.optLevel;
        auto mod = compiler.compile(bc.module, copts);
        if (!mod->hasFlatProgram())
            ADD_FAILURE() << "no flat program for " << bc.module;
        return mod;
    }

    /// Instants scaled down as N grows so the sweep stays fast.
    int instantsFor(int instances) const
    {
        return instances >= 256 ? 10 : instances >= 7 ? 30 : 60;
    }

    /// Draws one instant's random inputs and applies them to the batch
    /// slot and/or the oracle engine (either may be null; the draw
    /// sequence is identical, so replaying from an rng copy reproduces the
    /// exact inputs). Returns true when any input was set.
    bool applyInputs(std::mt19937& rng, const ModuleSema& sema,
                     rt::BatchEngine* batch, std::size_t inst,
                     rt::ReactiveEngine* oracle)
    {
        bool any = false;
        for (const SignalInfo& s : sema.signals) {
            if (s.dir != SignalDir::Input) continue;
            if ((rng() & 3u) != 0) continue; // present 1/4 of instants
            any = true;
            if (s.pure) {
                if (batch) batch->setInput(inst, s.index);
                if (oracle) oracle->setInput(s.index);
            } else {
                Value v(s.valueType);
                for (std::size_t i = 0; i < v.size(); ++i)
                    v.data()[i] = static_cast<std::uint8_t>(rng());
                if (batch) batch->setInputValue(inst, s.index, v);
                if (oracle) oracle->setInputValue(s.index, std::move(v));
            }
        }
        return any;
    }

    /// Full per-instance equality after a reaction of both sides.
    void expectInstanceEqual(const ModuleSema& sema,
                             const rt::BatchEngine& batch, std::size_t inst,
                             const rt::ReactiveEngine& oracle,
                             const rt::ReactionResult& rb,
                             const rt::ReactionResult& ro, int instant)
    {
        for (const SignalInfo& s : sema.signals) {
            ASSERT_EQ(batch.outputPresent(inst, s.index),
                      oracle.outputPresent(s.index))
                << "inst " << inst << " instant " << instant << " signal "
                << s.name;
            if (!s.pure)
                ASSERT_TRUE(batch.outputValue(inst, s.index) ==
                            oracle.outputValue(s.index))
                    << "inst " << inst << " instant " << instant
                    << " value of " << s.name;
        }
        ASSERT_EQ(batch.terminated(inst), oracle.terminated())
            << "inst " << inst << " instant " << instant;
        ASSERT_EQ(batch.needsAutoResume(inst), oracle.needsAutoResume())
            << "inst " << inst << " instant " << instant;
        ASSERT_EQ(rb.terminated, ro.terminated)
            << "inst " << inst << " instant " << instant;
        ASSERT_EQ(rb.treeTests, ro.treeTests)
            << "inst " << inst << " instant " << instant;
        ASSERT_EQ(rb.actionsRun, ro.actionsRun)
            << "inst " << inst << " instant " << instant;
        ASSERT_EQ(rb.emitsRun, ro.emitsRun)
            << "inst " << inst << " instant " << instant;
        ASSERT_EQ(rb.emittedOutputs, ro.emittedOutputs)
            << "inst " << inst << " instant " << instant;
        expectCountersEqual(rb.dataCounters, ro.dataCounters, instant);
    }
};

TEST_P(BatchDifferentialTest, LockstepMatchesIndependentSyncEngines)
{
    const BatchCase& bc = GetParam();
    auto mod = compileCase();
    ASSERT_TRUE(mod->hasFlatProgram());
    const ModuleSema& sema = mod->moduleSema();
    const auto n = static_cast<std::size_t>(bc.instances);

    auto batch = makeBatch(mod, n);
    ASSERT_EQ(batch->threads(), bc.threads);
    std::vector<std::unique_ptr<rt::ReactiveEngine>> oracles;
    std::vector<std::mt19937> rngs;
    for (std::size_t i = 0; i < n; ++i) {
        oracles.push_back(makeOracle(mod));
        rngs.emplace_back(static_cast<unsigned>(1000003 * i + 17));
    }
    // Batch and oracle must have resolved to the same backend (shared
    // memoized native module: both succeed or both fall back).
    ASSERT_STREQ(batch->backendName(), oracles[0]->backendName());

    // Boot instant: everyone reacts with no inputs.
    ASSERT_EQ(batch->stepAll(), n);
    for (std::size_t i = 0; i < n; ++i) {
        rt::ReactionResult ro = oracles[i]->react();
        expectInstanceEqual(sema, *batch, i, *oracles[i],
                            batch->lastResult(i), ro, -1);
    }

    const int instants = instantsFor(bc.instances);
    std::vector<rt::ReactionResult> oracleResults(n);
    for (int t = 0; t < instants; ++t) {
        for (std::size_t i = 0; i < n; ++i)
            applyInputs(rngs[i], sema, batch.get(), i, oracles[i].get());
        ASSERT_EQ(batch->stepAll(), n);
        for (std::size_t i = 0; i < n; ++i)
            oracleResults[i] = oracles[i]->react();
        for (std::size_t i = 0; i < n; ++i)
            expectInstanceEqual(sema, *batch, i, *oracles[i],
                                batch->lastResult(i), oracleResults[i], t);

        // The merged event stream is the oracle outputs in ascending
        // instance order — identical for every thread count.
        std::size_t cursor = 0;
        const auto& events = batch->lastStepEvents();
        for (std::size_t i = 0; i < n; ++i)
            for (int sig : oracleResults[i].emittedOutputs) {
                ASSERT_LT(cursor, events.size()) << "instant " << t;
                ASSERT_EQ(events[cursor].instance, i) << "instant " << t;
                ASSERT_EQ(events[cursor].signal, sig) << "instant " << t;
                ++cursor;
            }
        ASSERT_EQ(cursor, events.size()) << "instant " << t;
    }
}

TEST_P(BatchDifferentialTest, DirtySchedulingMatchesEventDrivenOracle)
{
    const BatchCase& bc = GetParam();
    auto mod = compileCase();
    ASSERT_TRUE(mod->hasFlatProgram());
    const ModuleSema& sema = mod->moduleSema();
    const auto n = static_cast<std::size_t>(bc.instances);

    auto batch = makeBatch(mod, n);
    std::vector<std::unique_ptr<rt::ReactiveEngine>> oracles;
    std::vector<std::mt19937> rngs;
    for (std::size_t i = 0; i < n; ++i) {
        oracles.push_back(makeOracle(mod));
        rngs.emplace_back(static_cast<unsigned>(2000003 * i + 29));
    }
    ASSERT_STREQ(batch->backendName(), oracles[0]->backendName());

    // Fresh instances are dirty: the first step() boots all of them.
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(batch->pendingDirty(i));
    ASSERT_EQ(batch->step(), n);
    for (std::size_t i = 0; i < n; ++i) {
        rt::ReactionResult ro = oracles[i]->react();
        expectInstanceEqual(sema, *batch, i, *oracles[i],
                            batch->lastResult(i), ro, -1);
    }

    const int instants = instantsFor(bc.instances);
    std::vector<bool> expectReact(n);
    for (int t = 0; t < instants; ++t) {
        std::size_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
            // Before inputs, the only reason to be queued is auto-resume —
            // pinned against the oracle's own state.
            bool preDirty = batch->pendingDirty(i);
            ASSERT_EQ(preDirty, oracles[i]->needsAutoResume())
                << "inst " << i << " instant " << t;
            std::mt19937 replay = rngs[i]; // same draws for the oracle
            bool any = applyInputs(rngs[i], sema, batch.get(), i, nullptr);
            expectReact[i] = any || preDirty;
            if (!expectReact[i]) continue;
            ++expected;
            applyInputs(replay, sema, nullptr, i, oracles[i].get());
        }
        ASSERT_EQ(batch->step(), expected) << "instant " << t;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(batch->reactedLastStep(i), expectReact[i])
                << "inst " << i << " instant " << t;
            if (!expectReact[i]) continue;
            rt::ReactionResult ro = oracles[i]->react();
            expectInstanceEqual(sema, *batch, i, *oracles[i],
                                batch->lastResult(i), ro, t);
        }
    }
}

TEST_P(BatchDifferentialTest, MixedPopulationDirtyScheduling)
{
    // Mixed sparse/dense populations: instance i's traffic class is
    // i % 4 — 0 = dense (inputs every instant), 1 = bursty (5 instants
    // on, 15 off), 2 = sparse (one instant in 17), 3 = idle (boot only).
    // The dirty list must react exactly the active-or-resuming subset
    // each step and leave idle instances untouched, with every reacted
    // instance still bit-exact against its event-driven oracle.
    const BatchCase& bc = GetParam();
    auto mod = compileCase();
    ASSERT_TRUE(mod->hasFlatProgram());
    const ModuleSema& sema = mod->moduleSema();
    const auto n = static_cast<std::size_t>(bc.instances);

    auto batch = makeBatch(mod, n);
    std::vector<std::unique_ptr<rt::ReactiveEngine>> oracles;
    std::vector<std::mt19937> rngs;
    for (std::size_t i = 0; i < n; ++i) {
        oracles.push_back(makeOracle(mod));
        rngs.emplace_back(static_cast<unsigned>(3000017 * i + 41));
    }
    ASSERT_STREQ(batch->backendName(), oracles[0]->backendName());

    ASSERT_EQ(batch->step(), n); // boot
    for (std::size_t i = 0; i < n; ++i) {
        rt::ReactionResult ro = oracles[i]->react();
        expectInstanceEqual(sema, *batch, i, *oracles[i],
                            batch->lastResult(i), ro, -1);
    }

    auto classActive = [](std::size_t i, int t) {
        switch (i % 4) {
        case 0: return true;                      // dense
        case 1: return t % 20 < 5;                // bursty
        case 2: return t % 17 == 0;               // sparse
        default: return false;                    // idle
        }
    };

    const int instants = instantsFor(bc.instances);
    std::vector<bool> expectReact(n);
    for (int t = 0; t < instants; ++t) {
        std::size_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
            bool preDirty = batch->pendingDirty(i);
            ASSERT_EQ(preDirty, oracles[i]->needsAutoResume())
                << "inst " << i << " instant " << t;
            bool any = false;
            if (classActive(i, t)) {
                std::mt19937 replay = rngs[i];
                any = applyInputs(rngs[i], sema, batch.get(), i, nullptr);
                if (any) applyInputs(replay, sema, nullptr, i,
                                     oracles[i].get());
            }
            expectReact[i] = any || preDirty;
            if (expectReact[i]) ++expected;
        }
        ASSERT_EQ(batch->step(), expected) << "instant " << t;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(batch->reactedLastStep(i), expectReact[i])
                << "inst " << i << " instant " << t;
            if (!expectReact[i]) continue;
            rt::ReactionResult ro = oracles[i]->react();
            expectInstanceEqual(sema, *batch, i, *oracles[i],
                                batch->lastResult(i), ro, t);
        }
    }

    // Idle instances really were left alone: still in their post-boot
    // packed state unless auto-resume kept them live.
    for (std::size_t i = 3; i < n; i += 4)
        ASSERT_EQ(batch->packInstanceState(i),
                  oracles[i]->packState())
            << "idle inst " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModules, BatchDifferentialTest,
    ::testing::Values(BatchCase{"stack", "assemble", 1, 1},
                      BatchCase{"stack", "assemble", 7, 1},
                      BatchCase{"stack", "assemble", 7, 4},
                      BatchCase{"stack", "assemble", 256, 4},
                      BatchCase{"stack", "checkcrc", 7, 1},
                      BatchCase{"stack", "checkcrc", 7, 4},
                      BatchCase{"stack", "prochdr", 7, 1},
                      BatchCase{"stack", "prochdr", 7, 4},
                      BatchCase{"stack", "toplevel", 1, 1},
                      BatchCase{"stack", "toplevel", 7, 1},
                      BatchCase{"stack", "toplevel", 7, 4},
                      BatchCase{"stack", "toplevel", 256, 1},
                      BatchCase{"stack", "toplevel", 256, 4},
                      BatchCase{"buffer", "producer", 7, 1},
                      BatchCase{"buffer", "producer", 7, 4},
                      BatchCase{"buffer", "playback", 7, 1},
                      BatchCase{"buffer", "playback", 7, 4},
                      BatchCase{"buffer", "blinker", 1, 1},
                      BatchCase{"buffer", "blinker", 256, 4},
                      BatchCase{"buffer", "buffer_top", 7, 1},
                      BatchCase{"buffer", "buffer_top", 7, 4},
                      BatchCase{"buffer", "buffer_top", 256, 4},
                      // Verbatim -O0 tables (default cases above run on
                      // the optimized -O2 fast path).
                      BatchCase{"stack", "assemble", 7, 4, 0},
                      BatchCase{"stack", "toplevel", 7, 1, 0},
                      BatchCase{"stack", "toplevel", 256, 4, 0},
                      BatchCase{"buffer", "producer", 7, 4, 0},
                      BatchCase{"buffer", "buffer_top", 7, 4, 0}));

// EngineKind::Native sweep: the AOT reaction function on the batch
// arenas vs NativeEngine oracles (VM fallback on both sides when no host
// compiler is available), across thread counts and both schedulers.
INSTANTIATE_TEST_SUITE_P(
    NativeBackend, BatchDifferentialTest,
    ::testing::Values(
        BatchCase{"stack", "assemble", 7, 1, 2, true},
        BatchCase{"stack", "assemble", 7, 4, 2, true},
        BatchCase{"stack", "toplevel", 1, 1, 2, true},
        BatchCase{"stack", "toplevel", 7, 4, 2, true},
        BatchCase{"stack", "toplevel", 256, 4, 2, true},
        BatchCase{"stack", "checkcrc", 7, 2, 2, true},
        BatchCase{"buffer", "producer", 7, 4, 2, true},
        BatchCase{"buffer", "playback", 7, 2, 2, true},
        BatchCase{"buffer", "buffer_top", 7, 1, 2, true},
        BatchCase{"buffer", "buffer_top", 256, 4, 2, true}));

} // namespace
