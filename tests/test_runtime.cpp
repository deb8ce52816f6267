// Runtime engine tests: SyncEngine/RcEngine parity, signal environment,
// instant lifecycle, counters, the reaction kernel's per-reaction budget.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/compiler.h"

namespace {

using namespace ecl;

TEST(SignalEnvTest, PresenceClearedPerInstant)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " while (1) { await (v); emit_v (o, v); } }");
    auto mod = compiler.compile("m");
    rt::SignalEnv env(mod->moduleSema());
    env.setPresent(0);
    EXPECT_TRUE(env.isPresent(0));
    env.beginInstant();
    EXPECT_FALSE(env.isPresent(0));
}

TEST(SignalEnvTest, ValuePersistsAcrossInstants)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " while (1) { await (v); emit_v (o, v); } }");
    auto mod = compiler.compile("m");
    rt::SignalEnv env(mod->moduleSema());
    const SignalInfo* v = mod->moduleSema().findSignal("v");
    env.setValue(v->index, Value::fromInt(v->valueType, 7));
    env.beginInstant();
    EXPECT_EQ(env.signalValue(v->index).toInt(), 7);
}

TEST(SignalEnvTest, PureSignalValueAccessThrows)
{
    Compiler compiler("module m (input pure p) { halt(); }");
    auto mod = compiler.compile("m");
    rt::SignalEnv env(mod->moduleSema());
    EXPECT_THROW(env.signalValue(0), EclError);
    EXPECT_THROW(env.setValue(0, Value{}), EclError);
}

TEST(EngineTest, InputApiValidation)
{
    Compiler compiler("module m (input pure p, input int v, output pure o)"
                      " { halt(); }");
    auto mod = compiler.compile("m");
    auto eng = mod->makeSyncEngine();
    EXPECT_THROW(eng->setInput("nosuch"), EclError);
    EXPECT_THROW(eng->setInput("o"), EclError);      // not an input
    EXPECT_THROW(eng->setInputScalar("p", 1), EclError); // pure
}

TEST(EngineTest, ReactionCountersPopulated)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " int s; while (1) { await (v); s = s + v;"
                      " emit_v (o, s); } }");
    auto mod = compiler.compile("m");
    auto eng = mod->makeSyncEngine();
    eng->react();
    eng->setInputScalar("v", 3);
    rt::ReactionResult r = eng->react();
    EXPECT_GT(r.treeTests, 0u);
    EXPECT_GT(r.actionsRun, 0u);
    EXPECT_EQ(r.emitsRun, 1u);
    EXPECT_GT(r.dataCounters.total(), 0u);
    EXPECT_EQ(r.emittedOutputs.size(), 1u);
}

TEST(EngineTest, DataBytesReportsFootprint)
{
    Compiler compiler("typedef unsigned char byte;\n"
                      "module m (input byte v, output pure o) {"
                      " byte buf[32]; int n;"
                      " while (1) { await (v); buf[n % 32] = v; n++; } }");
    auto mod = compiler.compile("m");
    auto eng = mod->makeSyncEngine();
    EXPECT_GE(eng->dataBytes(), 32u + 4u + 1u);
}

// The VM kernel opens a fresh op window per reaction: with the budget
// lowered to 20k ops, 300 reactions of a 100-iteration loop (far more than
// 20k ops in all) run, and one reaction of 100k iterations traps.
TEST(KernelTest, VmOpBudgetIsPerReaction)
{
    Compiler compiler("module m (input int n, output int o) {"
                      " int i; int s;"
                      " while (1) { await (n); s = 0;"
                      " for (i = 0; i < n; i++) { s = s + 1; }"
                      " emit_v (o, s); } }");
    auto mod = compiler.compile("m");
    const ModuleSema& sema = mod->moduleSema();
    const SignalInfo& n = *sema.findSignal("n");
    const rt::InstanceLayout layout = rt::computeInstanceLayout(sema);
    std::vector<std::uint8_t> data(layout.stride, 0);
    std::vector<std::uint8_t> present(sema.signals.size(), 0);
    rt::VmKernel kernel(mod->flatProgram(), mod->byteCodePtr(), sema, layout,
                        data.data());
    kernel.vm().setOpBudget(20'000);

    rt::ReactionResult result;
    int state = kernel.react(data.data(), present.data(),
                             mod->flatProgram().initialState, &result);
    auto reactWith = [&](std::int64_t count) {
        std::fill(present.begin(), present.end(), 0);
        present[static_cast<std::size_t>(n.index)] = 1;
        rt::writeSignalValue(data.data(), layout, n,
                             Value::fromInt(n.valueType, count));
        state = kernel.react(data.data(), present.data(), state, &result);
    };
    std::uint64_t ops = 0;
    for (int r = 0; r < 300; ++r) {
        ASSERT_NO_THROW(reactWith(100)) << "reaction " << r;
        ASSERT_EQ(result.emittedOutputs.size(), 1u);
        ops += result.dataCounters.total();
    }
    EXPECT_GT(ops, 20'000u * 10); // the budget would not cover a lifetime
    try {
        reactWith(100'000);
        ADD_FAILURE() << "a reaction over the op budget did not trap";
    } catch (const EclError& e) {
        EXPECT_NE(std::string(e.what()).find("op budget exceeded"),
                  std::string::npos)
            << e.what();
    }
}

/// Drives both engines with the same pseudo-random pure-signal stimulus and
/// compares full output traces.
void expectEnginesAgree(const std::string& src,
                        const std::vector<std::string>& inputs,
                        const std::vector<std::string>& outputs,
                        unsigned seed, int instants)
{
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    auto efsm = mod->makeSyncEngine();
    auto rc = mod->makeBaselineEngine();
    efsm->react();
    rc->react();
    std::uint32_t rng = seed * 2654435761u + 1;
    for (int t = 0; t < instants; ++t) {
        for (const std::string& in : inputs) {
            rng = rng * 1664525u + 1013904223u;
            if ((rng >> 16) & 1) {
                efsm->setInput(in);
                rc->setInput(in);
            }
        }
        efsm->react();
        rc->react();
        for (const std::string& out : outputs)
            ASSERT_EQ(efsm->outputPresent(out), rc->outputPresent(out))
                << "instant " << t << " output " << out << " seed " << seed;
    }
}

TEST(DifferentialTest, AbortNest)
{
    const char* src =
        "module m (input pure a, input pure b, input pure t,"
        " output pure x, output pure y) {"
        " while (1) {"
        "  do {"
        "    do { while (1) { await (t); emit (x); } } abort (b)"
        "      handle { emit (y); }"
        "    halt ();"
        "  } abort (a);"
        " } }";
    for (unsigned seed = 1; seed <= 5; ++seed)
        expectEnginesAgree(src, {"a", "b", "t"}, {"x", "y"}, seed, 60);
}

TEST(DifferentialTest, SuspendedCounting)
{
    const char* src =
        "module m (input pure hold, input pure t, output pure fire) {"
        " while (1) {"
        "  do {"
        "    await (t); await (t); await (t); emit (fire);"
        "  } suspend (hold);"
        " } }";
    for (unsigned seed = 1; seed <= 5; ++seed)
        expectEnginesAgree(src, {"hold", "t"}, {"fire"}, seed, 60);
}

TEST(DifferentialTest, ParWithLocalSignals)
{
    const char* src =
        "module m (input pure go, input pure t, output pure done) {"
        " signal pure s;"
        " while (1) {"
        "  par {"
        "    { await (go); emit (s); }"
        "    { do { while (1) { await (t); } } abort (s); emit (done); }"
        "  }"
        " } }";
    for (unsigned seed = 1; seed <= 5; ++seed)
        expectEnginesAgree(src, {"go", "t"}, {"done"}, seed, 60);
}

TEST(DifferentialTest, WeakAbortWithData)
{
    const char* src =
        "module m (input pure stop, input int v, output int acc) {"
        " int s;"
        " do {"
        "  while (1) { await (v); s = s + v; emit_v (acc, s); }"
        " } weak_abort (stop);"
        " halt (); }";
    Compiler compiler(src);
    auto mod = compiler.compile("m");
    auto efsm = mod->makeSyncEngine();
    auto rc = mod->makeBaselineEngine();
    efsm->react();
    rc->react();
    for (int t = 0; t < 30; ++t) {
        if (t % 3 == 0) {
            efsm->setInputScalar("v", t);
            rc->setInputScalar("v", t);
        }
        if (t == 20) {
            efsm->setInput("stop");
            rc->setInput("stop");
        }
        efsm->react();
        rc->react();
        ASSERT_EQ(efsm->outputPresent("acc"), rc->outputPresent("acc"));
        if (efsm->outputPresent("acc"))
            ASSERT_EQ(efsm->outputValue("acc").toInt(),
                      rc->outputValue("acc").toInt());
    }
}

TEST(EngineTest, TerminatedBaselineStaysDead)
{
    Compiler compiler("module m (input pure a, output pure o) {"
                      " await (a); emit (o); }");
    auto mod = compiler.compile("m");
    auto rc = mod->makeBaselineEngine();
    rc->react();
    rc->setInput("a");
    rt::ReactionResult r = rc->react();
    EXPECT_TRUE(r.terminated);
    EXPECT_TRUE(rc->terminated());
    rc->setInput("a");
    r = rc->react();
    EXPECT_TRUE(r.terminated);
    EXPECT_FALSE(rc->outputPresent("o"));
}

} // namespace
