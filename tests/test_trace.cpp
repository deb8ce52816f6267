// Trace tests: VCD/timeline recording, the input-stream record/replay
// format, and the bit-exact replay contract across engines and -O levels.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/runtime/trace.h"

namespace {

using namespace ecl;

TEST(TraceTest, TimelineShowsBlinkerPattern)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("blinker");
    auto eng = mod->makeSyncEngine();
    rt::TraceRecorder trace(mod->moduleSema(), {"tick", "led_on", "led_off"});
    eng->react();
    for (int t = 0; t < 10; ++t) {
        eng->setInput("tick");
        eng->react();
        trace.sample(*eng);
    }
    EXPECT_EQ(trace.instants(), 10u);
    std::string tl = trace.toTimeline();
    EXPECT_NE(tl.find("tick    ##########"), std::string::npos);
    EXPECT_NE(tl.find("led_on  #....#...."), std::string::npos);
    EXPECT_NE(tl.find("led_off ..#....#.."), std::string::npos);
}

TEST(TraceTest, VcdWellFormed)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("blinker");
    auto eng = mod->makeSyncEngine();
    rt::TraceRecorder trace(mod->moduleSema());
    eng->react();
    for (int t = 0; t < 6; ++t) {
        eng->setInput("tick");
        eng->react();
        trace.sample(*eng);
    }
    std::string vcd = trace.toVcd("blinker");
    EXPECT_NE(vcd.find("$timescale"), std::string::npos);
    EXPECT_NE(vcd.find("$scope module blinker $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 1 ! reset $end"), std::string::npos);
    EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(vcd.find("#0"), std::string::npos);
    EXPECT_NE(vcd.find("#6"), std::string::npos);
    // Changes only on edges: led_on toggles at instants 0,1 then 5,6.
    std::size_t ones = 0;
    for (std::size_t pos = vcd.find("\n1"); pos != std::string::npos;
         pos = vcd.find("\n1", pos + 1))
        ++ones;
    EXPECT_GE(ones, 2u);
}

TEST(TraceTest, ValuedSignalTracked)
{
    Compiler compiler("module m (input int v, output int o) {"
                      " while (1) { await (v); emit_v (o, v * 2); } }");
    auto mod = compiler.compile("m");
    auto eng = mod->makeSyncEngine();
    rt::TraceRecorder trace(mod->moduleSema(), {"o"});
    eng->react();
    for (int t = 1; t <= 3; ++t) {
        eng->setInputScalar("v", t);
        eng->react();
        trace.sample(*eng);
    }
    std::string vcd = trace.toVcd("m");
    EXPECT_NE(vcd.find("o_val"), std::string::npos);
    EXPECT_NE(vcd.find("b110 "), std::string::npos); // 3*2 = 6
}

TEST(TraceTest, RawSamplingForExternalEngines)
{
    Compiler compiler("module m (input pure a, output pure o) { halt(); }");
    auto mod = compiler.compile("m");
    rt::TraceRecorder trace(mod->moduleSema());
    trace.sampleRaw({true, false}, {});
    trace.sampleRaw({false, true}, {});
    EXPECT_EQ(trace.instants(), 2u);
    std::string tl = trace.toTimeline();
    EXPECT_NE(tl.find("a #."), std::string::npos);
    EXPECT_NE(tl.find("o .#"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Input-stream record/replay
// ---------------------------------------------------------------------------

struct PaperModule {
    const char* paper;
    const char* module;
};

const PaperModule kPaperModules[] = {
    {"stack", "assemble"},   {"stack", "checkcrc"},
    {"stack", "prochdr"},    {"stack", "toplevel"},
    {"buffer", "producer"},  {"buffer", "playback"},
    {"buffer", "blinker"},   {"buffer", "buffer_top"},
};

std::string paperSource(const std::string& paper)
{
    return paper == "stack" ? paper::protocolStackSource()
                            : paper::audioBufferSource();
}

/// Records `instants` instants of random stimulus on a fresh flat engine
/// of `mod` and returns the trace plus the recorded engine's packed
/// post-state.
rt::InputTrace recordRandom(const CompiledModule& mod, unsigned seed,
                            int instants,
                            std::vector<std::uint8_t>* finalState = nullptr)
{
    auto eng = mod.makeSyncEngine();
    rt::RecordingEngine rec(*eng, mod.name());
    corpus::runStimulus(rec, corpus::Profile::Random, seed, instants);
    if (finalState)
        *finalState = eng->packState();
    return rec.takeTrace();
}

std::string serialize(const rt::InputTrace& t, rt::TraceFormat fmt)
{
    std::ostringstream os;
    rt::writeTrace(t, os, fmt);
    return os.str();
}

TEST(TraceReplayTest, BinaryRoundTripIsLossless)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("buffer_top");
    rt::InputTrace t = recordRandom(*mod, 5, 40);
    ASSERT_EQ(t.instants.size(), 41u); // boot + 40 stimulus instants

    std::string bin = serialize(t, rt::TraceFormat::Binary);
    std::istringstream is(bin);
    rt::InputTrace back = rt::readTrace(is);
    EXPECT_EQ(back.module, t.module);
    EXPECT_EQ(serialize(back, rt::TraceFormat::Binary), bin);
    EXPECT_EQ(back.outputLog(), t.outputLog());
}

TEST(TraceReplayTest, TextRoundTripIsLossless)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("toplevel");
    rt::InputTrace t = recordRandom(*mod, 9, 30);

    std::string text = serialize(t, rt::TraceFormat::Text);
    EXPECT_EQ(text.rfind("eclrtrace 1\n", 0), 0u);
    std::istringstream is(text);
    rt::InputTrace back = rt::readTrace(is);
    // The two formats agree bit-for-bit after a text round trip.
    EXPECT_EQ(serialize(back, rt::TraceFormat::Binary),
              serialize(t, rt::TraceFormat::Binary));
}

TEST(TraceReplayTest, UnknownFormatRejected)
{
    std::istringstream is("not a trace at all");
    EXPECT_THROW(rt::readTrace(is), EclError);
}

TEST(TraceReplayTest, ReplayDetectsTamperedOutputs)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("blinker");
    rt::InputTrace t = recordRandom(*mod, 3, 20);

    // Drop one recorded output event: replay must flag the divergence.
    bool tampered = false;
    for (rt::TraceInstant& in : t.instants) {
        if (!in.outputs.empty()) {
            in.outputs.pop_back();
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered);
    auto eng = mod->makeSyncEngine();
    rt::TraceReplayResult r = rt::replayTrace(*eng, t);
    EXPECT_FALSE(r.outputsMatch);
    EXPECT_NE(r.mismatch.find("instant"), std::string::npos);
}

TEST(TraceReplayTest, ReplayOnWrongModuleFails)
{
    Compiler stack(paper::protocolStackSource());
    rt::InputTrace t = recordRandom(*stack.compile("toplevel"), 2, 10);
    Compiler buffer(paper::audioBufferSource());
    auto eng = buffer.compile("buffer_top")->makeSyncEngine();
    EXPECT_THROW(rt::replayTrace(*eng, t), EclError);
}

// The tentpole contract, proven over all 8 paper modules: a trace
// recorded from a SyncEngine replays bit-exactly — outputs AND packed
// post-state — on a fresh SyncEngine, on a BatchEngine instance, and
// across -O0/-O2, with the documented ExecCounters relationships.
TEST(TraceReplayTest, RecordedTraceReplaysBitExactEverywhere)
{
    unsigned seed = 100;
    for (const PaperModule& pm : kPaperModules) {
        SCOPED_TRACE(std::string(pm.paper) + "/" + pm.module);
        Compiler compiler(paperSource(pm.paper));
        auto mod2 = compiler.compile(pm.module); // -O2 default
        CompileOptions o0;
        o0.optLevel = 0;
        auto mod0 = compiler.compile(pm.module, o0);

        std::vector<std::uint8_t> recordedState;
        rt::InputTrace t = recordRandom(*mod2, seed++, 50, &recordedState);

        // Fresh SyncEngine, same compile: outputs + full packed state.
        auto e2 = mod2->makeSyncEngine();
        rt::TraceReplayResult sync2 = rt::replayTrace(*e2, t);
        EXPECT_TRUE(sync2.outputsMatch) << sync2.mismatch;
        EXPECT_EQ(sync2.finalState, recordedState);
        EXPECT_EQ(sync2.instants, t.instants.size());

        // BatchEngine instance (not #0, to exercise arena strides):
        // outputs, full packed state, and EXACT counters vs sync.
        auto batch = mod2->makeBatchEngine(3);
        rt::TraceReplayResult bat = rt::replayTrace(*batch, 1, t);
        EXPECT_TRUE(bat.outputsMatch) << bat.mismatch;
        EXPECT_EQ(bat.finalState, sync2.finalState);
        EXPECT_EQ(bat.outputDigest, sync2.outputDigest);
        EXPECT_EQ(bat.treeTests, sync2.treeTests);
        EXPECT_EQ(bat.actionsRun, sync2.actionsRun);
        EXPECT_EQ(bat.emitsRun, sync2.emitsRun);
        EXPECT_EQ(bat.dataCounters.exprOps, sync2.dataCounters.exprOps);
        EXPECT_EQ(bat.dataCounters.loads, sync2.dataCounters.loads);
        EXPECT_EQ(bat.dataCounters.stores, sync2.dataCounters.stores);

        // Flat -O0 and the tree-walking oracle: outputs match, data bytes
        // match (control ids are renumbered by minimization at -O1+).
        auto e0 = mod0->makeSyncEngine();
        rt::TraceReplayResult sync0 = rt::replayTrace(*e0, t);
        EXPECT_TRUE(sync0.outputsMatch) << sync0.mismatch;
        EXPECT_EQ(sync0.finalData(), sync2.finalData());
        EXPECT_EQ(sync0.outputDigest, sync2.outputDigest);

        auto tw = mod0->makeEngine(EngineKind::TreeWalk);
        rt::TraceReplayResult tree = rt::replayTrace(*tw, t);
        EXPECT_TRUE(tree.outputsMatch) << tree.mismatch;
        EXPECT_EQ(tree.finalData(), sync2.finalData());
        EXPECT_EQ(tree.outputDigest, sync2.outputDigest);

        // Counter contract: engine-level counters identical at every
        // level; -O0 flat matches the tree walk exactly (instruction-
        // level too); -O2's data counters may only shrink.
        EXPECT_EQ(sync0.treeTests, sync2.treeTests);
        EXPECT_EQ(sync0.actionsRun, sync2.actionsRun);
        EXPECT_EQ(sync0.emitsRun, sync2.emitsRun);
        EXPECT_EQ(sync0.treeTests, tree.treeTests);
        EXPECT_EQ(sync0.actionsRun, tree.actionsRun);
        EXPECT_EQ(sync0.dataCounters.exprOps, tree.dataCounters.exprOps);
        EXPECT_EQ(sync0.dataCounters.loads, tree.dataCounters.loads);
        EXPECT_EQ(sync0.dataCounters.stores, tree.dataCounters.stores);
        EXPECT_LE(sync2.dataCounters.exprOps, sync0.dataCounters.exprOps);
        EXPECT_LE(sync2.dataCounters.loads, sync0.dataCounters.loads);
        EXPECT_LE(sync2.dataCounters.stores, sync0.dataCounters.stores);
    }
}

// A serialized trace is as replayable as a live one: the full
// record -> write -> read -> replay loop stays bit-exact in both formats.
TEST(TraceReplayTest, SerializedTraceReplaysBitExact)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("toplevel");
    std::vector<std::uint8_t> recordedState;
    rt::InputTrace t = recordRandom(*mod, 42, 60, &recordedState);

    for (rt::TraceFormat fmt :
         {rt::TraceFormat::Binary, rt::TraceFormat::Text}) {
        std::istringstream is(serialize(t, fmt));
        rt::InputTrace back = rt::readTrace(is);
        auto eng = mod->makeSyncEngine();
        rt::TraceReplayResult r = rt::replayTrace(*eng, back);
        EXPECT_TRUE(r.outputsMatch) << r.mismatch;
        EXPECT_EQ(r.finalState, recordedState);
    }
}

} // namespace
