// Code generator tests: Esterel phase-1 artifacts, C software synthesis
// (validated with `gcc -fsyntax-only`), and Verilog hardware synthesis.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "src/codegen/c_gen.h"
#include "src/codegen/esterel_gen.h"
#include "src/codegen/verilog_gen.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"

namespace {

using namespace ecl;

// The AOT translation unit is self-contained C99 (its own ABI mirror,
// fail handler and load/store helpers) — no harness stubs needed.
bool gccSyntaxCheck(const std::string& cSource, std::string tag)
{
    std::string path = "/tmp/ecl_codegen_" + tag + ".c";
    {
        std::ofstream out(path);
        out << cSource;
    }
    std::string cmd = "gcc -std=c99 -fsyntax-only -Wall " + path + " 2>/tmp/ecl_gcc_" + tag + ".log";
    return std::system(cmd.c_str()) == 0;
}

TEST(EsterelGenTest, StackModuleContainsKernelConstructs)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("assemble");
    std::string strl = codegen::generateEsterel(
        mod->reactiveProgram(), mod->moduleSema(), mod->name());

    EXPECT_NE(strl.find("module assemble:"), std::string::npos);
    EXPECT_NE(strl.find("input reset;"), std::string::npos);
    EXPECT_NE(strl.find("input in_byte : integer;"), std::string::npos);
    EXPECT_NE(strl.find("output outpkt"), std::string::npos);
    EXPECT_NE(strl.find("pause;"), std::string::npos);
    EXPECT_NE(strl.find("loop"), std::string::npos);
    EXPECT_NE(strl.find("abort"), std::string::npos);
    EXPECT_NE(strl.find("when reset"), std::string::npos);
    EXPECT_NE(strl.find("trap"), std::string::npos);
    EXPECT_NE(strl.find("emit outpkt"), std::string::npos);
}

TEST(EsterelGenTest, ProchdrShowsParAndLocalSignal)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("prochdr");
    std::string strl = codegen::generateEsterel(
        mod->reactiveProgram(), mod->moduleSema(), mod->name());
    EXPECT_NE(strl.find("||"), std::string::npos);
    EXPECT_NE(strl.find("signal kill_check"), std::string::npos);
    EXPECT_NE(strl.find("when kill_check"), std::string::npos);
}

TEST(EsterelGenTest, DataFileCarriesExtractedLoop)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("checkcrc");
    std::string c = codegen::generateEsterelDataFile(
        mod->reactiveProgram(), mod->moduleSema(), mod->name());
    EXPECT_NE(c.find("void ecl_data_"), std::string::npos);
    EXPECT_NE(c.find("crc"), std::string::npos);
}

TEST(CGenTest, AssembleCompilesWithGcc)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("assemble");
    std::string c = codegen::generateC(*mod);
    EXPECT_TRUE(gccSyntaxCheck(c, "assemble")) << c.substr(0, 2000);
}

TEST(CGenTest, ToplevelCompilesWithGcc)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("toplevel");
    std::string c = codegen::generateC(*mod);
    EXPECT_TRUE(gccSyntaxCheck(c, "toplevel"));
}

TEST(CGenTest, BufferTopCompilesWithGcc)
{
    Compiler compiler(paper::audioBufferSource());
    auto mod = compiler.compile("buffer_top");
    std::string c = codegen::generateC(*mod);
    EXPECT_TRUE(gccSyntaxCheck(c, "buffer_top"));
}

TEST(CGenTest, GeneratedCHasExpectedInterface)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("toplevel");
    std::string c = codegen::generateC(*mod);
    // The dlopen contract: one info record + one reaction entry point
    // (src/runtime/native_abi.h).
    EXPECT_NE(c.find("const ecl_nat_info ecl_module_info"),
              std::string::npos);
    EXPECT_NE(c.find("int ecl_native_react(ecl_nat_ctx *c)"),
              std::string::npos);
    // Dense state dispatch: computed goto where available, a plain
    // switch elsewhere — both must be present in the emitted text.
    EXPECT_NE(c.find("goto *ecl_roots[c->state];"), std::string::npos);
    EXPECT_NE(c.find("switch (c->state)"), std::string::npos);
    // Traps longjmp through the shared failure path.
    EXPECT_NE(c.find("static void ecl_fail(ecl_nat_ctx *c"),
              std::string::npos);
    // The paper's array cast uses the little-endian helper.
    EXPECT_NE(c.find("ecl_ldle("), std::string::npos);
}

std::size_t countOf(const std::string& text, const std::string& what)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(what); at != std::string::npos;
         at = text.find(what, at + what.size()))
        ++n;
    return n;
}

// The walk keeps its bookkeeping in locals: the context's counters, next
// state and emitted count are written once, at the exit label, and each
// flat node adds at most one packed counter constant. Per-node context
// writes coming back would fail here, without timing anything.
TEST(CGenTest, WalkWritesContextOnlyAtExit)
{
    std::vector<std::pair<std::string, std::shared_ptr<CompiledModule>>>
        designs;
    {
        Compiler compiler(paper::protocolStackSource());
        designs.emplace_back("toplevel", compiler.compile("toplevel"));
    }
    {
        Compiler compiler(paper::audioBufferSource());
        designs.emplace_back("buffer_top", compiler.compile("buffer_top"));
    }
    for (const corpus::Scenario& sc : corpus::loadCorpusDir(ECL_CORPUS_DIR))
        if (sc.name == "par_pure6")
            designs.emplace_back(sc.name, corpus::compileScenario(sc, 2));
    ASSERT_EQ(designs.size(), 3u);

    const std::regex nodeLabel("^N[0-9]+: ;$");
    for (const auto& [name, mod] : designs) {
        SCOPED_TRACE(name);
        const std::string c = codegen::generateC(*mod);
        const std::size_t walk = c.find("static void ecl_walk(ecl_nat_ctx *c)");
        const std::size_t exit = c.find("\necl_exit:\n");
        ASSERT_NE(walk, std::string::npos);
        ASSERT_NE(exit, std::string::npos);
        const std::size_t end = c.find("\n}\n", exit);
        ASSERT_NE(end, std::string::npos);
        const std::string atExit = c.substr(exit, end - exit);
        const std::string elsewhere = c.substr(0, exit) + c.substr(end);
        for (const char* field : {"c->tree_tests", "c->actions_run",
                                  "c->emits_run", "c->state =",
                                  "c->emitted_count"}) {
            EXPECT_EQ(countOf(atExit, field), 1u) << field;
            EXPECT_EQ(countOf(elsewhere, field), 0u) << field;
        }
        EXPECT_EQ(countOf(c.substr(walk, exit - walk), "setjmp"), 0u);

        // Node by node: at most one counter statement each.
        std::size_t nodes = 0;
        std::size_t counterStmts = 0;
        std::size_t pos = c.find('\n', walk);
        while (pos < exit) {
            const std::size_t eol = c.find('\n', pos + 1);
            const std::string line = c.substr(pos + 1, eol - pos - 1);
            if (std::regex_match(line, nodeLabel)) {
                ++nodes;
                counterStmts = 0;
            } else if (line.find("ecl_k") != std::string::npos && nodes > 0) {
                EXPECT_EQ(++counterStmts, 1u) << line;
            }
            pos = eol;
        }
        EXPECT_EQ(nodes, mod->flatProgram().nodes.size());
    }
}

/// `tests` decision nodes in a chain whose two edges both lead to the
/// next node (2^tests paths, all of one length), each running the same
/// `actions` data actions, ending in one leaf.
efsm::FlatProgram diamondChain(int tests, std::int32_t actions)
{
    efsm::FlatProgram flat;
    flat.actions.resize(static_cast<std::size_t>(actions));
    for (int i = 0; i < tests; ++i) {
        efsm::FlatNode n;
        n.actionsEnd = actions;
        n.testSignal = 0;
        n.onTrue = n.onFalse = i + 1;
        flat.nodes.push_back(n);
    }
    efsm::FlatNode leaf;
    leaf.flags = efsm::FlatNode::kLeaf;
    leaf.nextState = 0;
    flat.nodes.push_back(leaf);
    efsm::FlatState st;
    st.root = 0;
    flat.states.push_back(st);
    return flat;
}

// No reaction may carry one packed counter field into the next: the
// guard bounds the largest root-to-leaf sum over the node DAG (linear
// in its size, although the chain has 2^63 paths), and an overrun is
// the EmissionLimitError that makes the native backend fall back.
TEST(CGenTest, PackedCounterGuardRejectsOverflowingPaths)
{
    const std::uint64_t limit =
        (std::uint64_t{1} << codegen::kPackedActionBits) - 1;
    const auto fits = static_cast<std::int32_t>(limit / 63);
    EXPECT_NO_THROW(codegen::checkPackedCounters(diamondChain(63, fits)));
    try {
        codegen::checkPackedCounters(diamondChain(63, fits + 1));
        ADD_FAILURE() << "no EmissionLimitError";
    } catch (const codegen::EmissionLimitError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(std::to_string(63 * std::uint64_t(fits + 1)) +
                           " actions"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::to_string(codegen::kPackedActionBits) +
                           "-bit field"),
                  std::string::npos)
            << msg;
    }
}

TEST(CGenTest, RejectsModuleWithoutFlatProgram)
{
    Compiler compiler(paper::protocolStackSource());
    CompileOptions opts;
    opts.flatten = false;
    auto mod = compiler.compile("assemble", opts);
    EXPECT_THROW(codegen::generateC(*mod), EclError);
}

TEST(VerilogGenTest, PureControlModulesSynthesize)
{
    Compiler compiler(paper::audioBufferSource());
    for (const char* name : {"producer", "playback", "blinker", "buffer_top"}) {
        auto mod = compiler.compile(name);
        codegen::HwReport report = codegen::generateVerilog(*mod);
        EXPECT_TRUE(report.synthesizable) << name << ": " << report.reason;
        EXPECT_GT(report.flipFlops, 0u) << name;
        EXPECT_GT(report.gateEstimate, 0u) << name;
        EXPECT_NE(report.verilog.find("module " + std::string(name)),
                  std::string::npos);
        EXPECT_NE(report.verilog.find("always @(posedge clk"),
                  std::string::npos);
        EXPECT_NE(report.verilog.find("endmodule"), std::string::npos);
    }
}

TEST(VerilogGenTest, DataPartRejectedPerPaperRule)
{
    Compiler compiler(paper::protocolStackSource());
    auto mod = compiler.compile("checkcrc");
    codegen::HwReport report = codegen::generateVerilog(*mod);
    EXPECT_FALSE(report.synthesizable);
    EXPECT_NE(report.reason.find("data"), std::string::npos);
}

TEST(VerilogGenTest, BufferTopGateEstimateGrowsWithProduct)
{
    Compiler compiler(paper::audioBufferSource());
    auto top = compiler.compile("buffer_top");
    auto blink = compiler.compile("blinker");
    codegen::HwReport rTop = codegen::generateVerilog(*top);
    codegen::HwReport rBlink = codegen::generateVerilog(*blink);
    ASSERT_TRUE(rTop.synthesizable);
    ASSERT_TRUE(rBlink.synthesizable);
    EXPECT_GT(rTop.gateEstimate, 3 * rBlink.gateEstimate);
}

} // namespace
