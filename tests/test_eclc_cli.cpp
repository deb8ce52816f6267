// Integration tests for the eclc CLI, asserting the documented exit-code
// contract (src/core/eclc_main.cpp):
//   0 success / verified complete, 1 compile errors, 2 usage errors,
//   3 verification violation, 4 verification bound reached.
// The binary path comes from CMake (ECL_ECLC_PATH = $<TARGET_FILE:eclc>).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <string>
#include <utility>
#include <vector>
#include <sys/wait.h>

namespace {

std::string eclcPath() { return ECL_ECLC_PATH; }

int runEclc(const std::string& args)
{
    const std::string cmd =
        eclcPath() + " " + args + " > /dev/null 2> /dev/null";
    const int status = std::system(cmd.c_str());
    if (status == -1) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -2;
}

/// Runs a shell command, capturing its stdout; returns its exit code.
int captureStdout(const std::string& cmd, std::string& out)
{
    FILE* pipe = popen(cmd.c_str(), "r");
    if (!pipe) return -1;
    out.clear();
    char buf[256];
    while (fgets(buf, sizeof buf, pipe)) out += buf;
    const int status = pclose(pipe);
    if (status == -1) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -2;
}

/// Like runEclc but also captures stdout (stderr still discarded), for
/// pinning the human-readable contract lines next to the exit codes.
int runEclcCapture(const std::string& args, std::string& out)
{
    return captureStdout(eclcPath() + " " + args + " 2> /dev/null", out);
}

std::string writeTemp(const std::string& name, const std::string& content)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

const char* kSpeakerMonitor =
    "module mon (input pure speaker_on, output pure violation) {\n"
    "  while (1) { await (speaker_on); emit (violation); }\n"
    "}\n";

TEST(EclcCli, UsageErrorsExit2)
{
    EXPECT_EQ(runEclc(""), 2);
    EXPECT_EQ(runEclc("--bogus-flag whatever.ecl"), 2);
    EXPECT_EQ(runEclc("--paper nosuch"), 2);
    // --verify conflicts with --async.
    EXPECT_EQ(runEclc("--paper stack --verify --async"), 2);
    // A file AND --paper is ambiguous.
    EXPECT_EQ(runEclc("--paper stack somefile.ecl"), 2);
    // Verify-only flags without --verify would be silently ignored;
    // exit 0 must never be mistakable for "verified".
    EXPECT_EQ(runEclc("--paper buffer --depth 5"), 2);
    EXPECT_EQ(runEclc("--paper buffer --monitor nope.ecl"), 2);
    EXPECT_EQ(runEclc("--paper buffer --dfs"), 2);
    // --max-states must fit the explorer's 32-bit id space.
    EXPECT_EQ(runEclc("--paper buffer --verify --max-states 4294967296"),
              2);
}

TEST(EclcCli, CompileErrorsExit1)
{
    EXPECT_EQ(runEclc("/nonexistent/path.ecl"), 1);
    const std::string parseErr =
        writeTemp("eclc_parse_err.ecl", "module m ( {");
    EXPECT_EQ(runEclc(parseErr), 1);
    const std::string semaErr = writeTemp(
        "eclc_sema_err.ecl",
        "module m (input pure a, output pure b) {"
        " while (1) { await (a); emit (no_such_signal); } }");
    EXPECT_EQ(runEclc(semaErr), 1);
    // Compile errors rank the same under --verify.
    EXPECT_EQ(runEclc(parseErr + " --verify"), 1);
}

TEST(EclcCli, EmitSucceedsExit0)
{
    EXPECT_EQ(runEclc("--paper stack --emit stats"), 0);
    EXPECT_EQ(runEclc("--paper buffer --module blinker --emit c"), 0);
}

TEST(EclcCli, EmitStatsReportsGeneratedCBytes)
{
    std::string out;
    EXPECT_EQ(runEclcCapture("--paper buffer --module blinker --emit stats",
                             out),
              0);
    EXPECT_NE(out.find(" B per flat node)"), std::string::npos) << out;
}

TEST(EclcCli, OptLevelFlags)
{
    // Every documented level compiles and emits; anything else is a
    // usage error.
    EXPECT_EQ(runEclc("--paper stack --emit stats -O0"), 0);
    EXPECT_EQ(runEclc("--paper stack --emit stats -O1"), 0);
    EXPECT_EQ(runEclc("--paper stack --emit stats -O2"), 0);
    EXPECT_EQ(runEclc("--paper stack --emit stats -O3"), 2);
    EXPECT_EQ(runEclc("--paper stack --emit stats -Ox"), 2);
    EXPECT_EQ(runEclc("--paper stack --opt-stats --emit stats"), 0);
    // Levels apply under --verify too.
    EXPECT_EQ(runEclc("--paper buffer --module blinker --verify -O0"), 0);
    EXPECT_EQ(
        runEclc("--paper buffer --module blinker --verify -O2 --opt-stats"),
        0);
}

TEST(EclcCli, OptStatsReportIsPrinted)
{
    const std::string cmd = eclcPath() +
                            " --paper stack --module toplevel --opt-stats "
                            "--emit stats 2> /dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[256];
    while (fgets(buf, sizeof buf, pipe)) out += buf;
    EXPECT_EQ(pclose(pipe), 0);
    EXPECT_NE(out.find("optimization pipeline (-O2)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("bytecode:"), std::string::npos) << out;
    EXPECT_NE(out.find("states:"), std::string::npos) << out;
}

TEST(EclcCli, VerifyCompleteExit0)
{
    EXPECT_EQ(runEclc("--paper buffer --module blinker --verify"), 0);
    EXPECT_EQ(runEclc("--paper buffer --verify --threads 2"), 0);
}

TEST(EclcCli, VerifyBoundReachedExit4)
{
    // assemble accumulates packet bytes: the state space outgrows any
    // small depth bound, so the run is inconclusive.
    EXPECT_EQ(runEclc("--paper stack --module assemble --verify --depth 3"),
              4);
    // Same for a tight state cap.
    EXPECT_EQ(
        runEclc("--paper stack --module toplevel --verify --max-states 5"),
        4);
}

TEST(EclcCli, VerifyViolationExit3)
{
    const std::string monitor =
        writeTemp("eclc_monitor.ecl", kSpeakerMonitor);
    EXPECT_EQ(runEclc("--paper buffer --verify --monitor " + monitor), 3);
    // Identically with 4 worker threads and with DFS.
    EXPECT_EQ(runEclc("--paper buffer --verify --threads 4 --monitor " +
                      monitor),
              3);
    EXPECT_EQ(runEclc("--paper buffer --verify --dfs --monitor " + monitor),
              3);
}

TEST(EclcCli, MonitorFileErrorsExit1)
{
    EXPECT_EQ(runEclc("--paper buffer --verify --monitor /nonexistent.ecl"),
              1);
    // Monitor that wires nothing: attach fails.
    const std::string unwirable = writeTemp(
        "eclc_unwirable_monitor.ecl",
        "module mon (input pure nosuch, output pure violation) {"
        " while (1) { await (nosuch); emit (violation); } }");
    EXPECT_EQ(runEclc("--paper buffer --verify --monitor " + unwirable), 1);
}

TEST(EclcCli, VerifyStoreFlags)
{
    // Every store kind explores the same (finite) module to completion;
    // only bitstate refuses to call that "verified".
    EXPECT_EQ(
        runEclc("--paper buffer --module blinker --verify --store exact"),
        0);
    EXPECT_EQ(runEclc("--paper buffer --module blinker --verify "
                      "--store=compressed"),
              0);
    // Unknown kinds and malformed budgets are usage errors.
    EXPECT_EQ(runEclc("--paper buffer --verify --store hashcompact"), 2);
    EXPECT_EQ(runEclc("--paper buffer --verify --store-mem 12Q"), 2);
    // Verify-only flags without --verify exit 2 (never silently ignored).
    EXPECT_EQ(runEclc("--paper buffer --store exact"), 2);
    EXPECT_EQ(runEclc("--paper buffer --store-mem 1M"), 2);
    EXPECT_EQ(runEclc("--paper buffer --por"), 2);
    EXPECT_EQ(runEclc("--paper buffer --native-succ"), 2);
}

TEST(EclcCli, VerifyBitstateNeverClaimsVerified)
{
    // A clean bitstate sweep exits 0 with the explicit bounded/lossy
    // disclaimer — and never exit 4: lossiness IS the bound.
    std::string out;
    EXPECT_EQ(runEclcCapture("--paper buffer --module blinker --verify "
                             "--store=bitstate",
                             out),
              0);
    EXPECT_NE(out.find("store bitstate:"), std::string::npos) << out;
    EXPECT_NE(out.find(", lossy"), std::string::npos) << out;
    EXPECT_NE(out.find("result: no violation found (bounded/lossy "
                       "bitstate search, not a proof)"),
              std::string::npos)
        << out;
}

TEST(EclcCli, VerifyBitstateViolationStillExit3)
{
    // Lossiness only ever loses states; a violation the sweep DOES reach
    // is real (replayed on SyncEngine) and must keep exit 3.
    const std::string monitor =
        writeTemp("eclc_bitstate_monitor.ecl", kSpeakerMonitor);
    std::string out;
    EXPECT_EQ(runEclcCapture(
                  "--paper buffer --verify --store=bitstate --monitor " +
                      monitor,
                  out),
              3);
    EXPECT_NE(out.find("VIOLATION"), std::string::npos) << out;
}

TEST(EclcCli, VerifyBoundReachedPrintsPartialStats)
{
    // Exit 4 must still report the partial exploration: the stats and
    // store lines print on every path.
    std::string out;
    EXPECT_EQ(runEclcCapture(
                  "--paper stack --module assemble --verify --depth 3", out),
              4);
    EXPECT_NE(out.find("verify assemble:"), std::string::npos) << out;
    EXPECT_NE(out.find("incomplete (bound reached)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("store exact:"), std::string::npos) << out;
}

TEST(EclcCli, VerifyPorAndStoreMemReportLines)
{
    std::string out;
    EXPECT_EQ(runEclcCapture("--paper buffer --module blinker --verify "
                             "--por --store-mem 16M",
                             out),
              0);
    EXPECT_NE(out.find("por: "), std::string::npos) << out;
    EXPECT_NE(out.find("expansions skipped"), std::string::npos) << out;
}

TEST(EclcCli, VerifyPrintsPhaseTimesOnEveryPath)
{
    // The expand/merge/POR wall-time split prints on every exit path,
    // like the stats and store lines, for BFS and DFS alike; the POR
    // precompute reads 0 unless --por asked for the reduction.
    const std::string monitor =
        writeTemp("eclc_phase_monitor.ecl", kSpeakerMonitor);
    const std::regex line(R"(\nphases: expand \d+\.\d{3} s, merge )"
                          R"(\d+\.\d{3} s, por (\d+\.\d{3}) s\n)");
    const std::vector<std::pair<std::string, int>> runs = {
        {"--paper buffer --module blinker --verify", 0},
        {"--paper buffer --module blinker --verify --dfs", 0},
        {"--paper buffer --verify --monitor " + monitor, 3},
        {"--paper stack --module assemble --verify --depth 3", 4},
        {"--paper buffer --module blinker --verify --por", 0},
        {"--paper buffer --module blinker --verify --dfs --por", 0},
    };
    for (const auto& [args, rc] : runs) {
        std::string out;
        EXPECT_EQ(runEclcCapture(args, out), rc) << args;
        std::smatch m;
        ASSERT_TRUE(std::regex_search(out, m, line)) << args << "\n" << out;
        if (args.find("--por") == std::string::npos)
            EXPECT_EQ(m[1].str(), "0.000") << args;
    }
}

// True when some host C compiler answers --version — the same probe
// order the native backend uses ($CC, then cc).
bool hostCompilerAvailable()
{
    const char* cc = std::getenv("CC");
    const std::string probe = (cc && *cc ? std::string(cc) : "cc");
    return std::system((probe + " --version > /dev/null 2> /dev/null")
                           .c_str()) == 0;
}

TEST(EclcCli, EmitCAliasExit0)
{
    EXPECT_EQ(runEclc("--paper buffer --module blinker --emit-c"), 0);
}

TEST(EclcCli, AotDifferentialExit0)
{
    if (!hostCompilerAvailable())
        GTEST_SKIP() << "no host C compiler for the AOT backend";
    // The documented acceptance run: dlopened native reaction function
    // bit-exact against the VM of the same compile.
    EXPECT_EQ(runEclc("--paper buffer --module blinker --aot"), 0);
    // Stimulus and opt-level flags are honored in AOT mode.
    EXPECT_EQ(runEclc("--paper stack --module assemble --aot "
                      "--stim-profile payload --stim-instants 50 "
                      "--stim-seed 7 -O0"),
              0);
}

TEST(EclcCli, AotUnavailableExit1)
{
    // ECL_NATIVE_DISABLE forces the unavailable path deterministically,
    // with or without a host compiler installed.
    const std::string cmd = "ECL_NATIVE_DISABLE=1 " + eclcPath() +
                            " --paper buffer --module blinker --aot "
                            "> /dev/null 2> /dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST(EclcCli, AotUnavailablePrintsFallbackReason)
{
    // A host compiler that always fails: the reason eclc prints must
    // name it (stderr captured, stdout discarded).
    std::string err;
    const int rc = captureStdout(
        "CC=/bin/false ECL_NATIVE_CACHE_DIR=" + ::testing::TempDir() +
            "eclc_false_cc " + eclcPath() +
            " --paper buffer --module blinker --aot 2>&1 > /dev/null",
        err);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(err.find("native backend unavailable for 'blinker'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("'/bin/false' failed"), std::string::npos) << err;
}

TEST(EclcCli, AotUsageConflictsExit2)
{
    EXPECT_EQ(runEclc("--paper stack --aot --verify"), 2);
    EXPECT_EQ(runEclc("--paper stack --aot --async"), 2);
    EXPECT_EQ(runEclc("--paper stack --aot --record-trace /tmp/t.trc"), 2);
    EXPECT_EQ(runEclc("--paper stack --aot --replay-trace /tmp/t.trc"), 2);
    // Stimulus flags still require a mode that drives a stimulus, and
    // --trace-text still requires --record-trace.
    EXPECT_EQ(runEclc("--paper stack --stim-seed 5"), 2);
    EXPECT_EQ(runEclc("--paper stack --aot --trace-text"), 2);
}

} // namespace
