// Tests for the explicit-state verification layer (src/verify).
//
// The load-bearing suites:
//  * brute force — the explorer's reachable-state set and minimal
//    counterexample are cross-checked against exhaustive input-sequence
//    enumeration replayed on rt::SyncEngine (independent of the
//    explorer's alphabet, expansion, interning and trace code; the
//    reaction kernel both call is checked against the tree-walk and RC
//    oracles in test_properties), state compared byte-for-byte via
//    packState();
//  * determinism — 1-thread and 4-thread exploration must agree on
//    state count, interning order (digest), transition count and the
//    minimal counterexample, over all 8 paper modules;
//  * acceptance — a paper module + monitor pair yields a counterexample
//    that replays bit-exactly on SyncEngine;
//  * store kinds — exact / compressed / bitstate stores agree on state
//    counts, interning digests and thread-count determinism (bitstate
//    modulo its documented lossiness, which never fires on the pinned
//    paper inputs);
//  * partial-order reduction — reduced runs are differentially checked
//    against the unreduced explorer over the committed corpus and 200
//    generated programs: verdict agreement, state-set equality on
//    complete runs, and bit-exact counterexample replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/paper_sources.h"
#include "src/corpus/corpus.h"
#include "src/corpus/program_gen.h"
#include "src/verify/replay.h"
#include "src/verify/state_store.h"

#ifndef ECL_CORPUS_DIR
#define ECL_CORPUS_DIR "tests/corpus"
#endif

using namespace ecl;

namespace {

std::shared_ptr<CompiledModule> compileSrc(const std::string& src,
                                           const std::string& module = "")
{
    Compiler compiler(src);
    std::vector<std::string> names = compiler.moduleNames();
    return compiler.compile(module.empty() ? names.back() : module);
}

std::shared_ptr<CompiledModule> compilePaper(const char* source,
                                             const char* module)
{
    Compiler compiler(std::string(source) == std::string("stack")
                          ? paper::protocolStackSource()
                          : paper::audioBufferSource());
    return compiler.compile(module);
}

// Pure-control module with a finite state space (full exploration
// terminates) and three independent inputs.
const char* kPureSrc =
    "module m (input pure i0, input pure i1, input pure i2,"
    " output pure o0, output pure o1) {"
    " while (1) {"
    "  par {"
    "    { await (i0 & ~i1); emit (o0); }"
    "    { await (i1 | i2); emit (o1); }"
    "  }"
    " } }";

// Valued input + data state (acc grows per go instant, bounded only by
// the exploration depth).
const char* kAccSrc =
    "module m (input pure go, input int x, output int acc_out) {"
    " int acc;"
    " acc = 0;"
    " while (1) {"
    "  await (go);"
    "  acc = acc + x;"
    "  emit_v (acc_out, acc);"
    " } }";

// Same shape but with a reachable violation signal: acc >= 2 needs two
// go instants with x == 1.
const char* kOverflowSrc =
    "module m (input pure go, input int x,"
    " output pure violation_overflow) {"
    " int acc;"
    " acc = 0;"
    " while (1) {"
    "  await (go);"
    "  acc = acc + x;"
    "  if (acc >= 2) { emit (violation_overflow); }"
    " } }";

// ---------------------------------------------------------------------------
// Brute-force oracle: exhaustive input-sequence enumeration on SyncEngine
// ---------------------------------------------------------------------------

/// One letter of the FULL input alphabet: the (signal, value) pairs to
/// apply; empty Value = pure presence.
using BfLetter = std::vector<std::pair<int, Value>>;

/// Full alphabet over ALL inputs (no pruning): canonical mixed-radix
/// order, lowest signal index least significant, absent < domain values;
/// scalar domain {0, 1}, aggregates only the zero value — the explorer's
/// default domains.
std::vector<BfLetter> fullAlphabet(const ModuleSema& sema)
{
    struct In {
        int sig;
        std::vector<Value> dom; ///< Empty = pure.
    };
    std::vector<In> ins;
    for (const SignalInfo& s : sema.signals) {
        if (s.dir != SignalDir::Input) continue;
        In in{s.index, {}};
        if (!s.pure) {
            if (s.valueType->isScalar()) {
                in.dom.push_back(Value::fromInt(s.valueType, 0));
                in.dom.push_back(Value::fromInt(s.valueType, 1));
            } else {
                in.dom.emplace_back(s.valueType);
            }
        }
        ins.push_back(std::move(in));
    }
    std::vector<std::size_t> radix;
    std::size_t total = 1;
    for (const In& in : ins) {
        radix.push_back(in.dom.empty() ? 2 : 1 + in.dom.size());
        total *= radix.back();
    }
    std::vector<BfLetter> letters;
    letters.reserve(total);
    std::vector<std::size_t> digits(ins.size(), 0);
    for (std::size_t code = 0; code < total; ++code) {
        BfLetter letter;
        for (std::size_t k = 0; k < ins.size(); ++k) {
            if (digits[k] == 0) continue;
            letter.emplace_back(ins[k].sig,
                                ins[k].dom.empty()
                                    ? Value{}
                                    : ins[k].dom[digits[k] - 1]);
        }
        letters.push_back(std::move(letter));
        for (std::size_t k = 0; k < ins.size(); ++k) {
            if (++digits[k] < radix[k]) break;
            digits[k] = 0;
        }
    }
    return letters;
}

struct BruteResult {
    std::set<std::vector<std::uint8_t>> states; ///< Root included.
    bool violated = false;
    std::vector<int> minViolationSeq; ///< Letter codes, BFS-lex first.
};

/// BFS over input sequences (lengths ascending, letter codes ascending),
/// each replayed from scratch on a fresh SyncEngine. Terminated prefixes
/// are not extended (the explorer does not expand dead states either).
BruteResult bruteForce(const CompiledModule& mod,
                       const std::vector<BfLetter>& alphabet, int maxDepth,
                       const std::vector<std::string>& violationSignals)
{
    std::vector<int> violIdx;
    for (const std::string& name : violationSignals)
        violIdx.push_back(mod.moduleSema().findSignal(name)->index);

    BruteResult out;
    {
        auto fresh = mod.makeSyncEngine();
        out.states.insert(fresh->packState());
    }

    struct Replay {
        bool terminated = false;
        bool violated = false;
    };
    auto replaySeq = [&](const std::vector<int>& seq) {
        auto eng = mod.makeSyncEngine();
        Replay r;
        for (int li : seq) {
            for (const auto& [sig, v] : alphabet[static_cast<std::size_t>(
                     li)]) {
                if (v.empty())
                    eng->setInput(sig);
                else
                    eng->setInputValue(sig, v);
            }
            eng->react();
        }
        out.states.insert(eng->packState());
        for (int vi : violIdx)
            if (eng->outputPresent(vi)) r.violated = true;
        r.terminated = eng->terminated();
        return r;
    };

    std::vector<std::vector<int>> frontier{{}};
    for (int depth = 1; depth <= maxDepth; ++depth) {
        std::vector<std::vector<int>> next;
        for (const std::vector<int>& seq : frontier) {
            for (std::size_t li = 0; li < alphabet.size(); ++li) {
                std::vector<int> ext = seq;
                ext.push_back(static_cast<int>(li));
                Replay r = replaySeq(ext);
                if (r.violated && !out.violated) {
                    out.violated = true;
                    out.minViolationSeq = ext;
                }
                if (!r.terminated) next.push_back(std::move(ext));
            }
        }
        frontier = std::move(next);
    }
    return out;
}

std::set<std::vector<std::uint8_t>> explorerStates(const verify::Explorer& ex)
{
    const verify::StateStore& store = ex.stateStore();
    std::set<std::vector<std::uint8_t>> out;
    for (std::uint32_t id = 0; id < store.size(); ++id)
        out.emplace(store.at(id), store.at(id) + store.packedSize());
    return out;
}

/// Explorer trace -> (signal, value bytes) per instant for comparison
/// with a brute-force letter sequence.
std::vector<BfLetter> traceLetters(const std::vector<verify::TraceStep>& t)
{
    std::vector<BfLetter> out;
    for (const verify::TraceStep& step : t) {
        BfLetter letter;
        for (const verify::InputEvent& ev : step.inputs)
            letter.emplace_back(ev.signal, ev.value);
        out.push_back(std::move(letter));
    }
    return out;
}

void expectLettersEqual(const std::vector<BfLetter>& a,
                        const std::vector<BfLetter>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size()) << "instant " << t;
        for (std::size_t k = 0; k < a[t].size(); ++k) {
            EXPECT_EQ(a[t][k].first, b[t][k].first)
                << "instant " << t << " input " << k;
            const Value& va = a[t][k].second;
            const Value& vb = b[t][k].second;
            ASSERT_EQ(va.empty(), vb.empty());
            if (!va.empty()) {
                ASSERT_EQ(va.size(), vb.size());
                EXPECT_EQ(0,
                          std::memcmp(va.data(), vb.data(), va.size()))
                    << "instant " << t << " input " << k;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// StateStore unit tests
// ---------------------------------------------------------------------------

TEST(StateStore, InternDedupsAndNumbersSequentially)
{
    verify::ExactStore store(8);
    std::uint8_t rec[8] = {0};
    for (std::uint32_t i = 0; i < 10000; ++i) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        EXPECT_TRUE(isNew);
        EXPECT_EQ(id, i);
    }
    EXPECT_EQ(store.size(), 10000u);
    const std::uint64_t digest = store.digest();
    // Re-interning is a no-op in any order.
    for (std::uint32_t i = 0; i < 10000; i += 37) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        EXPECT_FALSE(isNew);
        EXPECT_EQ(id, i);
    }
    EXPECT_EQ(store.size(), 10000u);
    EXPECT_EQ(store.digest(), digest);
    // Records read back bit-exactly.
    std::uint32_t probe = 4242;
    std::memcpy(rec, &probe, 4);
    EXPECT_EQ(0, std::memcmp(store.at(4242), rec, 8));
}

TEST(StateStore, CompressedMatchesExactIdsAndDigest)
{
    // The compressed store is exact: same records in the same order must
    // produce the same ids, dedup decisions and the same order-sensitive
    // digest — it only changes the memory representation.
    verify::ExactStore exact(64);
    verify::CompressedStore comp(64, {4, 60});
    std::uint8_t rec[64] = {0};
    // Many records sharing a few distinct wide tail components (the
    // COLLAPSE case the component pools exist for: many control states
    // over few distinct data valuations).
    for (std::uint32_t i = 0; i < 4000; ++i) {
        std::uint32_t head = i;
        std::uint64_t tail = i % 7;
        std::memset(rec, 0, sizeof rec);
        std::memcpy(rec, &head, 4);
        std::memcpy(rec + 4, &tail, 8);
        auto [eid, enew] = exact.intern(rec);
        auto [cid, cnew] = comp.intern(rec);
        EXPECT_EQ(eid, cid);
        EXPECT_EQ(enew, cnew);
    }
    EXPECT_EQ(exact.size(), comp.size());
    EXPECT_EQ(exact.digest(), comp.digest());
    // Records reassemble bit-exactly from the component pools.
    for (std::uint32_t id = 0; id < comp.size(); id += 113) {
        std::uint8_t want[64];
        std::memcpy(want, exact.at(id), 64);
        EXPECT_EQ(0, std::memcmp(comp.at(id), want, 64)) << "id " << id;
    }
    // Re-intern dedups identically.
    std::uint32_t head = 17;
    std::uint64_t tail = 17 % 7;
    std::memset(rec, 0, sizeof rec);
    std::memcpy(rec, &head, 4);
    std::memcpy(rec + 4, &tail, 8);
    EXPECT_EQ(comp.intern(rec), (std::pair<std::uint32_t, bool>{17u, false}));
    // 4000 x 64B records with 7 distinct 60B tails: tuples + pools must
    // undercut the flat arena.
    EXPECT_LT(comp.memoryBytes(), exact.memoryBytes());
}

TEST(StateStore, BitstateIsLossyMembershipOnly)
{
    verify::BitstateStore store(8, 1 << 16);
    EXPECT_TRUE(store.lossy());
    EXPECT_FALSE(store.canRead());
    EXPECT_EQ(store.memoryBytes(), 1u << 16);
    std::uint8_t rec[8] = {0};
    std::uint32_t fresh = 0;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        if (isNew) {
            EXPECT_EQ(id, fresh);
            ++fresh;
        } else {
            // A (rare at this fill) collision merges silently.
            EXPECT_EQ(id, verify::StateStore::kNoId);
        }
    }
    EXPECT_EQ(store.size(), fresh);
    EXPECT_GT(store.fillRatio(), 0.0);
    // Exact re-probes of seen records always report seen.
    for (std::uint32_t i = 0; i < 1000; i += 41) {
        std::memcpy(rec, &i, 4);
        auto [id, isNew] = store.intern(rec);
        EXPECT_FALSE(isNew);
        EXPECT_EQ(id, verify::StateStore::kNoId);
    }
    // Records are not retained: at() must refuse rather than fabricate.
    EXPECT_THROW((void)store.at(0), EclError);
}

TEST(StateStore, FactoryBuildsEveryKindAndParsesNames)
{
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Compressed,
          verify::StoreKind::Bitstate}) {
        auto store = verify::StateStore::make(kind, 16);
        ASSERT_TRUE(store);
        EXPECT_EQ(store->kind(), kind);
        EXPECT_EQ(store->packedSize(), 16u);
        verify::StoreKind parsed;
        ASSERT_TRUE(
            verify::parseStoreKind(verify::storeKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    verify::StoreKind parsed;
    EXPECT_FALSE(verify::parseStoreKind("hashcompact", parsed));
}

TEST(StateStore, GenerationCountsMutatingInternsOnly)
{
    verify::ExactStore store(4);
    const std::uint64_t g0 = store.generation();
    std::uint32_t v = 1;
    store.intern(reinterpret_cast<const std::uint8_t*>(&v));
    EXPECT_EQ(store.generation(), g0 + 1);
    store.intern(reinterpret_cast<const std::uint8_t*>(&v)); // dup: no bump
    EXPECT_EQ(store.generation(), g0 + 1);
    v = 2;
    store.intern(reinterpret_cast<const std::uint8_t*>(&v));
    EXPECT_EQ(store.generation(), g0 + 2);
    (void)store.at(0); // reads never bump
    EXPECT_EQ(store.generation(), g0 + 2);
}

TEST(StateStore, ExactForcedHashCollisionsKeepDistinctIds)
{
    // Every record is interned under one identical (deliberately wrong)
    // hash, so each probe starts at the same slot and meets the earlier
    // records with an equal tag: only the record compare tells them
    // apart. (Growth re-files old records under their real hash; the
    // records interned after it collide again.) Ids must still be dense
    // and distinct, and every record must read back bit-exactly.
    verify::ExactStore store(12);
    std::uint8_t rec[12] = {0};
    for (std::uint32_t i = 0; i < 10000; ++i) {
        std::memcpy(rec, &i, 4);
        std::memcpy(rec + 8, &i, 4);
        auto [id, isNew] = store.intern(rec, 0xfedcba9876543210ull);
        ASSERT_TRUE(isNew) << i;
        ASSERT_EQ(id, i);
    }
    EXPECT_EQ(store.size(), 10000u);
    for (std::uint32_t i = 0; i < 10000; ++i) {
        std::memcpy(rec, &i, 4);
        std::memcpy(rec + 8, &i, 4);
        ASSERT_EQ(0, std::memcmp(store.at(i), rec, sizeof rec)) << i;
    }
}

TEST(StateStore, ExactTagBitsSurviveRepeatedGrowth)
{
    // 4096 initial slots at load 3/4: 200k records force 7 doublings
    // (to 2^19 slots), each shrinking the tag by one bit while the id
    // field grows. After every doubling, every earlier record must still
    // resolve to its own id (a tag bit leaking into the id field would
    // return a wrong id or miss the record).
    verify::ExactStore store(16);
    std::uint8_t rec[16] = {0};
    const auto fill = [&rec](std::uint32_t i) {
        const std::uint64_t a = i * 0x9e3779b97f4a7c15ull;
        std::memcpy(rec, &i, 4);
        std::memcpy(rec + 8, &a, 8);
    };
    std::uint64_t lastBytes = store.memoryBytes() - store.arenaBytes();
    int doublings = 0;
    for (std::uint32_t i = 0; i < 200000; ++i) {
        fill(i);
        auto [id, isNew] = store.intern(rec);
        ASSERT_TRUE(isNew) << i;
        ASSERT_EQ(id, i);
        const std::uint64_t index = store.memoryBytes() - store.arenaBytes();
        if (index != lastBytes) {
            ++doublings;
            lastBytes = index;
            for (std::uint32_t j = 0; j <= i; j += 7) {
                fill(j);
                auto [again, fresh] = store.intern(rec);
                ASSERT_FALSE(fresh) << "record " << j << " after growth";
                ASSERT_EQ(again, j) << "record " << j << " after growth";
            }
        }
    }
    EXPECT_GE(doublings, 6);
    for (std::uint32_t j = 0; j < 200000; ++j) {
        fill(j);
        ASSERT_EQ(store.intern(rec),
                  (std::pair<std::uint32_t, bool>{j, false}));
        ASSERT_EQ(0, std::memcmp(store.at(j), rec, sizeof rec)) << j;
    }
}

TEST(StateStore, ExactArenaBlocksKeepRecordsAndSize)
{
    // An odd record size (183 B: a record straddles cache lines and the
    // block holds a power-of-two record count, not a power-of-two byte
    // count) across many arena blocks and several index doublings.
    // Every record must read back bit-exactly, and memoryBytes() must
    // stay exactly records + 4 bytes per index slot — the figure the
    // explorer reports as its store size, independent of block slack.
    constexpr std::size_t kSize = 183;
    verify::ExactStore store(kSize);
    const std::uint32_t perBlock = store.recordsPerBlock();
    ASSERT_EQ(perBlock & (perBlock - 1), 0u);
    EXPECT_LE(perBlock * kSize, verify::RecordArena::kBlockBytes);
    EXPECT_GT(2 * perBlock * kSize, verify::RecordArena::kBlockBytes);

    const std::uint32_t n = 24 * perBlock + 17;
    std::vector<std::uint8_t> rec(kSize);
    const auto fill = [&rec](std::uint32_t i) {
        for (std::size_t k = 0; k < kSize; ++k)
            rec[k] = static_cast<std::uint8_t>((i * 131u + k * 7u) ^
                                               (i >> (k % 13)));
        std::memcpy(rec.data() + kSize - 4, &i, 4); // distinct records
    };
    const auto expectedBytes = [&store] {
        std::uint64_t capacity = 1u << 12;
        while (static_cast<std::uint64_t>(store.size()) * 4 > capacity * 3)
            capacity *= 2;
        return static_cast<std::uint64_t>(store.size()) * kSize +
               4 * capacity;
    };
    fill(0);
    store.intern(rec.data());
#ifdef NDEBUG
    // Release at() returns the arena itself: records never move.
    const std::uint8_t* early = store.at(0);
#endif
    std::uint64_t lastIndex = store.memoryBytes() - store.arenaBytes();
    int doublings = 0;
    for (std::uint32_t i = store.size(); i < n; ++i) {
        fill(i);
        ASSERT_EQ(store.intern(rec.data()),
                  (std::pair<std::uint32_t, bool>{i, true}));
        ASSERT_EQ(store.memoryBytes(), expectedBytes()) << i;
        const std::uint64_t index = store.memoryBytes() - store.arenaBytes();
        if (index != lastIndex) {
            ++doublings;
            lastIndex = index;
        }
    }
    EXPECT_GE(doublings, 4);
    EXPECT_EQ(store.arenaBytes(), static_cast<std::size_t>(n) * kSize);
#ifdef NDEBUG
    EXPECT_EQ(store.at(0), early);
#endif
    for (std::uint32_t i = 0; i < n; ++i) {
        fill(i);
        ASSERT_EQ(0, std::memcmp(store.at(i), rec.data(), kSize)) << i;
        ASSERT_EQ(store.intern(rec.data()),
                  (std::pair<std::uint32_t, bool>{i, false}));
    }
    EXPECT_EQ(store.memoryBytes(), expectedBytes());
}

TEST(StateStore, PrehashedInternMatchesSelfHashingIntern)
{
    // intern(bytes) hashes and forwards to intern(bytes, hash): ids,
    // dedup verdicts and digests agree for every store kind.
    for (verify::StoreKind kind :
         {verify::StoreKind::Exact, verify::StoreKind::Compressed,
          verify::StoreKind::Bitstate}) {
        SCOPED_TRACE(verify::storeKindName(kind));
        auto self = verify::StateStore::make(kind, 20, {0, {4, 16}});
        auto pre = verify::StateStore::make(kind, 20, {0, {4, 16}});
        std::uint8_t rec[20] = {0};
        for (std::uint32_t i = 0; i < 6000; ++i) {
            const std::uint32_t v = (i * 7919u) % 4500u; // duplicates too
            std::memcpy(rec, &v, 4);
            rec[4 + v % 16] = static_cast<std::uint8_t>(v);
            const auto a = self->intern(rec);
            const auto b = pre->intern(
                rec, verify::StateStore::hashBytes(rec, sizeof rec));
            ASSERT_EQ(a, b) << i;
            rec[4 + v % 16] = 0;
        }
        EXPECT_EQ(self->size(), pre->size());
        EXPECT_EQ(self->digest(), pre->digest());
    }
}

TEST(StateStore, BitstateFillMatchesIndependentProbes)
{
    // Hash-quality guard: N sequential 8-byte records set 3N probe bits.
    // With independent, uniform probes the expected fill of m bits is
    // 1 - (1 - 1/m)^(3N); a hash that clusters sequential records (few
    // distinct low bits, correlated probes) falls visibly short of it.
    // Deterministic: the records and the hash are fixed.
    const std::uint64_t budget = 1u << 17; // 2^20 bits
    const double m = static_cast<double>(budget) * 8;
    verify::BitstateStore store(8, budget);
    const std::uint64_t n = 100000;
    for (std::uint64_t i = 0; i < n; ++i)
        store.intern(reinterpret_cast<const std::uint8_t*>(&i));
    const double expected =
        1.0 - std::pow(1.0 - 1.0 / m, 3.0 * static_cast<double>(n));
    EXPECT_NEAR(store.fillRatio(), expected, 0.02 * expected)
        << "expected " << expected;
}

// ---------------------------------------------------------------------------
// Brute-force cross-checks (<= 4 inputs, depth <= 6)
// ---------------------------------------------------------------------------

TEST(VerifyBruteForce, PureControlReachableSetMatches)
{
    auto mod = compileSrc(kPureSrc);
    const std::vector<BfLetter> alphabet =
        fullAlphabet(mod->moduleSema()); // 2^3 letters
    ASSERT_EQ(alphabet.size(), 8u);
    BruteResult brute = bruteForce(*mod, alphabet, 4, {});

    for (bool prune : {true, false}) {
        verify::ExplorerOptions opts;
        opts.maxDepth = 4;
        opts.pruneInputs = prune;
        auto ex = mod->makeExplorer(opts);
        verify::ExploreResult res = ex->run();
        EXPECT_FALSE(res.violated);
        EXPECT_EQ(explorerStates(*ex), brute.states) << "prune=" << prune;
    }
}

TEST(VerifyBruteForce, ValuedInputReachableSetMatches)
{
    auto mod = compileSrc(kAccSrc);
    const std::vector<BfLetter> alphabet =
        fullAlphabet(mod->moduleSema()); // 2 * 3 letters
    ASSERT_EQ(alphabet.size(), 6u);
    BruteResult brute = bruteForce(*mod, alphabet, 5, {});

    verify::ExplorerOptions opts;
    opts.maxDepth = 5;
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    EXPECT_FALSE(res.violated);
    EXPECT_EQ(explorerStates(*ex), brute.states);
}

TEST(VerifyBruteForce, MinimalViolationTraceMatches)
{
    auto mod = compileSrc(kOverflowSrc);
    const std::vector<BfLetter> alphabet = fullAlphabet(mod->moduleSema());
    BruteResult brute =
        bruteForce(*mod, alphabet, 6, {"violation_overflow"});
    ASSERT_TRUE(brute.violated);

    verify::ExplorerOptions opts;
    opts.maxDepth = 6;
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::DesignSignal);
    EXPECT_EQ(res.violation.what, "violation_overflow");
    EXPECT_EQ(res.trace.size(), brute.minViolationSeq.size());

    // Same minimal counterexample, input for input.
    std::vector<BfLetter> bruteLetters;
    for (int li : brute.minViolationSeq)
        bruteLetters.push_back(alphabet[static_cast<std::size_t>(li)]);
    expectLettersEqual(traceLetters(res.trace), bruteLetters);

    // And it replays on the production engine.
    auto engine = mod->makeSyncEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*engine, nullptr, res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyBruteForce, RandomWalkStatesAreReachable)
{
    // Every state a concretely-driven SyncEngine can reach (inputs drawn
    // from the explorer's domains) must be in the explored set.
    auto mod = compileSrc(kPureSrc);
    auto ex = mod->makeExplorer({});
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.stats.complete);
    const std::set<std::vector<std::uint8_t>> states = explorerStates(*ex);
    const std::vector<BfLetter> alphabet = fullAlphabet(mod->moduleSema());

    std::mt19937 rng(20260728u);
    for (int walk = 0; walk < 10; ++walk) {
        auto eng = mod->makeSyncEngine();
        EXPECT_TRUE(states.count(eng->packState()));
        for (int t = 0; t < 30; ++t) {
            const BfLetter& letter = alphabet[rng() % alphabet.size()];
            for (const auto& [sig, v] : letter) {
                if (v.empty())
                    eng->setInput(sig);
                else
                    eng->setInputValue(sig, v);
            }
            eng->react();
            EXPECT_TRUE(
                states.count(eng->packState()))
                << "walk " << walk << " instant " << t;
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy / option equivalences
// ---------------------------------------------------------------------------

TEST(VerifyStrategies, DfsFindsTheSameStateSet)
{
    auto mod = compileSrc(kPureSrc);
    auto bfs = mod->makeExplorer({});
    verify::ExploreResult rb = bfs->run();
    verify::ExplorerOptions opts;
    opts.strategy = verify::Strategy::Dfs;
    auto dfs = mod->makeExplorer(opts);
    verify::ExploreResult rd = dfs->run();
    EXPECT_TRUE(rb.stats.complete);
    EXPECT_TRUE(rd.stats.complete);
    EXPECT_EQ(rb.stats.states, rd.stats.states);
    EXPECT_EQ(explorerStates(*bfs), explorerStates(*dfs));
}

TEST(VerifyStrategies, PruningPreservesInterningOrder)
{
    // Pruned enumeration = unpruned enumeration with irrelevant digits
    // held at zero, and duplicates dedup to first occurrence — so even
    // the order-sensitive digest must match.
    for (const char* src : {kPureSrc, kAccSrc}) {
        auto mod = compileSrc(src);
        verify::ExplorerOptions opts;
        opts.maxDepth = 5;
        auto pruned = mod->makeExplorer(opts);
        verify::ExploreResult rp = pruned->run();
        opts.pruneInputs = false;
        auto full = mod->makeExplorer(opts);
        verify::ExploreResult rf = full->run();
        EXPECT_EQ(rp.stats.states, rf.stats.states);
        EXPECT_EQ(pruned->stateDigest(), full->stateDigest());
        // Pruning must only ever shrink the work.
        EXPECT_LE(rp.stats.transitions, rf.stats.transitions);
    }
}

TEST(VerifyOptions, DepthAndStateBoundsReportIncomplete)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 3;
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    EXPECT_FALSE(res.stats.complete);
    EXPECT_EQ(res.stats.depthReached, 3);

    verify::ExplorerOptions capped;
    capped.maxStates = 4;
    auto ex2 = mod->makeExplorer(capped);
    verify::ExploreResult res2 = ex2->run();
    EXPECT_FALSE(res2.stats.complete);
    EXPECT_GE(res2.stats.states, 4u);
}

TEST(VerifyOptions, RunIsSingleShot)
{
    auto mod = compileSrc(kPureSrc);
    auto ex = mod->makeExplorer({});
    (void)ex->run();
    EXPECT_THROW(ex->run(), EclError);
}

TEST(VerifyOptions, ScalarDomainOverridePerSignal)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 3;
    opts.scalarDomains["x"] = {5};
    auto ex = mod->makeExplorer(opts);
    verify::ExploreResult res = ex->run();
    // acc after one go instant with x=5 must be 5: find a state whose
    // acc variable reads 5.
    const verify::StateStore& store = ex->stateStore();
    const rt::InstanceLayout& layout = ex->designLayout();
    bool sawFive = false;
    for (std::uint32_t id = 0; id < store.size(); ++id) {
        verify::StateView view(mod->moduleSema(), layout, 0,
                               store.at(id) + 4);
        if (view.var("acc") == 5) sawFive = true;
    }
    EXPECT_TRUE(sawFive);
    EXPECT_FALSE(res.violated);
}

TEST(VerifyPredicates, PredicateViolationWithReplay)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 8;
    auto ex = mod->makeExplorer(opts);
    ex->addPredicate("acc_le_2", [](const verify::StateView& s) {
        return s.var("acc") > 2;
    });
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::Predicate);
    EXPECT_EQ(res.violation.what, "acc_le_2");
    // Minimal: acc > 2 needs three go/x=1 instants after boot.
    EXPECT_EQ(res.trace.size(), 4u);
    auto engine = mod->makeSyncEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*engine, nullptr, res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

// ---------------------------------------------------------------------------
// Monitors
// ---------------------------------------------------------------------------

const char* kSpeakerMonitorSrc =
    "module mon (input pure speaker_on, output pure violation) {"
    " while (1) { await (speaker_on); emit (violation); } }";

TEST(VerifyMonitor, PaperModuleViolationReplaysBitExactly)
{
    // Acceptance: buffer_top + "speaker never turns on" monitor. The
    // speaker IS reachable, so exploration must produce a counterexample
    // that replays bit-exactly on SyncEngine — and identically for 1 and
    // 4 worker threads.
    auto design = compilePaper("buffer", "buffer_top");
    auto monitor = compileSrc(kSpeakerMonitorSrc);

    verify::ExploreResult first;
    std::uint64_t firstDigest = 0;
    for (int threads : {1, 4}) {
        verify::ExplorerOptions opts;
        opts.threads = threads;
        auto ex = design->makeExplorer(opts);
        monitor->attachAsMonitor(*ex);
        verify::ExploreResult res = ex->run();
        ASSERT_TRUE(res.violated) << "threads=" << threads;
        EXPECT_EQ(res.violation.kind,
                  verify::Violation::Kind::MonitorSignal);
        EXPECT_EQ(res.violation.what, "violation");

        auto dEng = design->makeSyncEngine();
        auto mEng = monitor->makeSyncEngine();
        verify::ReplayOutcome rp =
            verify::replayCounterexample(*dEng, mEng.get(), res);
        EXPECT_TRUE(rp.reproduced) << rp.detail;

        if (threads == 1) {
            first = res;
            firstDigest = ex->stateDigest();
        } else {
            // Thread-count determinism on the violating run.
            EXPECT_EQ(res.stats.states, first.stats.states);
            EXPECT_EQ(res.stats.transitions, first.stats.transitions);
            EXPECT_EQ(res.violation.depth, first.violation.depth);
            EXPECT_EQ(firstDigest, ex->stateDigest());
            expectLettersEqual(traceLetters(res.trace),
                               traceLetters(first.trace));
        }
    }
}

TEST(VerifyMonitor, ValuedViolationValueIsBitExact)
{
    auto design = compileSrc(
        "module d (input pure tick, output int level) {"
        " int n;"
        " n = 0;"
        " while (1) { await (tick); n = n + 1; emit_v (level, n); } }");
    auto monitor = compileSrc(
        "module m (input int level, output int violation_level) {"
        " while (1) {"
        "  await (level);"
        "  if (level >= 2) { emit_v (violation_level, level * 10); }"
        " } }");

    auto ex = design->makeExplorer({});
    monitor->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::MonitorSignal);
    EXPECT_EQ(res.violation.what, "violation_level");
    ASSERT_FALSE(res.violation.value.empty());
    EXPECT_EQ(res.violation.value.toInt(), 20);

    auto dEng = design->makeSyncEngine();
    auto mEng = monitor->makeSyncEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*dEng, mEng.get(), res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyMonitor, WiredUntestedPureInputIsNotPruned)
{
    // The design never tests `b`, so dirty-set pruning would hold it
    // absent — but the monitor awaits it. Wired design inputs must stay
    // in the alphabet or this (trivially reachable) violation is missed
    // and the run is falsely reported complete.
    auto design = compileSrc(
        "module d (input pure a, input pure b, output pure o) {"
        " while (1) { await (a); emit (o); } }");
    auto monitor = compileSrc(
        "module m (input pure b, output pure violation) {"
        " while (1) { await (b); emit (violation); } }");
    auto ex = design->makeExplorer({});
    monitor->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::MonitorSignal);
    EXPECT_EQ(res.trace.size(), 2u); // arm the await at boot, then b

    auto dEng = design->makeSyncEngine();
    auto mEng = monitor->makeSyncEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*dEng, mEng.get(), res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyMonitor, MonitorRuntimeErrorViolationReplays)
{
    // A monitor whose reaction traps (array index out of bounds once the
    // design's level reaches 2) is itself a verification result; the
    // replay must reproduce the trap, not leak the exception.
    auto design = compileSrc(
        "module d (input pure tick, output int level) {"
        " int n;"
        " n = 0;"
        " while (1) { await (tick); n = n + 1; emit_v (level, n); } }");
    auto monitor = compileSrc(
        "module m (input int level, output pure violation) {"
        " int buf[2];"
        " while (1) { await (level); buf[level] = 1; } }");
    auto ex = design->makeExplorer({});
    monitor->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.violation.kind, verify::Violation::Kind::RuntimeError);

    auto dEng = design->makeSyncEngine();
    auto mEng = monitor->makeSyncEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*dEng, mEng.get(), res);
    EXPECT_TRUE(rp.reproduced) << rp.detail;
}

TEST(VerifyMonitor, WiringErrors)
{
    auto design = compileSrc(kPureSrc);
    auto unmatched = compileSrc(
        "module m (input pure nonexistent, output pure violation) {"
        " while (1) { await (nonexistent); emit (violation); } }");
    auto ex = design->makeExplorer({});
    EXPECT_THROW(unmatched->attachAsMonitor(*ex), EclError);

    // A monitor that can never flag anything is rejected at run().
    auto silent = compileSrc(
        "module m (input pure i0, output pure saw_it) {"
        " while (1) { await (i0); emit (saw_it); } }");
    auto ex2 = design->makeExplorer({});
    silent->attachAsMonitor(*ex2);
    EXPECT_THROW(ex2->run(), EclError);

    // ...unless the signal is named explicitly.
    verify::ExplorerOptions opts;
    opts.violationSignals = {"saw_it"};
    auto ex3 = design->makeExplorer(opts);
    silent->attachAsMonitor(*ex3);
    verify::ExploreResult res = ex3->run();
    EXPECT_TRUE(res.violated);
    EXPECT_EQ(res.violation.what, "saw_it");
}

// ---------------------------------------------------------------------------
// 1-thread vs 4-thread determinism over all 8 paper modules
// ---------------------------------------------------------------------------

struct PaperCase {
    const char* source;
    const char* module;
    int depth;
};

void PrintTo(const PaperCase& c, std::ostream* os)
{
    *os << c.source << "/" << c.module;
}

class VerifyDeterminismTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(VerifyDeterminismTest, OneAndFourThreadsAgree)
{
    const PaperCase& pc = GetParam();
    auto mod = compilePaper(pc.source, pc.module);

    verify::ExploreStats first;
    std::uint64_t firstDigest = 0;
    for (int threads : {1, 4}) {
        verify::ExplorerOptions opts;
        opts.threads = threads;
        opts.maxDepth = pc.depth;
        opts.maxStates = 200000;
        auto ex = mod->makeExplorer(opts);
        verify::ExploreResult res = ex->run();
        EXPECT_FALSE(res.violated);
        if (threads == 1) {
            first = res.stats;
            firstDigest = ex->stateDigest();
        } else {
            EXPECT_EQ(res.stats.states, first.states);
            EXPECT_EQ(res.stats.transitions, first.transitions);
            EXPECT_EQ(res.stats.peakFrontier, first.peakFrontier);
            EXPECT_EQ(res.stats.depthReached, first.depthReached);
            EXPECT_EQ(res.stats.complete, first.complete);
            EXPECT_EQ(ex->stateDigest(), firstDigest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModules, VerifyDeterminismTest,
    ::testing::Values(PaperCase{"stack", "assemble", 8},
                      PaperCase{"stack", "checkcrc", 8},
                      PaperCase{"stack", "prochdr", 8},
                      PaperCase{"stack", "toplevel", 8},
                      PaperCase{"buffer", "producer", 8},
                      PaperCase{"buffer", "playback", 8},
                      PaperCase{"buffer", "blinker", 8},
                      PaperCase{"buffer", "buffer_top", 20}));

// ---------------------------------------------------------------------------
// Multi-epoch BFS levels: epoch boundaries move with the thread count
// (each worker's successor budget is fixed), the merge order must not
// ---------------------------------------------------------------------------

// Stack `toplevel` at depth 14: its last levels hold 7k-14k states of
// 181 bytes with about 6 letters each, several epochs per level at
// every thread count below.
constexpr int kEpochDepth = 14;

verify::ExploreResult runToplevel(const CompiledModule& mod, int threads,
                                  int depth, std::uint32_t maxStates,
                                  std::uint64_t* digest,
                                  const verify::Predicate& pred = {})
{
    verify::ExplorerOptions opts;
    opts.threads = threads;
    opts.maxDepth = depth;
    opts.maxStates = maxStates;
    auto ex = mod.makeExplorer(opts);
    if (pred) ex->addPredicate("target_state", pred);
    verify::ExploreResult res = ex->run();
    if (digest) *digest = ex->stateDigest();
    return res;
}

TEST(VerifyEpochDeterminism, ManyEpochLevelsAgreeAcrossThreadCounts)
{
    auto mod = compilePaper("stack", "toplevel");
    verify::ExploreStats first;
    std::uint64_t firstDigest = 0;
    std::set<std::uint64_t> epochCounts;
    for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(threads);
        std::uint64_t digest = 0;
        verify::ExploreResult res =
            runToplevel(*mod, threads, kEpochDepth, 1u << 20, &digest);
        EXPECT_FALSE(res.violated);
        // More epochs than levels: some level really was split.
        EXPECT_GT(res.stats.epochs,
                  static_cast<std::uint64_t>(res.stats.depthReached));
        epochCounts.insert(res.stats.epochs);
        if (threads == 1) {
            first = res.stats;
            firstDigest = digest;
            EXPECT_EQ(first.depthReached, kEpochDepth);
            continue;
        }
        EXPECT_EQ(res.stats.states, first.states);
        EXPECT_EQ(res.stats.transitions, first.transitions);
        EXPECT_EQ(res.stats.peakFrontier, first.peakFrontier);
        EXPECT_EQ(res.stats.depthReached, first.depthReached);
        EXPECT_EQ(res.stats.complete, first.complete);
        EXPECT_EQ(digest, firstDigest);
    }
    // The boundaries did move with the thread count.
    EXPECT_GT(epochCounts.size(), 1u);
}

TEST(VerifyEpochDeterminism, StateCapMidEpochKeepsCanonicalPrefix)
{
    // A cap inside the last level (several epochs long) stops interning
    // mid-epoch: exactly maxStates states, and they are the canonical
    // run's first maxStates records — re-interned independently.
    auto mod = compilePaper("stack", "toplevel");
    verify::ExplorerOptions opts;
    opts.maxDepth = kEpochDepth;
    auto full = mod->makeExplorer(opts);
    const verify::ExploreResult fr = full->run();
    const std::uint32_t cap = static_cast<std::uint32_t>(fr.stats.states) -
                              fr.stats.peakFrontier / 3;
    verify::ExactStore prefix(full->packedSize());
    for (std::uint32_t id = 0; id < cap; ++id)
        prefix.intern(full->stateStore().at(id));

    verify::ExploreStats first;
    for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(threads);
        std::uint64_t digest = 0;
        verify::ExploreResult res =
            runToplevel(*mod, threads, kEpochDepth, cap, &digest);
        EXPECT_FALSE(res.violated);
        EXPECT_FALSE(res.stats.complete);
        EXPECT_EQ(res.stats.states, cap);
        EXPECT_EQ(digest, prefix.digest());
        // The rest of the capped level is still expanded and scanned.
        EXPECT_EQ(res.stats.transitions, fr.stats.transitions);
        if (threads == 1) first = res.stats;
        EXPECT_EQ(res.stats.peakFrontier, first.peakFrontier);
    }
}

TEST(VerifyEpochDeterminism, LateEpochViolationMatchesOneThread)
{
    // The predicate flags exactly the last state the depth-bounded run
    // interns, so the violating transition sits in a later epoch of the
    // last level; every thread count must report the 1-thread verdict,
    // stop at the same transition and return the same shortest trace.
    auto mod = compilePaper("stack", "toplevel");
    verify::ExplorerOptions opts;
    opts.maxDepth = kEpochDepth;
    auto full = mod->makeExplorer(opts);
    const verify::ExploreResult fr = full->run();
    const std::uint8_t* last = full->stateStore().at(
        static_cast<std::uint32_t>(fr.stats.states) - 1);
    const std::vector<std::uint8_t> target(last, last + full->packedSize());
    // Packed record = [control state : i32][instance-layout data], so
    // the target is identified by its control state plus every variable
    // and valued-signal slot.
    const ModuleSema& sema = mod->moduleSema();
    const rt::InstanceLayout layout = rt::computeInstanceLayout(sema);
    std::int32_t targetControl = 0;
    std::memcpy(&targetControl, target.data(), 4);
    const std::uint8_t* targetData = target.data() + 4;
    const verify::Predicate isTarget = [&](const verify::StateView& v) {
        if (v.controlState() != targetControl) return false;
        for (const VarInfo& var : sema.vars) {
            const Value x = v.varValue(var.index);
            if (std::memcmp(x.data(),
                            targetData + layout.varOffsets[static_cast<
                                             std::size_t>(var.index)],
                            x.size()) != 0)
                return false;
        }
        for (const SignalInfo& sig : sema.signals) {
            if (sig.pure) continue;
            const Value x = v.signalValue(sig.index);
            if (std::memcmp(x.data(),
                            targetData + layout.sigOffsets[static_cast<
                                             std::size_t>(sig.index)],
                            x.size()) != 0)
                return false;
        }
        return true;
    };

    // Epochs that complete every level before the last one (1 thread).
    const verify::ExploreResult before =
        runToplevel(*mod, 1, kEpochDepth - 1, 1u << 20, nullptr);

    verify::ExploreResult ref;
    std::uint64_t refDigest = 0;
    for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(threads);
        std::uint64_t digest = 0;
        verify::ExploreResult res = runToplevel(
            *mod, threads, kEpochDepth, 1u << 20, &digest, isTarget);
        ASSERT_TRUE(res.violated);
        EXPECT_EQ(res.violation.kind, verify::Violation::Kind::Predicate);
        EXPECT_EQ(res.violation.state, target);
        EXPECT_EQ(res.violation.depth, kEpochDepth);
        if (threads == 1) {
            // Not the last level's first epoch.
            EXPECT_GE(res.stats.epochs, before.stats.epochs + 2);
            ref = res;
            refDigest = digest;
            continue;
        }
        EXPECT_EQ(res.stats.states, ref.stats.states);
        EXPECT_EQ(res.stats.transitions, ref.stats.transitions);
        EXPECT_EQ(digest, refDigest);
        expectLettersEqual(traceLetters(res.trace), traceLetters(ref.trace));
    }
    // And the trace really reaches the target on the production engine.
    auto eng = mod->makeSyncEngine();
    for (const verify::TraceStep& step : ref.trace) {
        for (const verify::InputEvent& ev : step.inputs) {
            if (ev.value.empty())
                eng->setInput(ev.signal);
            else
                eng->setInputValue(ev.signal, ev.value);
        }
        eng->react();
    }
    EXPECT_EQ(eng->packState(), target);
}

// ---------------------------------------------------------------------------
// Explorer states vs batch-engine arena compatibility
// ---------------------------------------------------------------------------

TEST(VerifyLayout, PackedStatesAreArenaCompatible)
{
    // The explorer's per-module data bytes use rt::InstanceLayout — the
    // exact layout a BatchEngine instance slice uses. Drive one batch
    // instance and one explorer-domain walk to the same instant stream
    // and compare the encoded SyncEngine state against the explored set
    // (already covered) AND the batch arena stride contract.
    auto mod = compileSrc(kAccSrc);
    const rt::InstanceLayout layout =
        rt::computeInstanceLayout(mod->moduleSema());
    auto batch = mod->makeBatchEngine(1);
    EXPECT_EQ(batch->bytesPerInstance(), layout.stride);
    EXPECT_LE(layout.dataBytes, layout.stride);
    // packedSize = 4-byte control header + dataBytes (no monitor).
    verify::ExplorerOptions opts;
    opts.maxDepth = 2;
    auto ex2 = mod->makeExplorer(opts);
    (void)ex2->run();
    EXPECT_EQ(ex2->packedSize(), 4 + layout.dataBytes);
}

// ---------------------------------------------------------------------------
// Optimization-level regression: the minimized machine (-O2) must explore
// no more states than the verbatim tables (-O0) with identical verdicts,
// and counterexamples found on the minimized machine must replay on
// engines at EITHER level (the unoptimized SyncEngine included).
// ---------------------------------------------------------------------------

std::shared_ptr<CompiledModule> compilePaperAt(const char* source,
                                               const char* module,
                                               int optLevel)
{
    Compiler compiler(std::string(source) == std::string("stack")
                          ? paper::protocolStackSource()
                          : paper::audioBufferSource());
    CompileOptions copts;
    copts.optLevel = optLevel;
    return compiler.compile(module, copts);
}

std::shared_ptr<CompiledModule> compileSrcAt(const std::string& src,
                                             int optLevel)
{
    Compiler compiler(src);
    CompileOptions copts;
    copts.optLevel = optLevel;
    return compiler.compile(compiler.moduleNames().back(), copts);
}

class VerifyOptLevelTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(VerifyOptLevelTest, MinimizedMachineExploresNoMoreStates)
{
    const PaperCase& pc = GetParam();
    auto o0 = compilePaperAt(pc.source, pc.module, 0);
    auto o2 = compilePaperAt(pc.source, pc.module, 2);

    verify::ExplorerOptions opts;
    opts.maxDepth = pc.depth;
    opts.maxStates = 200000;
    auto ex0 = o0->makeExplorer(opts);
    auto ex2 = o2->makeExplorer(opts);
    verify::ExploreResult r0 = ex0->run();
    verify::ExploreResult r2 = ex2->run();

    EXPECT_LE(r2.stats.controlStates, r0.stats.controlStates);
    EXPECT_LE(r2.stats.states, r0.stats.states);
    EXPECT_EQ(r2.violated, r0.violated);
    EXPECT_EQ(r2.stats.complete, r0.stats.complete);
    EXPECT_EQ(r2.stats.depthReached, r0.stats.depthReached);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModules, VerifyOptLevelTest,
    ::testing::Values(PaperCase{"stack", "assemble", 6},
                      PaperCase{"stack", "checkcrc", 6},
                      PaperCase{"stack", "prochdr", 6},
                      PaperCase{"stack", "toplevel", 6},
                      PaperCase{"buffer", "producer", 8},
                      PaperCase{"buffer", "playback", 8},
                      PaperCase{"buffer", "blinker", 8},
                      PaperCase{"buffer", "buffer_top", 16}));

TEST(VerifyOptLevel, DesignViolationVerdictAndReplayAcrossLevels)
{
    auto o0 = compileSrcAt(kOverflowSrc, 0);
    auto o2 = compileSrcAt(kOverflowSrc, 2);
    auto ex0 = o0->makeExplorer({});
    auto ex2 = o2->makeExplorer({});
    verify::ExploreResult r0 = ex0->run();
    verify::ExploreResult r2 = ex2->run();

    ASSERT_TRUE(r0.violated);
    ASSERT_TRUE(r2.violated);
    EXPECT_EQ(r2.violation.kind, r0.violation.kind);
    EXPECT_EQ(r2.violation.what, r0.violation.what);
    // BFS minimal depth is a property of the behavior, which
    // minimization preserves exactly.
    EXPECT_EQ(r2.violation.depth, r0.violation.depth);
    EXPECT_LE(r2.stats.states, r0.stats.states);

    // Bit-exact replay on the engine of the level that found it.
    auto e2 = o2->makeSyncEngine();
    verify::ReplayOutcome rp =
        verify::replayCounterexample(*e2, nullptr, r2);
    EXPECT_TRUE(rp.reproduced) << rp.detail;

    // The -O2 counterexample must also reproduce the violating emission
    // on the UNOPTIMIZED engine (state ids differ after minimization, so
    // the packed-state comparison does not apply — the emission does).
    auto cross = [](CompiledModule& mod, const verify::ExploreResult& res) {
        auto eng = mod.makeSyncEngine();
        for (const verify::TraceStep& step : res.trace) {
            for (const verify::InputEvent& ev : step.inputs) {
                if (ev.value.empty())
                    eng->setInput(ev.signal);
                else
                    eng->setInputValue(ev.signal, ev.value);
            }
            eng->react();
        }
        return eng->outputPresent(res.violation.signal);
    };
    EXPECT_TRUE(cross(*o0, r2)) << "O2 trace must violate on the O0 engine";
    EXPECT_TRUE(cross(*o2, r0)) << "O0 trace must violate on the O2 engine";
}

TEST(VerifyOptLevel, MonitorViolationReplaysOnUnoptimizedEngines)
{
    auto design2 = compilePaperAt("buffer", "buffer_top", 2);
    auto monitor2 = compileSrcAt(kSpeakerMonitorSrc, 2);
    auto ex = design2->makeExplorer({});
    monitor2->attachAsMonitor(*ex);
    verify::ExploreResult res = ex->run();
    ASSERT_TRUE(res.violated);

    // Feed the trace found on the minimized machine to -O0 engines of
    // both modules, wiring the monitor by name exactly as the explorer
    // does; the monitor must emit its violation in the final instant.
    auto design0 = compilePaperAt("buffer", "buffer_top", 0);
    auto monitor0 = compileSrcAt(kSpeakerMonitorSrc, 0);
    auto dEng = design0->makeSyncEngine();
    auto mEng = monitor0->makeSyncEngine();
    const std::vector<verify::MonitorWire> wires =
        verify::wireMonitor(dEng->moduleSema(), mEng->moduleSema());
    for (const verify::TraceStep& step : res.trace) {
        for (const verify::InputEvent& ev : step.inputs) {
            if (ev.value.empty())
                dEng->setInput(ev.signal);
            else
                dEng->setInputValue(ev.signal, ev.value);
        }
        dEng->react();
        for (const verify::MonitorWire& w : wires) {
            if (!dEng->outputPresent(w.designSig)) continue;
            if (w.valued)
                mEng->setInputScalar(
                    w.monitorSig, dEng->outputValue(w.designSig).toInt());
            else
                mEng->setInput(w.monitorSig);
        }
        mEng->react();
    }
    EXPECT_TRUE(mEng->outputPresent(res.violation.signal));
}

// ---------------------------------------------------------------------------
// Store-kind determinism: every store kind must reproduce the exact
// store's canonical state counts and interning digest, at any thread
// count, over all 8 paper modules. (Bitstate equality is a property of
// the pinned inputs — no collision occurs at the default table size —
// and is deterministic, so pinning it here means a digest change is a
// real behavior change, not noise.)
// ---------------------------------------------------------------------------

class VerifyStoreDeterminismTest
    : public ::testing::TestWithParam<
          std::tuple<PaperCase, verify::StoreKind>> {};

TEST_P(VerifyStoreDeterminismTest, KindAndThreadCountAgree)
{
    const PaperCase& pc = std::get<0>(GetParam());
    const verify::StoreKind kind = std::get<1>(GetParam());
    auto mod = compilePaper(pc.source, pc.module);

    // Canonical reference: the exact store at 1 thread.
    std::uint64_t refStates = 0, refTransitions = 0, refDigest = 0;
    if (kind != verify::StoreKind::Exact) {
        verify::ExplorerOptions ref;
        ref.maxDepth = pc.depth;
        ref.maxStates = 200000;
        auto exRef = mod->makeExplorer(ref);
        verify::ExploreResult r = exRef->run();
        refStates = r.stats.states;
        refTransitions = r.stats.transitions;
        refDigest = exRef->stateDigest();
    }

    verify::ExploreStats first;
    std::uint64_t firstDigest = 0;
    for (int threads : {1, 4}) {
        verify::ExplorerOptions opts;
        opts.threads = threads;
        opts.maxDepth = pc.depth;
        opts.maxStates = 200000;
        opts.storeKind = kind;
        auto ex = mod->makeExplorer(opts);
        verify::ExploreResult res = ex->run();
        EXPECT_FALSE(res.violated);
        EXPECT_EQ(res.stats.storeKind, kind);
        EXPECT_EQ(res.stats.lossyStore,
                  kind == verify::StoreKind::Bitstate);
        EXPECT_GT(res.stats.storeMemoryBytes, 0u);
        if (threads == 1) {
            first = res.stats;
            firstDigest = ex->stateDigest();
            if (kind != verify::StoreKind::Exact) {
                EXPECT_EQ(res.stats.states, refStates);
                EXPECT_EQ(res.stats.transitions, refTransitions);
                EXPECT_EQ(ex->stateDigest(), refDigest);
            }
        } else {
            EXPECT_EQ(res.stats.states, first.states);
            EXPECT_EQ(res.stats.transitions, first.transitions);
            EXPECT_EQ(res.stats.peakFrontier, first.peakFrontier);
            EXPECT_EQ(res.stats.depthReached, first.depthReached);
            EXPECT_EQ(res.stats.complete, first.complete);
            EXPECT_EQ(ex->stateDigest(), firstDigest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperModulesAllKinds, VerifyStoreDeterminismTest,
    ::testing::Combine(
        ::testing::Values(PaperCase{"stack", "assemble", 8},
                          PaperCase{"stack", "checkcrc", 8},
                          PaperCase{"stack", "prochdr", 8},
                          PaperCase{"stack", "toplevel", 8},
                          PaperCase{"buffer", "producer", 8},
                          PaperCase{"buffer", "playback", 8},
                          PaperCase{"buffer", "blinker", 8},
                          PaperCase{"buffer", "buffer_top", 20}),
        ::testing::Values(verify::StoreKind::Exact,
                          verify::StoreKind::Compressed,
                          verify::StoreKind::Bitstate)));

// ---------------------------------------------------------------------------
// Partial-order reduction differentials vs the unreduced explorer
// ---------------------------------------------------------------------------

// Finite pure-par module: three arms awaiting private pure inputs with
// pure emissions — the shape whose composite input letters commute with
// their singleton chains.
const char* kFinitePureParSrc =
    "module m (input pure a, input pure b, input pure c,"
    " output pure oa, output pure ob, output pure oc) {"
    " while (1) {"
    "  par {"
    "    { await (a); emit (oa); }"
    "    { await (b); emit (ob); }"
    "    { await (c); emit (oc); }"
    "  }"
    "  await ();"
    " } }";

TEST(VerifyPor, FinitePureParStateSetMatchesUnreduced)
{
    auto mod = compileSrc(kFinitePureParSrc);
    auto base = mod->makeExplorer({});
    verify::ExploreResult rb = base->run();
    ASSERT_TRUE(rb.stats.complete);
    EXPECT_FALSE(rb.violated);

    verify::ExplorerOptions opts;
    opts.partialOrder = true;
    auto red = mod->makeExplorer(opts);
    verify::ExploreResult rr = red->run();
    ASSERT_TRUE(rr.stats.complete);
    EXPECT_FALSE(rr.violated);

    // The reduction must actually fire on this shape, skip work, and —
    // because every dropped composite letter commutes with a kept
    // singleton chain — still reach the IDENTICAL reachable set once
    // both runs complete (interning order differs; compare sets).
    EXPECT_GT(rr.stats.lettersReduced, 0u);
    EXPECT_LT(rr.stats.transitions, rb.stats.transitions);
    EXPECT_EQ(explorerStates(*red), explorerStates(*base));

    // The reduced explorer keeps thread-count determinism.
    opts.threads = 4;
    auto red4 = mod->makeExplorer(opts);
    verify::ExploreResult rr4 = red4->run();
    EXPECT_EQ(rr4.stats.states, rr.stats.states);
    EXPECT_EQ(rr4.stats.transitions, rr.stats.transitions);
    EXPECT_EQ(red4->stateDigest(), red->stateDigest());
}

TEST(VerifyPor, CorpusScenariosAgreeWithUnreduced)
{
    std::vector<corpus::Scenario> set =
        corpus::loadCorpusDir(ECL_CORPUS_DIR);
    ASSERT_GE(set.size(), 24u);
    int compared = 0;
    for (const corpus::Scenario& s : set) {
        std::shared_ptr<CompiledModule> mod;
        try {
            mod = corpus::compileScenario(s, 2);
        } catch (const EclError&) {
            continue;
        }
        if (!mod->hasFlatProgram()) continue;

        verify::ExplorerOptions opts;
        opts.maxDepth = 3;
        opts.maxStates = 4000;
        verify::ExploreResult base = mod->makeExplorer(opts)->run();
        opts.partialOrder = true;
        verify::ExploreResult red = mod->makeExplorer(opts)->run();

        // Reduction only ever skips work.
        EXPECT_LE(red.stats.states, base.stats.states) << s.name;
        EXPECT_LE(red.stats.transitions, base.stats.transitions) << s.name;
        // Every reduced behavior is an unreduced behavior: a reduced
        // violation must exist in the unreduced run too, and replay
        // bit-exactly on the production engine.
        if (red.violated) {
            EXPECT_TRUE(base.violated) << s.name;
            auto eng = mod->makeSyncEngine();
            verify::ReplayOutcome rp =
                verify::replayCounterexample(*eng, nullptr, red);
            EXPECT_TRUE(rp.reproduced) << s.name << ": " << rp.detail;
        }
        if (base.violated) {
            auto eng = mod->makeSyncEngine();
            verify::ReplayOutcome rp =
                verify::replayCounterexample(*eng, nullptr, base);
            EXPECT_TRUE(rp.reproduced) << s.name << ": " << rp.detail;
            // A complete reduced run covers every reachable behavior up
            // to commutation, so it cannot miss the verdict.
            if (red.stats.complete) {
                EXPECT_TRUE(red.violated) << s.name;
            }
        }
        if (base.stats.complete && red.stats.complete) {
            EXPECT_EQ(red.violated, base.violated) << s.name;
        }
        ++compared;
    }
    EXPECT_GE(compared, 24);
}

TEST(VerifyPor, GeneratedProgramsVerdictDifferential)
{
    // 200 generator programs (first compiling seeds from 1 up), each
    // explored with reduction off and on under identical bounds.
    int tested = 0;
    for (unsigned seed = 1; tested < 200 && seed < 4000; ++seed) {
        corpus::ProgramGen gen(seed, 3);
        std::shared_ptr<CompiledModule> mod;
        try {
            mod = compileSrc(gen.generate());
        } catch (const EclError&) {
            continue; // causality-rejected seed
        }
        if (!mod->hasFlatProgram()) continue;

        verify::ExplorerOptions opts;
        opts.maxDepth = 3;
        opts.maxStates = 1500;
        verify::ExploreResult base = mod->makeExplorer(opts)->run();
        opts.partialOrder = true;
        verify::ExploreResult red = mod->makeExplorer(opts)->run();

        EXPECT_LE(red.stats.states, base.stats.states) << "seed " << seed;
        EXPECT_LE(red.stats.transitions, base.stats.transitions)
            << "seed " << seed;
        if (red.violated) {
            EXPECT_TRUE(base.violated) << "seed " << seed;
            auto eng = mod->makeSyncEngine();
            verify::ReplayOutcome rp =
                verify::replayCounterexample(*eng, nullptr, red);
            EXPECT_TRUE(rp.reproduced)
                << "seed " << seed << ": " << rp.detail;
        }
        if (base.violated && red.stats.complete) {
            EXPECT_TRUE(red.violated) << "seed " << seed;
        }
        if (base.stats.complete && red.stats.complete) {
            EXPECT_EQ(red.violated, base.violated) << "seed " << seed;
        }
        ++tested;
    }
    EXPECT_EQ(tested, 200);
}

TEST(VerifyPor, PureParCorpusScenarioReducesAtLeast3x)
{
    // The acceptance bar: on the committed wide-par corpus scenario the
    // reduced run explores at least 3x fewer states than the unreduced
    // one under the same bounds, with the same (clean) verdict. The
    // exact counts are pinned — they are as deterministic as the corpus
    // digests themselves.
    std::vector<corpus::Scenario> set =
        corpus::loadCorpusDir(ECL_CORPUS_DIR);
    const corpus::Scenario* par = nullptr;
    for (const corpus::Scenario& s : set)
        if (s.name == "par_pure10") par = &s;
    ASSERT_NE(par, nullptr) << "par_pure10.scn missing from the corpus";
    auto mod = corpus::compileScenario(*par, 2);

    verify::ExplorerOptions opts;
    opts.maxDepth = 3;
    verify::ExploreResult base = mod->makeExplorer(opts)->run();
    opts.partialOrder = true;
    verify::ExploreResult red = mod->makeExplorer(opts)->run();

    EXPECT_FALSE(base.violated);
    EXPECT_FALSE(red.violated);
    EXPECT_EQ(base.stats.states, 1026u);
    EXPECT_EQ(red.stats.states, 59u);
    EXPECT_GT(red.stats.lettersReduced, 0u);
    EXPECT_GE(base.stats.states, 3 * red.stats.states);
}

// ---------------------------------------------------------------------------
// Native successor computation vs the VM
// ---------------------------------------------------------------------------

class VerifyNativeSuccTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(VerifyNativeSuccTest, StateSetMatchesVm)
{
    const PaperCase& pc = GetParam();
    auto mod = compilePaper(pc.source, pc.module);

    verify::ExplorerOptions opts;
    opts.maxDepth = pc.depth;
    opts.maxStates = 200000;
    auto vmEx = mod->makeExplorer(opts);
    verify::ExploreResult rv = vmEx->run();

    opts.nativeSuccessors = true;
    auto natEx = mod->makeExplorer(opts);
    verify::ExploreResult rn = natEx->run();
    if (!rn.stats.usedNativeSuccessors)
        GTEST_SKIP() << "no host C compiler; native successors fell back "
                        "to the VM";

    // Bit-exact agreement: same states in the same canonical order.
    EXPECT_EQ(rn.stats.states, rv.stats.states);
    EXPECT_EQ(rn.stats.transitions, rv.stats.transitions);
    EXPECT_EQ(rn.stats.complete, rv.stats.complete);
    EXPECT_EQ(natEx->stateDigest(), vmEx->stateDigest());
    EXPECT_EQ(rn.violated, rv.violated);
}

INSTANTIATE_TEST_SUITE_P(
    PaperModules, VerifyNativeSuccTest,
    ::testing::Values(PaperCase{"stack", "assemble", 8},
                      PaperCase{"stack", "toplevel", 8},
                      PaperCase{"buffer", "producer", 8},
                      PaperCase{"buffer", "buffer_top", 12}));

TEST(VerifyNativeSucc, ValuedModuleAgreesAndFallbackIsHonest)
{
    auto mod = compileSrc(kAccSrc);
    verify::ExplorerOptions opts;
    opts.maxDepth = 5;
    auto vmEx = mod->makeExplorer(opts);
    verify::ExploreResult rv = vmEx->run();
    EXPECT_FALSE(rv.stats.usedNativeSuccessors); // not requested

    opts.nativeSuccessors = true;
    auto natEx = mod->makeExplorer(opts);
    verify::ExploreResult rn = natEx->run();
    if (!rn.stats.usedNativeSuccessors)
        GTEST_SKIP() << "no host C compiler; native successors fell back "
                        "to the VM";
    EXPECT_EQ(rn.stats.states, rv.stats.states);
    EXPECT_EQ(natEx->stateDigest(), vmEx->stateDigest());
}

// ---------------------------------------------------------------------------
// Bitstate coverage in a fixed memory budget
// ---------------------------------------------------------------------------

TEST(VerifyStoreScaling, BitstateCoversTenTimesMoreStatesInBudget)
{
    // A generated deep-preemption program whose counter makes the data
    // state space effectively unbounded. The exact store stops when its
    // arena + index exceed the budget; the bitstate table — a few BITS
    // per state in the same budget — must cover >= 10x more states.
    auto mod = compileSrc(corpus::deepPreemptProgram(8));
    const std::uint64_t kBudget = 64 * 1024;

    verify::ExplorerOptions opts;
    opts.storeBudgetBytes = kBudget;
    verify::ExploreResult exact = mod->makeExplorer(opts)->run();
    ASSERT_FALSE(exact.stats.complete); // the budget is what stopped it
    ASSERT_GT(exact.stats.states, 0u);
    EXPECT_FALSE(exact.violated);

    verify::ExplorerOptions bopts;
    bopts.storeKind = verify::StoreKind::Bitstate;
    bopts.storeBudgetBytes = kBudget;
    bopts.maxStates =
        static_cast<std::uint32_t>(30 * exact.stats.states);
    verify::ExploreResult bit = mod->makeExplorer(bopts)->run();
    EXPECT_TRUE(bit.stats.lossyStore);
    EXPECT_LE(bit.stats.storeMemoryBytes, kBudget);
    EXPECT_FALSE(bit.violated);
    EXPECT_GE(bit.stats.states, 10 * exact.stats.states);
}

} // namespace
