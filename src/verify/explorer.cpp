#include "src/verify/explorer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "src/runtime/native_module.h"

namespace ecl::verify {

namespace {

void writeI32(std::uint8_t* p, std::int32_t v) { std::memcpy(p, &v, 4); }

std::int32_t readI32(const std::uint8_t* p)
{
    std::int32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string lowercase(const std::string& s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// StateView
// ---------------------------------------------------------------------------

std::int64_t StateView::var(const std::string& name) const
{
    const VarInfo* v = sema_->findVar(name);
    if (!v) throw EclError("StateView: no variable named '" + name + "'");
    return var(v->index);
}

std::int64_t StateView::signal(int idx) const
{
    return signalValue(idx).toInt();
}

Value StateView::signalValue(int idx) const
{
    const SignalInfo& s = sema_->signals[static_cast<std::size_t>(idx)];
    if (s.pure)
        throw EclError("StateView: value read on pure signal '" + s.name +
                       "'");
    return Value::fromBytes(
        s.valueType,
        data_ + layout_->sigOffsets[static_cast<std::size_t>(idx)]);
}

// ---------------------------------------------------------------------------
// Monitor wiring
// ---------------------------------------------------------------------------

std::vector<MonitorWire> wireMonitor(const ModuleSema& design,
                                     const ModuleSema& monitor)
{
    std::vector<MonitorWire> wires;
    for (const SignalInfo& m : monitor.signals) {
        if (m.dir != SignalDir::Input) continue;
        const SignalInfo* d = design.findSignal(m.name);
        if (!d)
            throw EclError("monitor input '" + m.name +
                           "' matches no design signal");
        MonitorWire w;
        w.monitorSig = m.index;
        w.designSig = d->index;
        if (!m.pure) {
            if (d->pure)
                throw EclError("monitor input '" + m.name +
                               "' is valued but design signal '" + d->name +
                               "' is pure");
            // Cross-compiler types: scalars normalize through int64,
            // aggregates transfer raw bytes — sizes must agree.
            if (!m.valueType->isScalar() &&
                m.valueType->size() != d->valueType->size())
                throw EclError(
                    "monitor input '" + m.name + "' value size (" +
                    std::to_string(m.valueType->size()) +
                    ") differs from design signal's (" +
                    std::to_string(d->valueType->size()) + ")");
            w.valued = true;
        }
        wires.push_back(w);
    }
    if (wires.empty())
        throw EclError("monitor module has no input signals to wire");
    return wires;
}

// ---------------------------------------------------------------------------
// Worker scratch
// ---------------------------------------------------------------------------

Explorer::ModuleCtx::ModuleCtx(const efsm::FlatProgram& flat,
                               std::shared_ptr<const bc::Program> code,
                               const ModuleSema& sema,
                               const rt::InstanceLayout& layout)
    : slice(layout.stride, 0), present(sema.signals.size(), 0),
      kernel(flat, std::move(code), sema, layout, slice.data())
{
}

int Explorer::ModuleCtx::react(int state)
{
    return kernel.react(slice.data(), present.data(), state, nullptr);
}

Explorer::Worker::Worker(const Explorer& ex)
    : design(ex.flat_, ex.code_, ex.sema_, ex.layout_)
{
    if (ex.monSema_)
        monitor.emplace(*ex.monFlat_, ex.monCode_, *ex.monSema_,
                        ex.monLayout_);
    if (ex.native_) native = std::make_unique<rt::NativeKernel>(*ex.native_);
}

void Explorer::Worker::clearSuccessors()
{
    // clear() keeps the capacity: the buffers are sized once and reused.
    packed.clear();
    hashes.clear();
    succs.clear();
    traps.clear();
    fatal = nullptr;
}

// ---------------------------------------------------------------------------
// Explorer: setup
// ---------------------------------------------------------------------------

Explorer::Explorer(const efsm::FlatProgram& flat,
                   std::shared_ptr<const bc::Program> code,
                   const ModuleSema& sema, ExplorerOptions options)
    : flat_(flat), code_(std::move(code)), sema_(sema),
      layout_(rt::computeInstanceLayout(sema)), options_(std::move(options))
{
    if (!code_)
        throw EclError("Explorer requires the compiled bytecode program");
    if (options_.maxStates == 0 || options_.maxLettersPerState == 0)
        throw EclError("Explorer: maxStates and maxLettersPerState must be "
                       "non-zero");
}

void Explorer::attachMonitor(const efsm::FlatProgram& flat,
                             std::shared_ptr<const bc::Program> code,
                             const ModuleSema& sema,
                             std::shared_ptr<const void> owner)
{
    if (ran_) throw EclError("attachMonitor after run()");
    if (monSema_) throw EclError("only one monitor is supported");
    if (!code)
        throw EclError("monitor module has no compiled bytecode program");
    wires_ = wireMonitor(sema_, sema);
    monFlat_ = &flat;
    monCode_ = std::move(code);
    monSema_ = &sema;
    monLayout_ = rt::computeInstanceLayout(sema);
    if (owner) owners_.push_back(std::move(owner));
}

void Explorer::attachNative(std::shared_ptr<const rt::NativeModule> native)
{
    if (ran_) throw EclError("attachNative after run()");
    if (!native) throw EclError("attachNative: null native module");
    // Same gate as every other native entry point: a module generated
    // from different flat tables must not run over these arenas.
    rt::validateNativeShape(native->info(), sema_, flat_, layout_);
    native_ = std::move(native);
}

void Explorer::addPredicate(std::string name, Predicate fn)
{
    if (ran_) throw EclError("addPredicate after run()");
    if (!fn) throw EclError("addPredicate: empty predicate");
    predicates_.emplace_back(std::move(name), std::move(fn));
}

void Explorer::buildAlphabet()
{
    // Value domains per valued input: configured scalars, the zero value
    // for aggregates (finite-alphabet requirement).
    domains_.assign(sema_.signals.size(), {});
    for (const SignalInfo& sig : sema_.signals) {
        if (sig.dir != SignalDir::Input || sig.pure) continue;
        std::vector<Value>& dom =
            domains_[static_cast<std::size_t>(sig.index)];
        if (!sig.valueType->isScalar()) {
            dom.emplace_back(sig.valueType); // zeroed aggregate
            continue;
        }
        auto it = options_.scalarDomains.find(sig.name);
        const std::vector<std::int64_t>& vals =
            it != options_.scalarDomains.end() ? it->second
                                               : options_.scalarDomain;
        if (vals.empty())
            throw EclError("empty value domain for input '" + sig.name + "'");
        dom.reserve(vals.size());
        for (std::int64_t v : vals)
            dom.push_back(Value::fromInt(sig.valueType, v));
    }

    // Pure design inputs the monitor observes must never be pruned: the
    // design's decision tree may ignore them, but the monitor's awaits
    // do not.
    std::vector<std::uint8_t> monitorWired(sema_.signals.size(), 0);
    for (const MonitorWire& w : wires_)
        monitorWired[static_cast<std::size_t>(w.designSig)] = 1;

    // Canonical letter list per design control state: mixed-radix
    // enumeration over the state's relevant inputs, lowest signal index
    // least significant, digit 0 = absent. Letter 0 is always the empty
    // instant.
    alphabet_.assign(flat_.states.size(), {});
    std::vector<std::uint8_t> tested(sema_.signals.size(), 0);
    std::vector<std::int32_t> stack;
    for (std::size_t st = 0; st < flat_.states.size(); ++st) {
        std::fill(tested.begin(), tested.end(), 0);
        if (options_.pruneInputs) {
            stack.clear();
            if (flat_.states[st].root >= 0)
                stack.push_back(flat_.states[st].root);
            while (!stack.empty()) {
                const efsm::FlatNode& n =
                    flat_.nodes[static_cast<std::size_t>(stack.back())];
                stack.pop_back();
                if (n.isLeaf()) continue;
                if (n.testSignal >= 0)
                    tested[static_cast<std::size_t>(n.testSignal)] = 1;
                stack.push_back(n.onTrue);
                stack.push_back(n.onFalse);
            }
        }

        std::vector<int> rel;
        std::vector<std::uint64_t> radix;
        std::uint64_t total = 1;
        bool overflow = false;
        for (const SignalInfo& sig : sema_.signals) {
            if (sig.dir != SignalDir::Input) continue;
            // Dirty-set pruning: an untested pure input cannot influence
            // this state's reaction — unless the monitor observes it.
            // Valued inputs always can (their value write persists in
            // the state bytes).
            if (options_.pruneInputs && sig.pure &&
                !tested[static_cast<std::size_t>(sig.index)] &&
                !monitorWired[static_cast<std::size_t>(sig.index)])
                continue;
            rel.push_back(sig.index);
            std::uint64_t r =
                sig.pure
                    ? 2
                    : 1 + domains_[static_cast<std::size_t>(sig.index)].size();
            radix.push_back(r);
            if (total > std::numeric_limits<std::uint64_t>::max() / r)
                overflow = true;
            else
                total *= r;
        }

        std::uint64_t count = total;
        StateAlphabet& sa = alphabet_[st];
        if (overflow || count > options_.maxLettersPerState) {
            count = options_.maxLettersPerState;
            sa.truncated = true;
        }
        sa.letters.reserve(static_cast<std::size_t>(count));
        std::vector<std::uint32_t> digits(rel.size(), 0);
        for (std::uint64_t code = 0; code < count; ++code) {
            Letter letter;
            for (std::size_t k = 0; k < rel.size(); ++k) {
                if (digits[k] == 0) continue;
                const SignalInfo& sig =
                    sema_.signals[static_cast<std::size_t>(rel[k])];
                letter.sets.emplace_back(
                    rel[k],
                    sig.pure ? -1 : static_cast<std::int32_t>(digits[k] - 1));
            }
            sa.kept.push_back(static_cast<std::uint32_t>(sa.letters.size()));
            sa.letters.push_back(std::move(letter));
            for (std::size_t k = 0; k < rel.size(); ++k) {
                if (++digits[k] < radix[k]) break;
                digits[k] = 0;
            }
        }
    }
}

void Explorer::resolveChecks()
{
    checks_.clear();
    const ModuleSema& checked = monSema_ ? *monSema_ : sema_;
    const Violation::Kind kind = monSema_ ? Violation::Kind::MonitorSignal
                                          : Violation::Kind::DesignSignal;
    if (!options_.violationSignals.empty()) {
        for (const std::string& name : options_.violationSignals) {
            const SignalInfo* s = checked.findSignal(name);
            if (!s)
                throw EclError("violation signal '" + name +
                               "' not found in the " +
                               (monSema_ ? "monitor" : "design") +
                               std::string(" module"));
            checks_.push_back({kind, s->index, 0, s->name});
        }
    } else {
        for (const SignalInfo& s : checked.signals) {
            if (s.dir == SignalDir::Input) continue;
            if (lowercase(s.name).find("violation") == std::string::npos)
                continue;
            checks_.push_back({kind, s.index, 0, s.name});
        }
    }
    if (monSema_ && checks_.empty() && predicates_.empty())
        throw EclError(
            "monitor flags nothing: no signal named *violation* and no "
            "registered predicate (name one in "
            "ExplorerOptions::violationSignals)");
    for (std::size_t i = 0; i < predicates_.size(); ++i)
        checks_.push_back(
            {Violation::Kind::Predicate, -1, i, predicates_[i].first});
}

// ---------------------------------------------------------------------------
// Explorer: partial-order reduction
// ---------------------------------------------------------------------------

bool Explorer::isCommutativeChunk(std::int32_t chunk) const
{
    // Accepts exactly the shapes a state-independent constant increment
    // of one scalar variable compiles to — at -O0 (discrete
    // AddrVar/Binary sequences) and after the -O2 peephole pass (fused
    // superinstructions). Scalar adds wrap through normalizeScalar /
    // writeScalar truncation (never trap), so any multiset of such
    // updates produces the same slot bytes in any execution order —
    // the property the POR chain decomposition relies on.
    const bc::Chunk& ck = code_->chunks[static_cast<std::size_t>(chunk)];
    if (ck.isExpr) return false;
    const bc::Instr* ins = code_->code.data() + ck.begin;
    const std::size_t n = ck.end - ck.begin;
    auto isAddSub = [](std::int32_t imm) {
        const auto op = static_cast<ast::BinaryOp>(imm);
        return op == ast::BinaryOp::Add || op == ast::BinaryOp::Sub;
    };
    auto isAssignAddSub = [](std::int32_t imm) {
        const auto op = static_cast<ast::AssignOp>(imm);
        return op == ast::AssignOp::Add || op == ast::AssignOp::Sub;
    };
    switch (n) {
    case 2:
        // x++ / x-- fused: [IncDecVar][End] (imm = UnaryOp, always ±1).
        return ins[0].op == bc::Op::IncDecVar && ins[1].op == bc::Op::End;
    case 3:
        // x++ / x--: [AddrVar][IncDec][End].
        return ins[0].op == bc::Op::AddrVar && ins[1].op == bc::Op::IncDec &&
               ins[1].b == ins[0].a && ins[2].op == bc::Op::End;
    case 4:
        // x = x + k fused: [LoadVarSc][BinaryImm][StoreVarSc same slot].
        if (ins[0].op == bc::Op::LoadVarSc &&
            ins[1].op == bc::Op::BinaryImm && ins[1].b == ins[0].a &&
            isAddSub(ins[1].imm) && ins[2].op == bc::Op::StoreVarSc &&
            ins[2].c == ins[1].a && ins[2].imm == ins[0].imm &&
            ins[3].op == bc::Op::End)
            return true;
        // x += k: [AddrVar][ConstInt][StoreCompound][End].
        if (ins[0].op == bc::Op::AddrVar && ins[1].op == bc::Op::ConstInt &&
            ins[2].op == bc::Op::StoreCompound && ins[2].b == ins[0].a &&
            ins[2].c == ins[1].a && isAssignAddSub(ins[2].imm) &&
            ins[3].op == bc::Op::End)
            return true;
        return false;
    case 5:
        // x = x + k / x = k + x / x = x - k:
        // [LoadVarSc][ConstInt][Binary][StoreVarSc same slot][End].
        if (!(ins[0].op == bc::Op::LoadVarSc &&
              ins[1].op == bc::Op::ConstInt && ins[2].op == bc::Op::Binary &&
              isAddSub(ins[2].imm) && ins[3].op == bc::Op::StoreVarSc &&
              ins[3].c == ins[2].a && ins[3].imm == ins[0].imm &&
              ins[4].op == bc::Op::End))
            return false;
        if (ins[2].b == ins[0].a && ins[2].c == ins[1].a) return true;
        // k + x commutes too; k - x does not.
        return ins[2].b == ins[1].a && ins[2].c == ins[0].a &&
               static_cast<ast::BinaryOp>(ins[2].imm) == ast::BinaryOp::Add;
    default:
        return false;
    }
}

bool Explorer::simPure(int state, std::vector<std::uint8_t>& present,
                       SimResult& out) const
{
    // Presence-only twin of the VM kernel: walks the decision tree with
    // the given input presence (emissions feed back into it exactly as
    // the real reaction's present[] does) WITHOUT executing data code.
    // Fails — conservatively disqualifying the letter — on anything
    // whose effect presence alone cannot predict: a data-dependent
    // branch, a valued emission, a runtime-error leaf, or a data action
    // outside the commutative-increment whitelist. `present` is the
    // caller's scratch: emissions are marked in it and listed in
    // out.emitted, so the caller can clear exactly what was set.
    out.endState = -1;
    out.emitted.clear();
    out.chunks.clear();
    const efsm::FlatNode* nodes = flat_.nodes.data();
    const efsm::FlatAction* actions = flat_.actions.data();
    auto runActs = [&](const efsm::FlatNode& node) -> bool {
        for (std::int32_t i = node.actionsBegin; i < node.actionsEnd; ++i) {
            const efsm::FlatAction& a = actions[i];
            if (a.kind == efsm::FlatAction::Kind::Emit) {
                if (a.chunk >= 0) return false; // valued emission
                present[static_cast<std::size_t>(a.signal)] = 1;
                out.emitted.push_back(a.signal);
            } else if (a.chunk >= 0) {
                if (!isCommutativeChunk(a.chunk)) return false;
                out.chunks.push_back(a.chunk);
            }
        }
        return true;
    };
    const std::int32_t root =
        flat_.states[static_cast<std::size_t>(state)].root;
    if (root < 0) return false;
    const efsm::FlatNode* node = &nodes[root];
    while (!node->isLeaf()) {
        if (!runActs(*node)) return false;
        if (node->testSignal < 0) return false; // data-dependent branch
        node = &nodes[present[static_cast<std::size_t>(node->testSignal)] != 0
                          ? node->onTrue
                          : node->onFalse];
    }
    if (node->runtimeError()) return false;
    if (!runActs(*node)) return false;
    out.endState = node->nextState;
    return true;
}

void Explorer::computePartialOrder()
{
    // Decides, per (control state, letter), whether a composite pure
    // letter {s1 < s2 < ... < sm} is redundant: the ascending singleton
    // chain s1-then-s2-... reaches the identical packed state, and the
    // singletons (and the empty letter) are never dropped — so removing
    // the composite loses no reachable state and no violation. The
    // chain comparison demands: the same end control state, the same
    // emitted-signal set, and the same multiset of executed data
    // chunks, every chunk a commutative constant increment (simPure
    // enforces that). Letters that emit a checked violation signal stay
    // (the direct transition is the shortest counterexample), and a
    // monitor disables the reduction wholesale: the monitor observes
    // instants, and the decomposition multiplies them.
    if (monSema_) return;

    const std::size_t nsig = sema_.signals.size();
    std::vector<std::uint8_t> checkedSig(nsig, 0);
    for (const Check& ck : checks_)
        if (ck.kind == Violation::Kind::DesignSignal && ck.signal >= 0)
            checkedSig[static_cast<std::size_t>(ck.signal)] = 1;

    // Chains revisit the same (state, signal) steps across the letters
    // of one state — and across states that share successors — so each
    // singleton simulation runs once, memoized in a dense
    // state x pure-input table: kUnknown, kFailed, or an index into
    // `singles`.
    constexpr std::int32_t kUnknown = -1;
    constexpr std::int32_t kFailed = -2;
    std::vector<std::int32_t> inputCol(nsig, -1);
    std::size_t inputs = 0;
    for (const SignalInfo& sig : sema_.signals)
        if (sig.dir == SignalDir::Input && sig.pure)
            inputCol[static_cast<std::size_t>(sig.index)] =
                static_cast<std::int32_t>(inputs++);
    std::vector<std::int32_t> singleOf(flat_.states.size() * inputs,
                                       kUnknown);
    std::vector<SimResult> singles;

    // Emitted-signal set equality without sorting copies: stamp one
    // side's signals with a fresh generation, then check the other's.
    std::vector<std::uint32_t> stampA(nsig, 0);
    std::vector<std::uint32_t> stampB(nsig, 0);
    std::uint32_t gen = 0;
    auto sameSignalSet = [&](const std::vector<std::int32_t>& a,
                             const std::vector<std::int32_t>& b) {
        ++gen;
        std::size_t na = 0;
        std::size_t nb = 0;
        for (std::int32_t sig : a)
            if (stampA[static_cast<std::size_t>(sig)] != gen) {
                stampA[static_cast<std::size_t>(sig)] = gen;
                ++na;
            }
        for (std::int32_t sig : b) {
            if (stampA[static_cast<std::size_t>(sig)] != gen) return false;
            if (stampB[static_cast<std::size_t>(sig)] != gen) {
                stampB[static_cast<std::size_t>(sig)] = gen;
                ++nb;
            }
        }
        return na == nb;
    };

    // All scratch lives across letters: `present` is all-zero between
    // simulations (each caller clears what it and simPure set).
    std::vector<std::uint8_t> present(nsig, 0);
    auto simulate = [&](int state, SimResult& res) {
        const bool ok = simPure(state, present, res);
        for (std::int32_t e : res.emitted)
            present[static_cast<std::size_t>(e)] = 0;
        return ok;
    };
    SimResult combined;
    std::vector<std::int32_t> chainEmits;
    std::vector<std::int32_t> chainChunks;

    for (std::size_t st = 0; st < flat_.states.size(); ++st) {
        if (flat_.states[st].dead || flat_.states[st].root < 0) continue;
        StateAlphabet& sa = alphabet_[st];
        std::size_t keptCount = 0;
        for (std::uint32_t L = 0;
             L < static_cast<std::uint32_t>(sa.letters.size()); ++L) {
            const Letter& letter = sa.letters[L];
            // Kept unless proven redundant below.
            sa.kept[keptCount++] = L;
            if (letter.sets.size() < 2) continue;
            bool allPure = true;
            for (const auto& [sig, dom] : letter.sets)
                if (dom >= 0) {
                    allPure = false;
                    break;
                }
            if (!allPure) continue;

            for (const auto& [sig, dom] : letter.sets)
                present[static_cast<std::size_t>(sig)] = 1;
            const bool simulated =
                simulate(static_cast<int>(st), combined);
            for (const auto& [sig, dom] : letter.sets)
                present[static_cast<std::size_t>(sig)] = 0;
            if (!simulated) continue;

            bool emitsChecked = false;
            for (std::int32_t e : combined.emitted)
                if (checkedSig[static_cast<std::size_t>(e)]) {
                    emitsChecked = true;
                    break;
                }
            if (emitsChecked) continue;

            // Ascending singleton chain (letter.sets is built ascending
            // by the mixed-radix enumeration).
            int cur = static_cast<int>(st);
            chainEmits.clear();
            chainChunks.clear();
            bool ok = true;
            for (const auto& [sig, dom] : letter.sets) {
                // An intermediate dead state cannot take further
                // instants; the chain breaks.
                if (cur < 0 ||
                    flat_.states[static_cast<std::size_t>(cur)].dead) {
                    ok = false;
                    break;
                }
                std::int32_t& slot =
                    singleOf[static_cast<std::size_t>(cur) * inputs +
                             static_cast<std::size_t>(
                                 inputCol[static_cast<std::size_t>(sig)])];
                if (slot == kUnknown) {
                    SimResult one;
                    present[static_cast<std::size_t>(sig)] = 1;
                    const bool good = simulate(cur, one);
                    present[static_cast<std::size_t>(sig)] = 0;
                    slot = kFailed;
                    if (good) {
                        slot = static_cast<std::int32_t>(singles.size());
                        singles.push_back(std::move(one));
                    }
                }
                if (slot == kFailed) {
                    ok = false;
                    break;
                }
                const SimResult& one =
                    singles[static_cast<std::size_t>(slot)];
                chainEmits.insert(chainEmits.end(), one.emitted.begin(),
                                  one.emitted.end());
                chainChunks.insert(chainChunks.end(), one.chunks.begin(),
                                   one.chunks.end());
                cur = one.endState;
            }
            if (!ok || cur != combined.endState) continue;
            if (!sameSignalSet(combined.emitted, chainEmits)) continue;
            std::sort(combined.chunks.begin(), combined.chunks.end());
            std::sort(chainChunks.begin(), chainChunks.end());
            if (combined.chunks != chainChunks) continue;

            --keptCount; // redundant: drop it
        }
        sa.kept.resize(keptCount);
    }
}

// ---------------------------------------------------------------------------
// Explorer: successor computation
// ---------------------------------------------------------------------------

void Explorer::expandOne(Worker& w, const std::uint8_t* rec, std::uint32_t id,
                         std::uint32_t letterIdx)
{
    const int ds = readI32(rec);
    const Letter& letter =
        alphabet_[static_cast<std::size_t>(ds)].letters[letterIdx];

    Succ s{id, letterIdx, -1};

    // Load the design instance and apply the letter (presence + values).
    std::memcpy(w.design.slice.data(), rec + headerBytes_, layout_.dataBytes);
    std::memset(w.design.present.data(), 0, w.design.present.size());
    for (const auto& [sig, dom] : letter.sets) {
        w.design.present[static_cast<std::size_t>(sig)] = 1;
        if (dom >= 0)
            rt::writeSignalValue(
                w.design.slice.data(), layout_,
                sema_.signals[static_cast<std::size_t>(sig)],
                domains_[static_cast<std::size_t>(sig)]
                        [static_cast<std::size_t>(dom)]);
    }

    int newDs = ds;
    int newMs = -1;
    try {
        // The generated code marks every emission present, locals
        // included, exactly like the VM kernel, so monitor wiring and
        // signal checks below see the same instant on either kernel.
        newDs = w.native ? w.native->react(w.design.slice.data(),
                                           w.design.present.data(), ds,
                                           nullptr)
                         : w.design.react(ds);
        if (monSema_) {
            const int ms = readI32(rec + 4);
            std::memcpy(w.monitor->slice.data(),
                        rec + headerBytes_ + layout_.dataBytes,
                        monLayout_.dataBytes);
            std::memset(w.monitor->present.data(), 0,
                        w.monitor->present.size());
            newMs = ms;
            if (!monFlat_->states[static_cast<std::size_t>(ms)].dead) {
                // Feed the monitor the design's instant: presence (and
                // value) of every wired signal, inputs and emissions
                // alike.
                for (const MonitorWire& wire : wires_) {
                    if (!w.design.present[static_cast<std::size_t>(
                            wire.designSig)])
                        continue;
                    w.monitor
                        ->present[static_cast<std::size_t>(wire.monitorSig)] =
                        1;
                    if (wire.valued) {
                        const SignalInfo& dsig =
                            sema_.signals[static_cast<std::size_t>(
                                wire.designSig)];
                        const SignalInfo& msig =
                            monSema_->signals[static_cast<std::size_t>(
                                wire.monitorSig)];
                        const std::uint8_t* src =
                            w.design.slice.data() +
                            layout_.sigOffsets[static_cast<std::size_t>(
                                wire.designSig)];
                        std::uint8_t* dst =
                            w.monitor->slice.data() +
                            monLayout_.sigOffsets[static_cast<std::size_t>(
                                wire.monitorSig)];
                        if (msig.valueType->isScalar())
                            writeScalar(dst, msig.valueType,
                                        readScalar(src, dsig.valueType));
                        else
                            std::memcpy(dst, src, msig.valueType->size());
                    }
                }
                newMs = w.monitor->react(ms);
            }
        }
    } catch (const EclError& e) {
        // A trapped reaction is itself a verification result: the trace
        // to it demonstrates a runtime error (instantaneous-loop leaf,
        // data runtime failure) is reachable.
        s.check = kTrapped;
        w.traps.emplace_back(static_cast<std::uint32_t>(w.succs.size()),
                             e.what());
        w.packed.resize(w.packed.size() + packedSize_); // placeholder
        w.hashes.push_back(0);
        w.succs.push_back(s);
        return;
    }

    // Violation checks run per transition: emissions are per-instant and
    // deliberately not part of the packed state.
    for (std::size_t c = 0; c < checks_.size(); ++c) {
        const Check& ck = checks_[c];
        if (ck.kind == Violation::Kind::Predicate) {
            StateView view(sema_, layout_, newDs, w.design.slice.data());
            if (predicates_[ck.predicate].second(view)) {
                s.check = static_cast<std::int32_t>(c);
                break;
            }
        } else {
            const ModuleCtx& ctx = ck.kind == Violation::Kind::MonitorSignal
                                       ? *w.monitor
                                       : w.design;
            if (ctx.present[static_cast<std::size_t>(ck.signal)]) {
                s.check = static_cast<std::int32_t>(c);
                break;
            }
        }
    }

    const std::size_t off = w.packed.size();
    w.packed.resize(off + packedSize_);
    std::uint8_t* out = w.packed.data() + off;
    writeI32(out, newDs);
    if (monSema_) writeI32(out + 4, newMs);
    std::memcpy(out + headerBytes_, w.design.slice.data(), layout_.dataBytes);
    if (monSema_)
        std::memcpy(out + headerBytes_ + layout_.dataBytes,
                    w.monitor->slice.data(), monLayout_.dataBytes);
    // Hash here, in parallel, so the sequential merge only probes.
    w.hashes.push_back(StateStore::hashBytes(out, packedSize_));
    w.succs.push_back(s);
}

void Explorer::expandState(Worker& w, const std::uint8_t* rec,
                           std::uint32_t id)
{
    const StateAlphabet& sa =
        alphabet_[static_cast<std::size_t>(readI32(rec))];
    if (sa.truncated) w.sawTruncation = true;
    w.lettersReduced += sa.letters.size() - sa.kept.size();
    for (std::uint32_t L : sa.kept) expandOne(w, rec, id, L);
}

std::uint32_t Explorer::expansionsOf(std::uint32_t id) const
{
    const std::size_t ds = static_cast<std::size_t>(designStates_[id]);
    return flat_.states[ds].dead
               ? 0
               : static_cast<std::uint32_t>(alphabet_[ds].kept.size());
}

void Explorer::expandRange(Worker& w, std::uint32_t begin, std::uint32_t end)
{
    try {
        for (std::uint32_t id = begin; id < end; ++id) {
            // Frontier records travel in the level buffer — workers
            // never touch the store (its at() pointers are invalidated
            // by the merge phase's interning, and a bitstate store has
            // no records at all).
            const std::uint8_t* rec = levelRecs_[id - levelBase_];
            if (flat_.states[static_cast<std::size_t>(readI32(rec))].dead)
                continue; // terminated: no future instants
            expandState(w, rec, id);
        }
    } catch (...) {
        w.fatal = std::current_exception();
    }
}

std::uint32_t Explorer::planEpoch(std::uint32_t begin, std::uint32_t levelEnd,
                                  std::uint64_t budget)
{
    // The epoch: the longest run of frontier states from `begin` whose
    // successors fit the budget (at least one state). A pure function
    // of the frontier and the budget, so it never depends on timing.
    std::uint64_t total = 0;
    std::uint32_t end = begin;
    for (; end < levelEnd; ++end) {
        const std::uint32_t n = expansionsOf(end);
        if (end > begin && total + n > budget) break;
        total += n;
    }
    // Contiguous per-worker chunks of about total / T successors each.
    const std::uint64_t T = workers_.size();
    std::uint32_t id = begin;
    std::uint64_t done = 0;
    for (std::uint64_t w = 0; w < T; ++w) {
        const std::uint32_t from = id;
        const std::uint64_t target = total * (w + 1) / T;
        while (id < end && (done < target || w + 1 == T))
            done += expansionsOf(id++);
        ranges_[w] = {from, id};
    }
    return end;
}

// ---------------------------------------------------------------------------
// Explorer: merge, violations, traces
// ---------------------------------------------------------------------------

bool Explorer::mergeWorker(Worker& w, ExploreResult& out)
{
    // Prefetch distances in successors: the index slot kSlotAhead ahead,
    // then — once that slot has arrived — the record its tag names
    // kRecordAhead ahead, so intern() finds both in cache.
    constexpr std::size_t kRecordAhead = 16;
    constexpr std::size_t kSlotAhead = 2 * kRecordAhead;
    const bool budgeted =
        options_.storeBudgetBytes != 0 && !store_->lossy();
    const std::size_t n = w.succs.size();
    const std::uint8_t* bytes = w.packed.data();
    for (std::size_t i = 0; i < n; ++i, bytes += packedSize_) {
        if (i + kSlotAhead < n)
            store_->prefetch(w.hashes[i + kSlotAhead],
                             StateStore::Prefetch::Slot);
        if (i + kRecordAhead < n)
            store_->prefetch(w.hashes[i + kRecordAhead],
                             StateStore::Prefetch::Record);
        const Succ& s = w.succs[i];
        ++out.stats.transitions;
        if (s.check != -1) {
            recordViolation(w, i, bytes, out);
            return true;
        }
        // The state cap (and the store memory budget) stops interning
        // deterministically — merge order is canonical — but the
        // remaining transitions of the level are still scanned for
        // violations.
        if (store_->size() >= options_.maxStates) continue;
        if (budgeted && store_->memoryBytes() > options_.storeBudgetBytes)
            continue;
        if (store_->intern(bytes, w.hashes[i]).second) {
            parents_.push_back({s.parent, s.letter});
            depths_.push_back(depths_[s.parent] + 1);
            designStates_.push_back(readI32(bytes));
            nextRecs_.append(bytes);
        }
    }
    return false;
}

void Explorer::recordViolation(const Worker& w, std::size_t i,
                               const std::uint8_t* packed,
                               ExploreResult& out)
{
    const Succ& s = w.succs[i];
    out.violated = true;
    Violation v;
    if (s.check == kTrapped) {
        v.kind = Violation::Kind::RuntimeError;
        for (const auto& [at, text] : w.traps)
            if (at == i) v.what = text;
    } else {
        const Check& ck = checks_[static_cast<std::size_t>(s.check)];
        v.kind = ck.kind;
        v.what = ck.name;
        v.signal = ck.signal;
        v.state.assign(packed, packed + packedSize_);
        if (ck.kind != Violation::Kind::Predicate) {
            const bool onMonitor = ck.kind == Violation::Kind::MonitorSignal;
            const ModuleSema& sema = onMonitor ? *monSema_ : sema_;
            const rt::InstanceLayout& layout =
                onMonitor ? monLayout_ : layout_;
            const SignalInfo& sig =
                sema.signals[static_cast<std::size_t>(ck.signal)];
            if (!sig.pure) {
                const std::uint8_t* data =
                    packed + headerBytes_ +
                    (onMonitor ? layout_.dataBytes : 0);
                v.value = Value::fromBytes(
                    sig.valueType,
                    data +
                        layout.sigOffsets[static_cast<std::size_t>(
                            ck.signal)]);
            }
        }
    }
    out.trace = buildTrace(s.parent, s.letter);
    v.depth = static_cast<int>(out.trace.size());
    out.violation = std::move(v);
}

TraceStep Explorer::letterToStep(std::uint32_t stateId,
                                 std::uint32_t letterIdx) const
{
    // designStates_ carries every id's control state: trace rebuilding
    // must not read the store (bitstate retains no records).
    const int ds = designStates_[stateId];
    const Letter& letter =
        alphabet_[static_cast<std::size_t>(ds)].letters[letterIdx];
    TraceStep step;
    step.inputs.reserve(letter.sets.size());
    for (const auto& [sig, dom] : letter.sets) {
        InputEvent ev;
        ev.signal = sig;
        if (dom >= 0)
            ev.value = domains_[static_cast<std::size_t>(sig)]
                               [static_cast<std::size_t>(dom)];
        step.inputs.push_back(std::move(ev));
    }
    return step;
}

std::vector<TraceStep> Explorer::buildTrace(std::uint32_t parent,
                                            std::uint32_t letterIdx) const
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> chain;
    chain.emplace_back(parent, letterIdx);
    std::uint32_t cur = parent;
    while (cur != 0) {
        const ParentLink& pl = parents_[cur];
        chain.emplace_back(pl.parent, pl.letter);
        cur = pl.parent;
    }
    std::reverse(chain.begin(), chain.end());
    std::vector<TraceStep> steps;
    steps.reserve(chain.size());
    for (const auto& [stateId, letter] : chain)
        steps.push_back(letterToStep(stateId, letter));
    return steps;
}

// ---------------------------------------------------------------------------
// Explorer: worker pool + main loops
// ---------------------------------------------------------------------------

ExploreResult Explorer::run()
{
    if (ran_)
        throw EclError("Explorer::run is single-shot; build a fresh "
                       "explorer per run");
    ran_ = true;

    headerBytes_ = monSema_ ? 8 : 4;
    packedSize_ = headerBytes_ + layout_.dataBytes +
                  (monSema_ ? monLayout_.dataBytes : 0);
    StoreConfig cfg;
    cfg.memoryBudgetBytes = options_.storeBudgetBytes;
    cfg.componentSizes = {headerBytes_, layout_.dataBytes};
    if (monSema_) cfg.componentSizes.push_back(monLayout_.dataBytes);
    store_ = StateStore::make(options_.storeKind, packedSize_, cfg);
    buildAlphabet();
    resolveChecks();
    double porSeconds = 0;
    if (options_.partialOrder) {
        const auto tPor = Clock::now();
        computePartialOrder();
        porSeconds = secondsBetween(tPor, Clock::now());
    }

    // Root: pre-boot — initial control states, all data zero. The first
    // explored instant is the boot reaction (which may consume inputs).
    std::vector<std::uint8_t> root(packedSize_, 0);
    writeI32(root.data(), flat_.initialState);
    if (monSema_) writeI32(root.data() + 4, monFlat_->initialState);
    store_->intern(root.data());
    designStates_.push_back(flat_.initialState);
    parents_.push_back({std::numeric_limits<std::uint32_t>::max(), 0});
    depths_.push_back(0);
    levelRecs_ = RecordArena(packedSize_);
    nextRecs_ = RecordArena(packedSize_);
    levelRecs_.append(root.data());
    levelBase_ = 0;

    const auto t0 = Clock::now();
    ExploreResult out = options_.strategy == Strategy::Dfs ? runDfs()
                                                           : runBfs();
    const auto t1 = Clock::now();

    out.stats.porSeconds = porSeconds;
    out.stats.states = store_->size();
    out.stats.controlStates = flat_.states.size();
    out.stats.storeKind = store_->kind();
    out.stats.lossyStore = store_->lossy();
    out.stats.storeMemoryBytes = store_->memoryBytes();
    out.stats.usedNativeSuccessors = native_ != nullptr;
    for (const auto& w : workers_)
        out.stats.lettersReduced += w->lettersReduced;
    out.stats.seconds = secondsBetween(t0, t1);
    out.stats.statesPerSec =
        out.stats.seconds > 0
            ? static_cast<double>(out.stats.states) / out.stats.seconds
            : 0;
    return out;
}

ExploreResult Explorer::runBfs()
{
    const int T = std::max(1, options_.threads);
    workers_.clear();
    for (int i = 0; i < T; ++i)
        workers_.push_back(std::make_unique<Worker>(*this));
    ranges_.assign(static_cast<std::size_t>(T), {0, 0});
    // Expansion is the callback's only job; failures land in the
    // worker's exception_ptr, rethrown after each epoch.
    rt::WorkerPool pool(T, [this](int w) {
        const std::size_t i = static_cast<std::size_t>(w);
        expandRange(*workers_[i], ranges_[i].first, ranges_[i].second);
    });
    // Successors per epoch: every worker's buffers (record, hash, Succ
    // per successor) stay near kWorkerEpochBytes.
    const std::uint64_t epochSuccs =
        static_cast<std::uint64_t>(T) *
        std::max<std::size_t>(1, kWorkerEpochBytes /
                                     (packedSize_ + sizeof(std::uint64_t) +
                                      sizeof(Succ)));

    ExploreResult out;
    std::uint32_t levelBegin = 0;
    std::uint32_t levelEnd = 1;
    int depth = 0;
    bool capped = false;
    bool stopped = false;

    out.stats.peakFrontier = 1;
    while (levelBegin < levelEnd && depth < options_.maxDepth && !stopped &&
           !capped) {
        // New records accumulate in nextRecs_, becoming the next
        // level's frontier buffer.
        nextRecs_.clear();
        for (std::uint32_t epochBegin = levelBegin;
             epochBegin < levelEnd && !stopped;) {
            const std::uint32_t epochEnd =
                planEpoch(epochBegin, levelEnd, epochSuccs);
            for (const auto& w : workers_) w->clearSuccessors();

            const auto tExpand = Clock::now();
            pool.run();
            const auto tMerge = Clock::now();
            out.stats.expandSeconds += secondsBetween(tExpand, tMerge);
            for (const auto& w : workers_)
                if (w->fatal) std::rethrow_exception(w->fatal);

            // Canonical merge: worker chunks are contiguous ascending
            // frontier ranges and epochs follow each other in frontier
            // order, so concatenation in worker order IS frontier x
            // letter order — ids and the first violation are
            // thread-count independent.
            for (const auto& w : workers_) {
                if (mergeWorker(*w, out)) {
                    stopped = true;
                    break;
                }
            }
            out.stats.mergeSeconds += secondsBetween(tMerge, Clock::now());
            ++out.stats.epochs;
            epochBegin = epochEnd;
        }
        ++depth;
        levelBegin = levelEnd;
        levelEnd = store_->size();
        levelBase_ = levelBegin;
        std::swap(levelRecs_, nextRecs_);
        out.stats.peakFrontier =
            std::max(out.stats.peakFrontier,
                     static_cast<std::uint64_t>(levelEnd - levelBegin));
        out.stats.depthReached = depth;
        if (store_->size() >= options_.maxStates) capped = true;
        if (options_.storeBudgetBytes != 0 && !store_->lossy() &&
            store_->memoryBytes() > options_.storeBudgetBytes)
            capped = true;
    }

    for (const auto& w : workers_)
        if (w->sawTruncation) out.stats.alphabetTruncated = true;
    out.stats.complete = !stopped && !capped &&
                         !out.stats.alphabetTruncated &&
                         levelBegin == levelEnd;
    return out;
}

ExploreResult Explorer::runDfs()
{
    workers_.clear();
    workers_.push_back(std::make_unique<Worker>(*this));
    Worker& w = *workers_[0];

    ExploreResult out;
    // Parallel stacks: ids plus their packed records (entry i's record
    // at byte offset i * packedSize_) — DFS re-expansion must not read
    // the store either.
    std::vector<std::uint32_t> stack{0};
    std::vector<std::uint8_t> recStack(levelRecs_[0],
                                       levelRecs_[0] + packedSize_);
    std::vector<std::uint8_t> cur(packedSize_);
    out.stats.peakFrontier = 1;
    bool capped = false;
    bool depthBounded = false;
    bool stopped = false;

    while (!stack.empty() && !stopped && !capped) {
        const std::uint32_t id = stack.back();
        stack.pop_back();
        std::memcpy(cur.data(), recStack.data() + stack.size() * packedSize_,
                    packedSize_);
        recStack.resize(stack.size() * packedSize_);
        const int ds = readI32(cur.data());
        if (flat_.states[static_cast<std::size_t>(ds)].dead) continue;
        if (depths_[id] >=
            static_cast<std::uint32_t>(options_.maxDepth)) {
            depthBounded = true;
            continue;
        }
        out.stats.depthReached =
            std::max(out.stats.depthReached,
                     static_cast<int>(depths_[id]) + 1);

        const auto tExpand = Clock::now();
        w.clearSuccessors();
        expandState(w, cur.data(), id);

        const auto tMerge = Clock::now();
        out.stats.expandSeconds += secondsBetween(tExpand, tMerge);
        const std::uint32_t before = store_->size();
        nextRecs_.clear();
        stopped = mergeWorker(w, out);
        out.stats.mergeSeconds += secondsBetween(tMerge, Clock::now());
        if (stopped) break;
        // Push in reverse so the letter-0 successor is explored first.
        const std::uint32_t added = store_->size() - before;
        for (std::uint32_t k = added; k > 0;) {
            --k;
            stack.push_back(before + k);
            recStack.insert(recStack.end(), nextRecs_[k],
                            nextRecs_[k] + packedSize_);
        }
        out.stats.peakFrontier = std::max(
            out.stats.peakFrontier,
            static_cast<std::uint64_t>(stack.size()));
        if (store_->size() >= options_.maxStates) capped = true;
        if (options_.storeBudgetBytes != 0 && !store_->lossy() &&
            store_->memoryBytes() > options_.storeBudgetBytes)
            capped = true;
    }

    if (w.sawTruncation) out.stats.alphabetTruncated = true;
    out.stats.complete = !stopped && !capped && !depthBounded &&
                         !out.stats.alphabetTruncated && stack.empty();
    return out;
}

std::uint64_t Explorer::stateDigest() const
{
    if (!store_) throw EclError("stateDigest before run()");
    return store_->digest();
}

const StateStore& Explorer::stateStore() const
{
    if (!store_) throw EclError("stateStore before run()");
    return *store_;
}

} // namespace ecl::verify
