#include "src/runtime/engine.h"

#include <algorithm>
#include <cstring>

#include "src/runtime/native_module.h"

namespace ecl::rt {

// ---------------------------------------------------------------------------
// ReactiveEngine: name resolution + string wrappers
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ReactiveEngine::packState() const
{
    throw EclError(std::string("engine backend '") + backendName() +
                   "' does not support packed state snapshots");
}

int ReactiveEngine::signalIndex(const std::string& name) const
{
    const SignalInfo* s = moduleSema().findSignal(name);
    if (!s) throw EclError("no signal named '" + name + "'");
    return s->index;
}

int ReactiveEngine::inputIndex(const std::string& name) const
{
    const SignalInfo* s = moduleSema().findSignal(name);
    if (!s) throw EclError("no signal named '" + name + "'");
    if (s->dir != SignalDir::Input)
        throw EclError("'" + name + "' is not an input signal");
    return s->index;
}

void ReactiveEngine::setInput(const std::string& name)
{
    setInput(inputIndex(name));
}

void ReactiveEngine::setInputScalar(const std::string& name, std::int64_t v)
{
    setInputScalar(inputIndex(name), v);
}

void ReactiveEngine::setInputValue(const std::string& name, Value v)
{
    setInputValue(inputIndex(name), std::move(v));
}

bool ReactiveEngine::outputPresent(const std::string& name) const
{
    return outputPresent(signalIndex(name));
}

Value ReactiveEngine::outputValue(const std::string& name) const
{
    return outputValue(signalIndex(name));
}

namespace {

const SignalInfo& checkedSignal(const ModuleSema& sema, int sigIndex)
{
    if (sigIndex < 0 ||
        static_cast<std::size_t>(sigIndex) >= sema.signals.size())
        throw EclError("signal index " + std::to_string(sigIndex) +
                       " out of range");
    return sema.signals[static_cast<std::size_t>(sigIndex)];
}

const SignalInfo& checkedInput(const ModuleSema& sema, int sigIndex)
{
    const SignalInfo& s = checkedSignal(sema, sigIndex);
    if (s.dir != SignalDir::Input)
        throw EclError("'" + s.name + "' is not an input signal");
    return s;
}

} // namespace

// ---------------------------------------------------------------------------
// SyncEngine: one instance over the reaction kernel
// ---------------------------------------------------------------------------

SyncEngine::SyncEngine(const ModuleSema& sema, const efsm::FlatProgram& flat)
    : sema_(sema), flat_(flat), layout_(computeInstanceLayout(sema)),
      arena_(layout_.stride, 0), present_(sema.signals.size(), 0),
      lastPresent_(sema.signals.size(), 0), state_(flat.initialState)
{
}

SyncEngine::SyncEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                       std::shared_ptr<const bc::Program> code)
    : SyncEngine(sema, flat)
{
    if (!code) throw EclError("SyncEngine requires the compiled bytecode");
    vm_ = std::make_unique<VmKernel>(flat_, std::move(code), sema_, layout_,
                                     arena_.data());
}

SyncEngine::SyncEngine(const ModuleSema& sema, const efsm::FlatProgram& flat,
                       std::shared_ptr<const NativeModule> module)
    : SyncEngine(sema, flat)
{
    validateNativeShape(module->info(), sema_, flat_, layout_);
    native_ = std::make_unique<NativeKernel>(*module);
    module_ = std::move(module);
}

void SyncEngine::beginInput()
{
    if (!instantOpen_) {
        std::fill(present_.begin(), present_.end(), 0);
        instantOpen_ = true;
    }
}

void SyncEngine::setInput(int sigIndex)
{
    checkedInput(sema_, sigIndex);
    beginInput();
    present_[static_cast<std::size_t>(sigIndex)] = 1;
}

void SyncEngine::setInputScalar(int sigIndex, std::int64_t v)
{
    const SignalInfo& info = checkedInput(sema_, sigIndex);
    if (info.pure)
        throw EclError("'" + info.name + "' is pure; use setInput()");
    beginInput();
    writeScalar(arena_.data() +
                    layout_.sigOffsets[static_cast<std::size_t>(sigIndex)],
                info.valueType, v);
    present_[static_cast<std::size_t>(sigIndex)] = 1;
}

void SyncEngine::setInputValue(int sigIndex, Value v)
{
    const SignalInfo& info = checkedInput(sema_, sigIndex);
    beginInput();
    writeSignalValue(arena_.data(), layout_, info, v);
    present_[static_cast<std::size_t>(sigIndex)] = 1;
}

ReactionResult SyncEngine::react()
{
    if (!instantOpen_) std::fill(present_.begin(), present_.end(), 0);
    instantOpen_ = false;

    ReactionResult result;
    state_ = native_ ? native_->react(arena_.data(), present_.data(), state_,
                                      &result)
                     : vm_->react(arena_.data(), present_.data(), state_,
                                  &result);
    lastPresent_ = present_;
    return result;
}

bool SyncEngine::outputPresent(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return lastPresent_[static_cast<std::size_t>(sigIndex)] != 0;
}

Value SyncEngine::outputValue(int sigIndex) const
{
    const SignalInfo& s = checkedSignal(sema_, sigIndex);
    if (s.pure)
        throw EclError("value read on pure signal '" + s.name + "'");
    return Value::fromBytes(
        s.valueType,
        arena_.data() +
            layout_.sigOffsets[static_cast<std::size_t>(sigIndex)]);
}

bool SyncEngine::terminated() const
{
    return flat_.states[static_cast<std::size_t>(state_)].dead;
}

bool SyncEngine::needsAutoResume() const
{
    return flat_.states[static_cast<std::size_t>(state_)].autoResume;
}

std::vector<std::uint8_t> SyncEngine::packState() const
{
    std::vector<std::uint8_t> out(4 + layout_.dataBytes, 0);
    const std::int32_t st = state_;
    std::memcpy(out.data(), &st, 4);
    std::memcpy(out.data() + 4, arena_.data(), layout_.dataBytes);
    return out;
}

// ---------------------------------------------------------------------------
// TreeEngine (tree-walking oracle)
// ---------------------------------------------------------------------------

TreeEngine::TreeEngine(const efsm::Efsm& machine, const ModuleSema& sema,
                       const ProgramSema& program,
                       const FunctionSemaMap& functions)
    : machine_(machine), sema_(sema), env_(sema), store_(sema.vars),
      eval_(program, functions, &sema, &store_, &env_),
      state_(machine.initialState)
{
    lastPresent_.assign(sema.signals.size(), false);
}

void TreeEngine::beginInput()
{
    if (!instantOpen_) {
        env_.beginInstant();
        instantOpen_ = true;
    }
}

void TreeEngine::setInput(int sigIndex)
{
    checkedInput(sema_, sigIndex);
    beginInput();
    env_.setPresent(sigIndex);
}

void TreeEngine::setInputScalar(int sigIndex, std::int64_t v)
{
    const SignalInfo& info = checkedInput(sema_, sigIndex);
    if (info.pure)
        throw EclError("'" + info.name + "' is pure; use setInput()");
    beginInput();
    env_.setValue(sigIndex, Value::fromInt(info.valueType, v));
}

void TreeEngine::setInputValue(int sigIndex, Value v)
{
    checkedInput(sema_, sigIndex);
    beginInput();
    env_.setValue(sigIndex, std::move(v));
}

void TreeEngine::runActions(const std::vector<efsm::Action>& actions,
                            ReactionResult& result)
{
    for (const efsm::Action& a : actions) {
        ++result.actionsRun;
        if (a.kind == efsm::Action::Kind::Emit) {
            ++result.emitsRun;
            const SignalInfo& info =
                sema_.signals[static_cast<std::size_t>(a.signal)];
            if (a.valueExpr) {
                env_.setValue(a.signal, eval_.evalExpr(*a.valueExpr));
            } else {
                env_.setPresent(a.signal);
            }
            if (info.dir == SignalDir::Output)
                result.emittedOutputs.push_back(a.signal);
        } else {
            const ir::DataAction& da =
                machine_.program->actions[static_cast<std::size_t>(
                    a.dataActionId)];
            if (da.stmt)
                eval_.execStmt(*da.stmt);
            else if (da.expr)
                eval_.evalExpr(*da.expr);
        }
    }
}

ReactionResult TreeEngine::react()
{
    if (!instantOpen_) env_.beginInstant();
    instantOpen_ = false;

    ReactionResult result;
    eval_.resetCounters();
    eval_.resetOpWindow();
    const efsm::State& st = machine_.states[static_cast<std::size_t>(state_)];
    const efsm::TransNode* node = st.tree.get();
    if (!node) throw EclError("state without transition tree");
    while (!node->isLeaf) {
        runActions(node->prefixActions, result);
        ++result.treeTests;
        bool taken;
        if (node->testsSignal)
            taken = env_.isPresent(node->signal);
        else
            taken = eval_.evalCondition(*node->dataCond);
        node = taken ? node->onTrue.get() : node->onFalse.get();
    }
    if (node->runtimeError)
        throw EclError("instantaneous loop detected at runtime (a "
                       "statically-unverifiable loop path was reached)");
    runActions(node->prefixActions, result);
    state_ = node->nextState;
    result.terminated = node->terminates ||
                        machine_.states[static_cast<std::size_t>(state_)].dead;
    result.dataCounters = eval_.counters();

    // Snapshot presence for output queries, then close the instant.
    for (std::size_t i = 0; i < lastPresent_.size(); ++i)
        lastPresent_[i] = env_.isPresent(static_cast<int>(i));
    return result;
}

bool TreeEngine::outputPresent(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return lastPresent_[static_cast<std::size_t>(sigIndex)];
}

Value TreeEngine::outputValue(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return env_.signalValue(sigIndex);
}

bool TreeEngine::terminated() const
{
    return machine_.states[static_cast<std::size_t>(state_)].dead;
}

bool TreeEngine::needsAutoResume() const
{
    return machine_.states[static_cast<std::size_t>(state_)].autoResume;
}

std::vector<std::uint8_t> TreeEngine::packState() const
{
    const InstanceLayout layout = computeInstanceLayout(sema_);
    std::vector<std::uint8_t> out(4 + layout.dataBytes, 0);
    const std::int32_t st = state_;
    std::memcpy(out.data(), &st, 4);
    std::uint8_t* data = out.data() + 4;
    for (std::size_t i = 0; i < sema_.vars.size(); ++i) {
        const Value& v = store_.at(static_cast<int>(i));
        std::memcpy(data + layout.varOffsets[i], v.data(), v.size());
    }
    for (const SignalInfo& s : sema_.signals) {
        if (s.pure) continue;
        const Value& v = env_.signalValue(s.index);
        std::memcpy(data +
                        layout.sigOffsets[static_cast<std::size_t>(s.index)],
                    v.data(), v.size());
    }
    return out;
}

// ---------------------------------------------------------------------------
// RcEngine (Reactive-C-style baseline and semantic oracle)
// ---------------------------------------------------------------------------

RcEngine::RcEngine(const ir::ReactiveProgram& program, const ModuleSema& sema,
                   const ProgramSema& programSema,
                   const FunctionSemaMap& functions)
    : prog_(program), sema_(sema), env_(sema), store_(sema.vars),
      eval_(programSema, functions, &sema, &store_, &env_)
{
    lastPresent_.assign(sema.signals.size(), false);
}

void RcEngine::setInput(int sigIndex)
{
    checkedInput(sema_, sigIndex);
    env_.setPresent(sigIndex);
}

void RcEngine::setInputScalar(int sigIndex, std::int64_t v)
{
    const SignalInfo& info = checkedInput(sema_, sigIndex);
    if (info.pure)
        throw EclError("'" + info.name + "' is pure; use setInput()");
    env_.setValue(sigIndex, Value::fromInt(info.valueType, v));
}

void RcEngine::setInputValue(int sigIndex, Value v)
{
    checkedInput(sema_, sigIndex);
    env_.setValue(sigIndex, std::move(v));
}

bool RcEngine::guardValue(const ir::SigGuard& g)
{
    switch (g.kind) {
    case ir::SigGuard::Kind::Ref: return env_.isPresent(g.signal);
    case ir::SigGuard::Kind::Not: return !guardValue(*g.lhs);
    case ir::SigGuard::Kind::And:
        return guardValue(*g.lhs) && guardValue(*g.rhs);
    case ir::SigGuard::Kind::Or:
        return guardValue(*g.lhs) || guardValue(*g.rhs);
    }
    return false;
}

void RcEngine::doEmit(const ir::Node& n, ReactionResult& result)
{
    ++result.emitsRun;
    const SignalInfo& info = sema_.signals[static_cast<std::size_t>(n.signal)];
    if (n.valueExpr)
        env_.setValue(n.signal, eval_.evalExpr(*n.valueExpr));
    else
        env_.setPresent(n.signal);
    if (info.dir == SignalDir::Output)
        result.emittedOutputs.push_back(n.signal);
}

RcEngine::WalkResult RcEngine::walk(const ir::Node& n, Mode mode,
                                    ReactionResult& result)
{
    ++result.treeTests; // every visited IR node costs interpretation work
    using ir::NodeKind;

    if (mode == Mode::Resume) {
        switch (n.kind) {
        case NodeKind::Pause: return {Comp::Term, -1, 0, {}};
        case NodeKind::Seq: {
            std::size_t idx = n.children.size();
            for (std::size_t i = 0; i < n.children.size(); ++i)
                if (n.children[i]->pausesInSubtree.intersects(config_)) {
                    idx = i;
                    break;
                }
            WalkResult r = walk(*n.children[idx], Mode::Resume, result);
            for (std::size_t i = idx + 1;
                 i < n.children.size() && r.comp == Comp::Term; ++i)
                r = walk(*n.children[i], Mode::Start, result);
            return r;
        }
        case NodeKind::Loop: {
            WalkResult r = walk(*n.children[0], Mode::Resume, result);
            int guard = 0;
            while (r.comp == Comp::Term) {
                if (++guard > 64)
                    throw EclError(n.loc, "instantaneous loop at runtime");
                r = walk(*n.children[0], Mode::Start, result);
            }
            return r;
        }
        case NodeKind::If:
        case NodeKind::Present: {
            const ir::Node& active =
                n.children[0]->pausesInSubtree.intersects(config_)
                    ? *n.children[0]
                    : *n.children[1];
            return walk(active, Mode::Resume, result);
        }
        case NodeKind::Par: {
            WalkResult agg{Comp::Term, -1, 0, {}};
            bool anyPause = false;
            bool anyExit = false;
            WalkResult bestExit;
            for (const ir::NodePtr& b : n.children) {
                if (!b->pausesInSubtree.intersects(config_)) continue;
                WalkResult r = walk(*b, Mode::Resume, result);
                if (r.comp == Comp::Pause) {
                    anyPause = true;
                    agg.pauses |= r.pauses;
                } else if (r.comp == Comp::Exit) {
                    if (!anyExit || r.trapDepth < bestExit.trapDepth)
                        bestExit = r;
                    anyExit = true;
                }
            }
            if (anyExit) return {Comp::Exit, bestExit.trapId,
                                 bestExit.trapDepth, {}};
            if (anyPause) {
                agg.comp = Comp::Pause;
                return agg;
            }
            return {Comp::Term, -1, 0, {}};
        }
        case NodeKind::Abort: {
            const ir::Node& body = *n.children[0];
            const ir::Node* handler =
                n.children.size() > 1 ? n.children[1].get() : nullptr;
            if (handler && handler->pausesInSubtree.intersects(config_) &&
                !body.pausesInSubtree.intersects(config_))
                return walk(*handler, Mode::Resume, result);
            if (!n.weak) {
                if (guardValue(*n.guard)) {
                    if (handler) return walk(*handler, Mode::Start, result);
                    return {Comp::Term, -1, 0, {}};
                }
                return walk(body, Mode::Resume, result);
            }
            WalkResult r = walk(body, Mode::Resume, result);
            if (guardValue(*n.guard) && r.comp == Comp::Pause) {
                if (handler) return walk(*handler, Mode::Start, result);
                return {Comp::Term, -1, 0, {}};
            }
            return r;
        }
        case NodeKind::Suspend: {
            if (guardValue(*n.guard)) {
                WalkResult r;
                r.comp = Comp::Pause;
                r.pauses = n.pausesInSubtree;
                r.pauses &= config_;
                return r;
            }
            return walk(*n.children[0], Mode::Resume, result);
        }
        case NodeKind::Trap: {
            WalkResult r = walk(*n.children[0], Mode::Resume, result);
            if (r.comp == Comp::Exit && r.trapId == n.trapId)
                return {Comp::Term, -1, 0, {}};
            return r;
        }
        default:
            throw EclError(n.loc, "baseline: resume on pause-free node");
        }
    }

    switch (n.kind) {
    case NodeKind::Nothing: return {Comp::Term, -1, 0, {}};
    case NodeKind::Pause: {
        WalkResult r;
        r.comp = Comp::Pause;
        r.pauses.set(static_cast<std::size_t>(n.pauseId));
        return r;
    }
    case NodeKind::Emit:
        doEmit(n, result);
        return {Comp::Term, -1, 0, {}};
    case NodeKind::DataStmt: {
        ++result.actionsRun;
        const ir::DataAction& da =
            prog_.actions[static_cast<std::size_t>(n.dataActionId)];
        if (da.stmt)
            eval_.execStmt(*da.stmt);
        else if (da.expr)
            eval_.evalExpr(*da.expr);
        return {Comp::Term, -1, 0, {}};
    }
    case NodeKind::If: {
        bool taken = eval_.evalCondition(*n.condExpr);
        return walk(*n.children[taken ? 0 : 1], Mode::Start, result);
    }
    case NodeKind::Present: {
        bool taken = guardValue(*n.guard);
        return walk(*n.children[taken ? 0 : 1], Mode::Start, result);
    }
    case NodeKind::Seq: {
        WalkResult r{Comp::Term, -1, 0, {}};
        for (const ir::NodePtr& c : n.children) {
            r = walk(*c, Mode::Start, result);
            if (r.comp != Comp::Term) break;
        }
        return r;
    }
    case NodeKind::Loop: {
        int guard = 0;
        while (true) {
            WalkResult r = walk(*n.children[0], Mode::Start, result);
            if (r.comp != Comp::Term) return r;
            if (++guard > 64)
                throw EclError(n.loc, "instantaneous loop at runtime");
        }
    }
    case NodeKind::Par: {
        WalkResult agg{Comp::Term, -1, 0, {}};
        bool anyPause = false;
        bool anyExit = false;
        WalkResult bestExit;
        for (const ir::NodePtr& b : n.children) {
            WalkResult r = walk(*b, Mode::Start, result);
            if (r.comp == Comp::Pause) {
                anyPause = true;
                agg.pauses |= r.pauses;
            } else if (r.comp == Comp::Exit) {
                if (!anyExit || r.trapDepth < bestExit.trapDepth) bestExit = r;
                anyExit = true;
            }
        }
        if (anyExit)
            return {Comp::Exit, bestExit.trapId, bestExit.trapDepth, {}};
        if (anyPause) {
            agg.comp = Comp::Pause;
            return agg;
        }
        return {Comp::Term, -1, 0, {}};
    }
    case NodeKind::Abort:
    case NodeKind::Suspend:
        // Non-immediate: no guard test in the starting instant.
        return walk(*n.children[0], Mode::Start, result);
    case NodeKind::Trap: {
        WalkResult r = walk(*n.children[0], Mode::Start, result);
        if (r.comp == Comp::Exit && r.trapId == n.trapId)
            return {Comp::Term, -1, 0, {}};
        return r;
    }
    case NodeKind::Exit:
        return {Comp::Exit, n.trapId,
                prog_.trapDepth[static_cast<std::size_t>(n.trapId)], {}};
    }
    throw EclError(n.loc, "baseline: bad node kind");
}

ReactionResult RcEngine::react()
{
    ReactionResult result;
    eval_.resetCounters();
    eval_.resetOpWindow();

    if (dead_) {
        for (std::size_t i = 0; i < lastPresent_.size(); ++i)
            lastPresent_[i] = env_.isPresent(static_cast<int>(i));
        env_.beginInstant();
        result.terminated = true;
        return result;
    }

    WalkResult r;
    if (!started_) {
        started_ = true;
        r = walk(*prog_.root, Mode::Start, result);
    } else {
        r = walk(*prog_.root, Mode::Resume, result);
    }
    if (r.comp == Comp::Pause) {
        config_ = r.pauses;
    } else {
        config_ = PauseSet{};
        dead_ = true;
        result.terminated = true;
    }
    result.dataCounters = eval_.counters();

    for (std::size_t i = 0; i < lastPresent_.size(); ++i)
        lastPresent_[i] = env_.isPresent(static_cast<int>(i));
    env_.beginInstant();
    return result;
}

bool RcEngine::outputPresent(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return lastPresent_[static_cast<std::size_t>(sigIndex)];
}

Value RcEngine::outputValue(int sigIndex) const
{
    checkedSignal(sema_, sigIndex);
    return env_.signalValue(sigIndex);
}

bool RcEngine::terminated() const { return dead_; }

bool RcEngine::needsAutoResume() const
{
    bool delta = false;
    config_.forEach([&](std::size_t p) {
        if (p < prog_.pauseDelta.size() && prog_.pauseDelta[p]) delta = true;
    });
    return delta;
}

} // namespace ecl::rt
