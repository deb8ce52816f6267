#include "src/runtime/batch_engine.h"

#include <algorithm>
#include <cstring>

namespace ecl::rt {

namespace {

/// Minimum reactions per participating worker: below this, waking a
/// helper (futex + cache handoff) costs more than reacting the
/// instances on the caller. Sized so a sparse step with a handful of
/// dirty instances runs caller-only while CI's dense workload (1000
/// instances / 4 threads) still uses every worker.
constexpr std::size_t kMinShardGrain = 128;

} // namespace

// ---------------------------------------------------------------------------
// Shard: per-worker scratch context
// ---------------------------------------------------------------------------

BatchEngine::Shard::Shard(const BatchEngine& engine,
                          std::uint8_t* scratchBase)
    : vm(engine.flat_, engine.code_, engine.sema_, engine.layout_,
         scratchBase)
{
    if (engine.native_)
        native = std::make_unique<NativeKernel>(*engine.native_);
}

// ---------------------------------------------------------------------------
// BatchEngine
// ---------------------------------------------------------------------------

BatchEngine::BatchEngine(const efsm::FlatProgram& flat,
                         std::shared_ptr<const bc::Program> code,
                         const ModuleSema& sema, std::size_t instances,
                         BatchOptions options,
                         std::shared_ptr<const NativeModule> native)
    : flat_(flat), code_(std::move(code)), sema_(sema),
      native_(std::move(native))
{
    if (!code_)
        throw EclError("BatchEngine requires the compiled bytecode program");

    // Fixed per-instance arena layout (shared with the verification
    // explorer's packed states): variables first, then valued-signal
    // slots, each 8-byte aligned; the whole slice padded to 64 bytes.
    layout_ = computeInstanceLayout(sema_);
    scratchSlice_.assign(layout_.stride, 0);

    if (native_) validateNativeShape(native_->info(), sema_, flat_, layout_);

    const int t = std::max(1, options.threads);
    shards_.reserve(static_cast<std::size_t>(t));
    for (int w = 0; w < t; ++w)
        shards_.push_back(
            std::make_unique<Shard>(*this, scratchSlice_.data()));
    ranges_.resize(static_cast<std::size_t>(t));
    pool_ = std::make_unique<WorkerPool>(t, [this](int w) { runShard(w); });

    for (std::size_t i = 0; i < instances; ++i) addInstance();
}

std::size_t BatchEngine::addInstance()
{
    const std::size_t id = state_.size();
    const std::size_t S = sema_.signals.size();
    state_.push_back(flat_.initialState);
    instantOpen_.push_back(0);
    dirty_.push_back(0);
    reacted_.push_back(0);
    present_.resize(present_.size() + S, 0);
    lastPresent_.resize(lastPresent_.size() + S, 0);
    dataArena_.resize(dataArena_.size() + layout_.stride, 0);
    last_.emplace_back();
    markDirty(id); // boot reaction pending
    return id;
}

void BatchEngine::parkInstance(std::size_t inst)
{
    checkInstance(inst);
    // A stale dirtyList_ entry is fine — runStep skips entries whose
    // dirty_ flag is clear.
    dirty_[inst] = 0;
    instantOpen_[inst] = 0;
}

void BatchEngine::resetInstance(std::size_t inst)
{
    checkInstance(inst);
    const std::size_t S = sema_.signals.size();
    state_[inst] = flat_.initialState;
    instantOpen_[inst] = 0;
    dirty_[inst] = 0;
    if (S != 0) {
        std::memset(presentRow(inst), 0, S);
        std::memset(lastPresent_.data() + inst * S, 0, S);
    }
    std::memset(slice(inst), 0, layout_.stride);
    last_[inst] = ReactionResult{};
    markDirty(inst); // boot reaction pending, exactly like addInstance
}

void BatchEngine::restoreInstanceState(std::size_t inst,
                                       const std::uint8_t* data,
                                       std::size_t size)
{
    checkInstance(inst);
    if (size != 4 + layout_.dataBytes)
        throw EclError("restoreInstanceState: packed state is " +
                       std::to_string(size) + " bytes, expected " +
                       std::to_string(4 + layout_.dataBytes));
    std::int32_t st = 0;
    std::memcpy(&st, data, 4);
    if (st < 0 || static_cast<std::size_t>(st) >= flat_.states.size())
        throw EclError("restoreInstanceState: control state " +
                       std::to_string(st) + " out of range (machine has " +
                       std::to_string(flat_.states.size()) + " states)");
    const std::size_t S = sema_.signals.size();
    state_[inst] = st;
    instantOpen_[inst] = 0;
    dirty_[inst] = 0;
    if (S != 0) {
        std::memset(presentRow(inst), 0, S);
        std::memset(lastPresent_.data() + inst * S, 0, S);
    }
    std::memset(slice(inst), 0, layout_.stride);
    std::memcpy(slice(inst), data + 4, layout_.dataBytes);
    last_[inst] = ReactionResult{};
    // The snapshot is post-boot: only a delta pause re-schedules it.
    if (flat_.states[static_cast<std::size_t>(st)].autoResume)
        markDirty(inst);
}

const SignalInfo& BatchEngine::checkSignal(std::size_t inst,
                                           int sigIndex) const
{
    if (inst >= state_.size())
        throw EclError("batch instance " + std::to_string(inst) +
                       " out of range");
    if (sigIndex < 0 ||
        static_cast<std::size_t>(sigIndex) >= sema_.signals.size())
        throw EclError("signal index " + std::to_string(sigIndex) +
                       " out of range");
    return sema_.signals[static_cast<std::size_t>(sigIndex)];
}

const SignalInfo& BatchEngine::checkInput(std::size_t inst,
                                          int sigIndex) const
{
    const SignalInfo& s = checkSignal(inst, sigIndex);
    if (s.dir != SignalDir::Input)
        throw EclError("'" + s.name + "' is not an input signal");
    return s;
}

void BatchEngine::markDirty(std::size_t inst)
{
    if (dirty_[inst]) return;
    dirty_[inst] = 1;
    dirtyList_.push_back(static_cast<std::uint32_t>(inst));
}

void BatchEngine::openInstant(std::size_t inst)
{
    if (instantOpen_[inst]) return;
    instantOpen_[inst] = 1;
    if (const std::size_t S = sema_.signals.size())
        std::memset(presentRow(inst), 0, S);
}

void BatchEngine::setInput(std::size_t inst, int sigIndex)
{
    checkInput(inst, sigIndex);
    openInstant(inst);
    presentRow(inst)[static_cast<std::size_t>(sigIndex)] = 1;
    markDirty(inst);
}

void BatchEngine::setInputScalar(std::size_t inst, int sigIndex,
                                 std::int64_t v)
{
    const SignalInfo& info = checkInput(inst, sigIndex);
    if (info.pure)
        throw EclError("'" + info.name + "' is pure; use setInput()");
    openInstant(inst);
    writeScalar(slice(inst) +
                    layout_.sigOffsets[static_cast<std::size_t>(info.index)],
                info.valueType, v);
    presentRow(inst)[static_cast<std::size_t>(sigIndex)] = 1;
    markDirty(inst);
}

void BatchEngine::setInputValue(std::size_t inst, int sigIndex,
                                const Value& v)
{
    const SignalInfo& info = checkInput(inst, sigIndex);
    openInstant(inst);
    writeSignalValue(slice(inst), layout_, info, v);
    presentRow(inst)[static_cast<std::size_t>(sigIndex)] = 1;
    markDirty(inst);
}

void BatchEngine::reactOne(Shard& shard, std::size_t inst)
{
    const std::size_t S = sema_.signals.size();
    std::uint8_t* base = slice(inst);
    std::uint8_t* present = presentRow(inst);

    if (!instantOpen_[inst] && S != 0) std::memset(present, 0, S);
    instantOpen_[inst] = 0;

    // The kernel overwrites the record in place: emittedOutputs keeps
    // its capacity, so steady-state reactions run allocation-free (the
    // header's contract).
    ReactionResult& result = last_[inst];
    ++shard.reactions;
    state_[inst] = shard.native
                       ? shard.native->react(base, present, state_[inst],
                                             &result)
                       : shard.vm.react(base, present, state_[inst], &result);

    if (S != 0)
        std::memcpy(lastPresent_.data() + inst * S, present, S);
    reacted_[inst] = 1;
    for (int sig : result.emittedOutputs)
        shard.events.push_back({static_cast<std::uint32_t>(inst), sig});
}

void BatchEngine::runShard(int w)
{
    Shard& s = *shards_[static_cast<std::size_t>(w)];
    const auto [begin, end] = ranges_[static_cast<std::size_t>(w)];
    try {
        // Sub-step 0: the shard's contiguous slice of work_. When the
        // epoch drains more than one step, collect the auto-resume
        // survivors (ascending, since the slice is) for re-reaction
        // without another pool wakeup.
        s.active.clear();
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t inst = work_[i];
            reactOne(s, inst);
            if (drainSteps_ > 1 &&
                flat_.states[static_cast<std::size_t>(state_[inst])]
                    .autoResume)
                s.active.push_back(inst);
        }
        s.substepEnds.push_back(static_cast<std::uint32_t>(s.events.size()));
        for (int sub = 1; sub < drainSteps_; ++sub) {
            // Pad the boundary even when this shard has nothing left so
            // the merged stream stays sub-step aligned across shards.
            s.nextActive.clear();
            for (const std::uint32_t inst : s.active) {
                reactOne(s, inst);
                if (flat_.states[static_cast<std::size_t>(state_[inst])]
                        .autoResume)
                    s.nextActive.push_back(inst);
            }
            s.active.swap(s.nextActive);
            s.substepEnds.push_back(
                static_cast<std::uint32_t>(s.events.size()));
        }
    } catch (...) {
        s.error = std::current_exception();
    }
}

std::size_t BatchEngine::runStep(bool all, int drainSteps)
{
    // Clear the reacted flags of exactly the instances the previous step
    // touched. The sparse path must never pay an O(instances) fill for a
    // handful of dirty instances — that fill alone dominated the old
    // per-dispatched-reaction cost.
    for (const std::uint32_t inst : work_) reacted_[inst] = 0;

    work_.clear();
    if (all) {
        work_.reserve(state_.size());
        for (std::size_t i = 0; i < state_.size(); ++i)
            work_.push_back(static_cast<std::uint32_t>(i));
        std::fill(dirty_.begin(), dirty_.end(), 0);
        dirtyList_.clear();
    } else {
        for (std::uint32_t inst : dirtyList_) {
            if (!dirty_[inst]) continue; // stale (parked or reset)
            dirty_[inst] = 0;
            work_.push_back(inst);
        }
        dirtyList_.clear();
        std::sort(work_.begin(), work_.end());
    }
    stepEvents_.clear();
    eventsMerged_ = true;
    participants_ = 0;
    drainSteps_ = drainSteps;
    if (work_.empty()) return 0;

    // Small epochs run on fewer workers (down to the caller alone):
    // below kMinShardGrain reactions per worker the wakeup costs more
    // than the work, and the contiguous partition keeps the merged
    // event order identical however many participate.
    std::size_t parts = work_.size() / kMinShardGrain;
    if (parts < 1) parts = 1;
    if (parts > shards_.size()) parts = shards_.size();
    for (std::size_t w = 0; w < parts; ++w) {
        Shard& s = *shards_[w];
        s.events.clear();
        s.substepEnds.clear();
        s.reactions = 0;
        s.error = nullptr;
    }
    const std::size_t chunk = (work_.size() + parts - 1) / parts;
    for (std::size_t w = 0; w < parts; ++w) {
        const std::size_t b = std::min(work_.size(), w * chunk);
        ranges_[w] = {b, std::min(work_.size(), b + chunk)};
    }
    participants_ = parts;
    eventsMerged_ = false;

    pool_->run(static_cast<int>(parts));

    std::size_t reactions = 0;
    for (std::size_t w = 0; w < parts; ++w) {
        if (shards_[w]->error) std::rethrow_exception(shards_[w]->error);
        reactions += shards_[w]->reactions;
    }

    // Delta pauses keep instances scheduled without new events (the same
    // rule rtos::Network applies to its tasks). For a drain epoch the
    // final state decides: survivors the sub-step budget cut off resume
    // next step, chains that settled do not.
    for (std::uint32_t inst : work_)
        if (flat_.states[static_cast<std::size_t>(state_[inst])].autoResume)
            markDirty(inst);
    return reactions;
}

void BatchEngine::mergeStepEvents() const
{
    if (eventsMerged_) return;
    eventsMerged_ = true;
    stepEvents_.clear();
    std::size_t total = 0;
    for (std::size_t w = 0; w < participants_; ++w)
        total += shards_[w]->events.size();
    stepEvents_.reserve(total);
    // Sub-step major, shard minor: each shard's [prev, end) slice holds
    // that sub-step's events in ascending instance order, and the shard
    // ranges partition work_ contiguously — so the concatenation equals
    // the event stream of the equivalent sequential step() loop. The
    // bounds fall back to events.size() so a shard that faulted mid-epoch
    // (short substepEnds) still merges what it produced.
    for (int sub = 0; sub < drainSteps_; ++sub) {
        for (std::size_t w = 0; w < participants_; ++w) {
            const Shard& s = *shards_[w];
            const std::size_t e =
                static_cast<std::size_t>(sub) < s.substepEnds.size()
                    ? s.substepEnds[static_cast<std::size_t>(sub)]
                    : s.events.size();
            std::size_t b = 0;
            if (sub > 0)
                b = static_cast<std::size_t>(sub - 1) < s.substepEnds.size()
                        ? s.substepEnds[static_cast<std::size_t>(sub - 1)]
                        : s.events.size();
            if (b > e) b = e;
            stepEvents_.insert(stepEvents_.end(), s.events.begin() + b,
                               s.events.begin() + e);
        }
    }
}

std::size_t BatchEngine::step() { return runStep(/*all=*/false, 1); }

std::size_t BatchEngine::stepAll() { return runStep(/*all=*/true, 1); }

std::size_t BatchEngine::stepDrain(int maxSteps)
{
    if (maxSteps < 1) return 0;
    return runStep(/*all=*/false, maxSteps);
}

void BatchEngine::checkInstance(std::size_t inst) const
{
    if (inst >= state_.size())
        throw EclError("batch instance " + std::to_string(inst) +
                       " out of range");
}

bool BatchEngine::reactedLastStep(std::size_t inst) const
{
    checkInstance(inst);
    return reacted_[inst] != 0;
}

const ReactionResult& BatchEngine::lastResult(std::size_t inst) const
{
    checkInstance(inst);
    return last_[inst];
}

std::vector<std::uint8_t>
BatchEngine::packInstanceState(std::size_t inst) const
{
    checkInstance(inst);
    std::vector<std::uint8_t> out(4 + layout_.dataBytes, 0);
    const std::int32_t st = state_[inst];
    std::memcpy(out.data(), &st, 4);
    std::memcpy(out.data() + 4, dataArena_.data() + inst * layout_.stride,
                layout_.dataBytes);
    return out;
}

bool BatchEngine::outputPresent(std::size_t inst, int sigIndex) const
{
    checkSignal(inst, sigIndex);
    return lastPresent_[inst * sema_.signals.size() +
                        static_cast<std::size_t>(sigIndex)] != 0;
}

Value BatchEngine::outputValue(std::size_t inst, int sigIndex) const
{
    const SignalInfo& info = checkSignal(inst, sigIndex);
    if (info.pure)
        throw EclError("value read on pure signal '" + info.name + "'");
    return Value::fromBytes(
        info.valueType,
        dataArena_.data() + inst * layout_.stride +
            layout_.sigOffsets[static_cast<std::size_t>(info.index)]);
}

bool BatchEngine::terminated(std::size_t inst) const
{
    checkInstance(inst);
    return flat_.states[static_cast<std::size_t>(state_[inst])].dead;
}

bool BatchEngine::needsAutoResume(std::size_t inst) const
{
    checkInstance(inst);
    return flat_.states[static_cast<std::size_t>(state_[inst])].autoResume;
}

bool BatchEngine::pendingDirty(std::size_t inst) const
{
    checkInstance(inst);
    return dirty_[inst] != 0;
}

bool BatchEngine::hasStagedInputs(std::size_t inst) const
{
    checkInstance(inst);
    return instantOpen_[inst] != 0;
}

bool BatchEngine::hasPendingWork() const
{
    // dirtyList_ may hold stale entries (parked or reset slots); the
    // dirty_ flags rule.
    for (const std::uint32_t inst : dirtyList_)
        if (dirty_[inst]) return true;
    return false;
}

} // namespace ecl::rt
