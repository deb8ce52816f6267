#include "src/runtime/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/runtime/native_module.h"

namespace ecl::rt {

void writeSignalValue(std::uint8_t* data, const InstanceLayout& layout,
                      const SignalInfo& info, const Value& v)
{
    if (info.pure)
        throw EclError("cannot set a value on pure signal '" + info.name +
                       "'");
    std::uint8_t* slot =
        data + layout.sigOffsets[static_cast<std::size_t>(info.index)];
    if (info.valueType->isScalar())
        writeScalar(slot, info.valueType, v.toInt());
    else if (v.type() == info.valueType)
        std::memcpy(slot, v.data(), info.valueType->size());
    else
        throw EclError("signal value type mismatch for '" + info.name + "'");
}

// ---------------------------------------------------------------------------
// VmKernel
// ---------------------------------------------------------------------------

VmKernel::VmKernel(const efsm::FlatProgram& flat,
                   std::shared_ptr<const bc::Program> code,
                   const ModuleSema& sema, const InstanceLayout& layout,
                   std::uint8_t* data)
    : flat_(flat), sema_(sema), layout_(layout), vm_(std::move(code)),
      store_(sema.vars, data, layout.varOffsets), sigs_(sema, layout, data),
      bound_(data)
{
}

int VmKernel::react(std::uint8_t* data, std::uint8_t* present, int state,
                    ReactionResult* result)
{
    if (data != bound_) {
        store_.rebindAll(data, layout_.varOffsets);
        sigs_.bind(data);
        bound_ = data;
    }
    vm_.resetOpWindow();
    return result ? walk<true>(data, present, state, result)
                  : walk<false>(data, present, state, nullptr);
}

template <bool kRecord>
int VmKernel::walk(std::uint8_t* data, std::uint8_t* present, int state,
                   ReactionResult* result)
{
    if constexpr (kRecord) {
        result->emittedOutputs.clear(); // keeps capacity
        result->terminated = false;
        result->treeTests = 0;
        result->actionsRun = 0;
        result->emitsRun = 0;
        vm_.resetCounters();
    }
    const efsm::FlatNode* nodes = flat_.nodes.data();
    const efsm::FlatAction* actions = flat_.actions.data();
    auto runActions = [&](const efsm::FlatNode& node) {
        for (std::int32_t i = node.actionsBegin; i < node.actionsEnd; ++i) {
            const efsm::FlatAction& a = actions[i];
            if constexpr (kRecord) ++result->actionsRun;
            if (a.kind == efsm::FlatAction::Kind::Emit) {
                if (a.chunk >= 0)
                    writeSignalValue(
                        data, layout_,
                        sema_.signals[static_cast<std::size_t>(a.signal)],
                        vm_.runExpr(a.chunk, store_, sigs_));
                present[a.signal] = 1;
                if constexpr (kRecord) {
                    ++result->emitsRun;
                    if (a.isOutput) result->emittedOutputs.push_back(a.signal);
                }
            } else if (a.chunk >= 0) {
                vm_.runAction(a.chunk, store_, sigs_);
            }
        }
    };

    const efsm::FlatNode* node =
        &nodes[flat_.states[static_cast<std::size_t>(state)].root];
    while (!node->isLeaf()) {
        runActions(*node);
        if constexpr (kRecord) ++result->treeTests;
        const bool taken =
            node->testSignal >= 0
                ? present[node->testSignal] != 0
                : vm_.runPredicate(node->predChunk, store_, sigs_);
        node = &nodes[taken ? node->onTrue : node->onFalse];
    }
    if (node->runtimeError())
        throw EclError("instantaneous loop detected at runtime (a "
                       "statically-unverifiable loop path was reached)");
    runActions(*node);
    if constexpr (kRecord) {
        result->terminated =
            node->terminates() ||
            flat_.states[static_cast<std::size_t>(node->nextState)].dead;
        result->dataCounters = vm_.counters();
    }
    return node->nextState;
}

// ---------------------------------------------------------------------------
// NativeKernel
// ---------------------------------------------------------------------------

NativeKernel::NativeKernel(const NativeModule& module)
    : fn_(module.react()),
      emitted_(std::max<std::uint32_t>(module.info().max_emits, 1), 0)
{
}

int NativeKernel::react(std::uint8_t* data, std::uint8_t* present, int state,
                        ReactionResult* result)
{
    EclNativeCtx ctx{};
    ctx.data = data;
    ctx.present = present;
    ctx.emitted = emitted_.data();
    ctx.state = state;
    ctx.depth = 1; // Module chunks run at the VM's depth 1.
    ctx.fuel = kNativeReactFuel;
    if (fn_(&ctx) != 0)
        throw EclError(ctx.error ? ctx.error
                                 : "native reaction failed without a "
                                   "message");
    if (result) {
        result->emittedOutputs.assign(emitted_.begin(),
                                      emitted_.begin() + ctx.emitted_count);
        result->terminated = ctx.terminated != 0;
        result->treeTests = ctx.tree_tests;
        result->actionsRun = ctx.actions_run;
        result->emitsRun = ctx.emits_run;
        result->dataCounters.reset();
    }
    return ctx.state;
}

} // namespace ecl::rt
