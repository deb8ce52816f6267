// The reaction kernel: one instant of one instance, over that instance's
// InstanceLayout bytes, its presence row and a control state.
//
// The paper's runtime does one thing per instant: it walks the compiled
// EFSM's decision tree once. That walk lives here and nowhere else, in
// exactly two implementations with the same entry point:
//  * VmKernel walks the efsm::FlatProgram DAG and runs its data chunks
//    through a bc::Vm over a view Store and an ArenaSigView of the bytes;
//  * NativeKernel calls the AOT-compiled `ecl_native_react`, which walks
//    the same tables compiled to C over the same bytes.
// Every arena runtime calls them: SyncEngine (one instance), BatchEngine
// and the serving fleet (one call per reacted instance) and the
// verification explorer (one call per expanded transition). The
// tree-walking TreeEngine and the Reactive-C-style RcEngine are the
// independent oracles the differential suites compare them against.
//
// react(data, present, state, result) runs the reaction that starts in
// control state `state` with the inputs already staged in `present` and
// `data`, marks every emission present (locals included), writes emitted
// values into `data` and returns the next control state. It throws
// EclError when the reaction traps; `data` and `present` then hold
// whatever the reaction wrote before the trap. When `result` is non-null
// the whole record is overwritten: outputs in emission order,
// termination, walk counters, and the VM's ExecCounters (zero on the
// native kernel). The explorer passes null and pays for none of it.
//
// Runaway guard: each react() opens a fresh window, the VM's op budget
// (bc::Vm::setOpBudget, 500M by default) or the native fuel
// (kNativeReactFuel), so the guard bounds one reaction, never an
// instance's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/efsm/flatten.h"
#include "src/interp/eval.h"
#include "src/interp/vm.h"
#include "src/runtime/instance_layout.h"
#include "src/runtime/native_abi.h"
#include "src/sema/sema.h"

namespace ecl::rt {

class NativeModule;

struct ReactionResult {
    std::vector<int> emittedOutputs; ///< Output-signal indices, in order.
    bool terminated = false;
    std::uint64_t treeTests = 0;  ///< Decision nodes walked (EFSM) or IR
                                  ///< nodes visited (baseline).
    std::uint64_t actionsRun = 0;
    std::uint64_t emitsRun = 0;   ///< All emissions (incl. local signals).
    ExecCounters dataCounters;    ///< From the data evaluator.
};

/// Writes `v` into signal `info`'s slot of an instance's bytes with
/// SignalEnv::setValue's normalization: scalars convert to the signal's
/// value type, aggregates must match it exactly. Presence is the
/// caller's. Throws EclError for a pure signal or a type mismatch.
void writeSignalValue(std::uint8_t* data, const InstanceLayout& layout,
                      const SignalInfo& info, const Value& v);

/// The VM implementation. One per thread: the Vm's register files and
/// the views are scratch shared by every instance it reacts.
class VmKernel {
public:
    /// The tables, program, sema and layout must outlive the kernel;
    /// `data` is the instance the views start on (any stride-sized
    /// buffer; react() rebinds when handed different bytes).
    VmKernel(const efsm::FlatProgram& flat,
             std::shared_ptr<const bc::Program> code, const ModuleSema& sema,
             const InstanceLayout& layout, std::uint8_t* data);

    VmKernel(const VmKernel&) = delete;
    VmKernel& operator=(const VmKernel&) = delete;

    int react(std::uint8_t* data, std::uint8_t* present, int state,
              ReactionResult* result);

    /// The Vm itself (op budget, tests).
    [[nodiscard]] bc::Vm& vm() { return vm_; }

private:
    template <bool kRecord>
    int walk(std::uint8_t* data, std::uint8_t* present, int state,
             ReactionResult* result);

    const efsm::FlatProgram& flat_;
    const ModuleSema& sema_;
    const InstanceLayout& layout_;
    bc::Vm vm_;
    Store store_;
    ArenaSigView sigs_;
    std::uint8_t* bound_;
};

/// The native implementation over a loaded module whose shape the
/// caller has validated (validateNativeShape). One per thread: it owns
/// the output ring the generated code writes.
class NativeKernel {
public:
    explicit NativeKernel(const NativeModule& module);

    int react(std::uint8_t* data, std::uint8_t* present, int state,
              ReactionResult* result);

private:
    EclNativeReactFn fn_;
    std::vector<std::int32_t> emitted_;
};

} // namespace ecl::rt
