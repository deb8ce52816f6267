// AOT C synthesis from the optimized flat tables — the paper's software
// back end [1], retargeted at the same representation the VM executes.
//
// generateC() emits one self-contained C99 translation unit from the
// CompiledModule's efsm::FlatProgram + bc::Program (the post-`-O`
// pipeline output, NOT the tree walk), so whatever level the module was
// compiled at is what the native code runs:
//  * control: `int ecl_native_react(ecl_nat_ctx *)` arms the trap
//    jmp_buf and calls a static walk function, which dispatches on the
//    flat state id (computed goto under GNU C, dense switch otherwise)
//    and walks each state's decision tree as labeled straight-line code.
//    The walk keeps its bookkeeping in locals (next state, terminated
//    flag, emitted count, one packed walk counter) and writes the
//    context once, at its exit label;
//  * data: every bytecode chunk the flat tables reference (predicates,
//    data actions, emit values, called C helpers) is lowered to a static
//    C function with VM-exact semantics — normalizeScalar casts, `& 63`
//    shift masks, division/remainder-by-zero and array-bounds traps,
//    little-endian scalar encoding, zeroed per-call function frames and
//    the 64-frame call-depth limit;
//  * state: module variables and valued-signal slots live in the caller's
//    instance arena at the exact offsets of computeInstanceLayout()
//    (src/runtime/instance_layout.h), so a native instance's bytes are
//    drop-in compatible with the VM's packed state (packState(),
//    BatchEngine arenas, the verifier's states).
//
// The caller-provided context struct (`ecl_nat_ctx`) and the exported
// metadata record (`ecl_module_info`) mirror src/runtime/native_abi.h —
// keep the two in lockstep (kEclNativeAbiVersion guards drift at dlopen
// time). Runtime traps longjmp out of the reaction with `ctx->error` set;
// they never call into the host.
//
// Divergence from the VM, by design: ExecCounters are not metered (the
// whole point of compiling is that data instructions stop being
// countable events) and the op budget is approximated by a backward-
// branch fuel counter (`ctx->fuel`). Engine-level counters (tree_tests,
// actions_run, emits_run) ARE maintained exactly.
//
// Throws EclError when the module has no flat program or a chunk uses a
// shape the lowering cannot type statically, and EmissionLimitError when
// the module exceeds an emission bound; callers treat either as "native
// backend unavailable" and fall back to the VM
// (CompiledModule::makeEngine(EngineKind::Native)).
#pragma once

#include <cstddef>
#include <string>

#include "src/core/compiler.h"

namespace ecl::codegen {

/// Largest translation unit generateC() emits, in bytes. Emission stops
/// as soon as the C passes it, so an oversized module costs neither the
/// full text nor a host `cc` run. par_pure10 emits 1.08 MB at -O2 (the
/// largest C any test or bench builds); its -O0 tree would be 10.4 MB,
/// which this budget rejects.
inline constexpr std::size_t kMaxGeneratedCBytes = std::size_t{4} << 20;

/// Field widths of the packed walk counter `ecl_k`: each decision node
/// adds one compile-time constant holding its tree tests (low field),
/// actions and emits, and the walk's exit label unpacks the sums.
inline constexpr unsigned kPackedTestBits = 21;
inline constexpr unsigned kPackedActionBits = 21;
inline constexpr unsigned kPackedEmitBits = 22;

/// A module exceeds an emission bound (the C-size budget, or a packed
/// counter field); the message names the bound.
class EmissionLimitError : public EclError {
public:
    using EclError::EclError;
};

/// Throws EmissionLimitError when some root-to-leaf path of `flat` sums
/// more tree tests, actions or emits than its packed counter field
/// holds, so one reaction's counters could carry into the next field.
/// generateC() runs it before emitting anything.
void checkPackedCounters(const efsm::FlatProgram& flat);

std::string generateC(const CompiledModule& module);

} // namespace ecl::codegen
