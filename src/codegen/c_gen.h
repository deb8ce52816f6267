// AOT C synthesis from the optimized flat tables — the paper's software
// back end [1], retargeted at the same representation the VM executes.
//
// generateC() emits one self-contained C99 translation unit from the
// CompiledModule's efsm::FlatProgram + bc::Program (the post-`-O`
// pipeline output, NOT the tree walk), so whatever level the module was
// compiled at is what the native code runs:
//  * control: `int ecl_native_react(ecl_nat_ctx *)` dispatches on the
//    flat state id (computed goto under GNU C, dense switch otherwise)
//    and walks each state's decision tree as labeled straight-line code;
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
// shape the lowering cannot type statically; callers treat that as
// "native backend unavailable" and fall back to the VM
// (CompiledModule::makeEngine(EngineKind::Native)).
#pragma once

#include <string>

#include "src/core/compiler.h"

namespace ecl::codegen {

std::string generateC(const CompiledModule& module);

} // namespace ecl::codegen
