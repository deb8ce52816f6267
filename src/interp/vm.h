// Register VM executing compiled data bytecode (src/interp/bytecode.h).
//
// One Vm lives inside each VM reaction kernel (src/runtime/kernel.h),
// one per SyncEngine or per worker thread. Registers hold
// scalars unboxed (a normalized int64 plus its static Type) and aggregates
// in per-register scratch buffers that are allocated once and reused, so a
// steady-state reaction runs without heap allocation — unlike the
// tree-walking Evaluator, which builds a fresh Value per AST node. Counter
// semantics (ExecCounters) are bit-identical to the Evaluator's; the op
// budget is approximated per instruction (it is a runaway guard, not a
// metered quantity).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/interp/bytecode.h"
#include "src/interp/eval.h"
#include "src/interp/value.h"

namespace ecl::bc {

class Vm {
public:
    /// `prog` is shared with the CompiledModule that produced it. The Vm
    /// holds no instance state: every call borrows the module store and
    /// signal reader it runs against, so one Vm (and its allocation-free
    /// scratch: register files, function frames) serves every instance
    /// its reaction kernel reacts.
    explicit Vm(std::shared_ptr<const Program> prog);

    /// Runs an expression chunk and materializes the result as a Value
    /// (emit-value path).
    Value runExpr(int chunk, Store& store, const SignalReader& signals);
    /// Runs an expression chunk as a condition (data-predicate path).
    bool runPredicate(int chunk, Store& store, const SignalReader& signals);
    /// Runs a statement chunk (data-action path).
    void runAction(int chunk, Store& store, const SignalReader& signals);

    [[nodiscard]] const ExecCounters& counters() const { return counters_; }
    void resetCounters() { counters_.reset(); }

    /// Mirrors Evaluator::setOpBudget (runaway-loop guard over one
    /// window; see resetOpWindow).
    void setOpBudget(std::uint64_t budget) { opBudget_ = budget; }

    /// Restarts the op-budget window. The reaction kernel
    /// (src/runtime/kernel.h) opens one per reaction, so the guard bounds
    /// one instant of one instance, however many instances a Vm serves.
    void resetOpWindow() { opsUsed_ = 0; }

private:
    struct Reg {
        std::int64_t i = 0;
        const Type* type = nullptr;
        std::uint8_t* ptr = nullptr;            ///< Lvalue or aggregate bytes.
        std::vector<std::uint8_t> buf;          ///< Owned aggregate scratch.
    };
    using RegFile = std::vector<Reg>;

    struct ChunkResult {
        bool returned = false; ///< Hit Ret/RetVoid (function bodies only).
        bool hasValue = false;
        std::uint16_t reg = 0;
    };

    ChunkResult execChunk(int chunk, Store& store, RegFile& regs, int depth);
    /// Shared Binary/BinaryImm arithmetic (operands already fetched).
    void applyBinary(Reg& r, std::int32_t op, std::int64_t a, std::int64_t b,
                     SourceLoc loc);
    /// Shared IncDec/IncDecVar read-modify-write on a scalar location.
    void applyIncDec(Reg& r, std::int32_t op, std::uint8_t* p, const Type* t);
    RegFile& fileForDepth(int depth);
    std::unique_ptr<Store> acquireStore(int fnIndex);
    void releaseStore(int fnIndex, std::unique_ptr<Store> store);

    std::shared_ptr<const Program> prog_;
    const SignalReader* activeSignals_ = nullptr; ///< This call's reader.
    ExecCounters counters_;
    std::uint64_t opBudget_ = 500'000'000;
    std::uint64_t opsUsed_ = 0;
    std::vector<std::unique_ptr<RegFile>> regPool_; ///< Indexed by depth.
    std::vector<std::vector<std::unique_ptr<Store>>> storePool_; ///< By fn.
};

} // namespace ecl::bc
