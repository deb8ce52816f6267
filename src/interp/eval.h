// Tree-walking evaluator for the data (C) part of ECL.
//
// Executes extracted data statements, EFSM transition actions, data-predicate
// guards and emit-value expressions against a module variable store, with
// read access to signal values through the SignalReader interface. C helper
// functions are called with their own frames (arguments by value — ECL has
// no pointers; docs/LANGUAGE.md documents the deviation).
//
// The evaluator counts abstract operations (ExecCounters) which the cost
// model (src/cost) converts to MIPS-R3000-style cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/frontend/ast.h"
#include "src/interp/value.h"
#include "src/sema/sema.h"
#include "src/support/diagnostics.h"

namespace ecl {

/// Read access to the current instant's signal values, provided by the
/// reactive runtime. Indexed by SignalInfo::index of the active module.
class SignalReader {
public:
    virtual ~SignalReader() = default;
    /// Returns the value buffer of a (valued) signal. Never null; a signal
    /// that was never emitted reads as zero-initialized (Esterel leaves it
    /// unspecified; we define it for determinism).
    virtual const Value& signalValue(int sigIndex) const = 0;
};

/// Abstract operation counters (converted to cycles by src/cost).
struct ExecCounters {
    std::uint64_t exprOps = 0;   ///< arithmetic/logic node evaluations
    std::uint64_t loads = 0;     ///< scalar reads (vars, signal values)
    std::uint64_t stores = 0;    ///< scalar/aggregate writes
    std::uint64_t branches = 0;  ///< if/loop/cond decisions
    std::uint64_t calls = 0;     ///< function calls
    std::uint64_t aggBytes = 0;  ///< bytes copied in aggregate moves

    void reset() { *this = ExecCounters{}; }
    ExecCounters& operator+=(const ExecCounters& o)
    {
        exprOps += o.exprOps;
        loads += o.loads;
        stores += o.stores;
        branches += o.branches;
        calls += o.calls;
        aggBytes += o.aggBytes;
        return *this;
    }
    [[nodiscard]] std::uint64_t total() const
    {
        return exprOps + loads + stores + branches + calls;
    }
};

/// Variable storage: one Value per VarInfo index. The owning form holds
/// each variable's bytes itself; the view form (arena constructor) aliases
/// caller-managed storage at fixed offsets and can be rebased cheaply per
/// batch instance with rebindAll().
class Store {
public:
    Store() = default;
    explicit Store(const std::vector<VarInfo>& vars)
    {
        values_.reserve(vars.size());
        for (const VarInfo& v : vars) values_.emplace_back(v.type);
    }

    /// View store over an external arena: variable i lives at
    /// `base + offsets[i]`. The arena must outlive every use.
    Store(const std::vector<VarInfo>& vars, std::uint8_t* base,
          const std::vector<std::uint32_t>& offsets)
    {
        values_.reserve(vars.size());
        for (std::size_t i = 0; i < vars.size(); ++i)
            values_.push_back(
                Value::view(vars[i].type, base + offsets[i]));
    }

    /// Rebases every view onto a new arena slice (same layout).
    void rebindAll(std::uint8_t* base,
                   const std::vector<std::uint32_t>& offsets)
    {
        for (std::size_t i = 0; i < values_.size(); ++i)
            values_[i].rebind(base + offsets[i]);
    }

    [[nodiscard]] Value& at(int index) { return values_[static_cast<std::size_t>(index)]; }
    [[nodiscard]] const Value& at(int index) const
    {
        return values_[static_cast<std::size_t>(index)];
    }
    [[nodiscard]] std::size_t count() const { return values_.size(); }

    /// Total data bytes held (for the memory model).
    [[nodiscard]] std::size_t totalBytes() const
    {
        std::size_t n = 0;
        for (const Value& v : values_) n += v.size();
        return n;
    }

private:
    std::vector<Value> values_;
};

/// Statement completion for the C subset.
enum class ExecStatus { Normal, Break, Continue, Return };

struct ExecResult {
    ExecStatus status = ExecStatus::Normal;
    Value returnValue;
};

/// Evaluates expressions/statements of the data part.
class Evaluator {
public:
    /// `module` may be null when evaluating inside plain C functions only.
    /// `functionSemas` must outlive the evaluator.
    Evaluator(const ProgramSema& program,
              const std::unordered_map<std::string, FunctionSema>& functionSemas,
              const ModuleSema* module, Store* moduleStore,
              const SignalReader* signals);

    /// Evaluates an rvalue in module context.
    Value evalExpr(const ast::Expr& e);

    /// Evaluates a scalar condition (data predicate guard).
    bool evalCondition(const ast::Expr& e) { return evalExpr(e).toBool(); }

    /// Executes a data statement (no reactive constructs allowed).
    ExecResult execStmt(const ast::Stmt& s);

    /// Calls a C function by name with the given arguments.
    Value callFunction(const std::string& name, std::vector<Value> args,
                       SourceLoc loc);

    [[nodiscard]] const ExecCounters& counters() const { return counters_; }
    void resetCounters() { counters_.reset(); }

    /// Abort evaluation if more than this many abstract ops run in one
    /// window (guards against runaway extracted loops).
    void setOpBudget(std::uint64_t budget) { opBudget_ = budget; }

    /// Opens a fresh op-budget window (bc::Vm::resetOpWindow's twin).
    /// The oracle engines open one per reaction, like the reaction
    /// kernel, so a runaway loop traps in the same reaction everywhere.
    void resetOpWindow() { opsUsed_ = 0; }

private:
    struct Frame {
        const std::unordered_map<const ast::Expr*, const Type*>* exprTypes;
        const std::unordered_map<const ast::Expr*, RefKind>* refKinds;
        const std::vector<VarInfo>* vars;
        const std::unordered_map<std::string, int>* varIndex;
        Store* store;
        bool isModule;
    };

    [[noreturn]] void fail(SourceLoc loc, const std::string& msg) const;
    void charge(std::uint64_t n);

    const Type* typeOf(const ast::Expr& e) const;
    RefKind refKindOf(const ast::Expr& e) const;

    Value evalExprIn(const ast::Expr& e);
    LValue evalLValue(const ast::Expr& e);
    Value evalBinary(const ast::BinaryExpr& e);
    Value evalUnary(const ast::UnaryExpr& e);
    Value evalCall(const ast::CallExpr& e);
    Value convertScalar(const Value& v, const Type* target);

    ExecResult execStmtIn(const ast::Stmt& s);

    const ProgramSema& prog_;
    const std::unordered_map<std::string, FunctionSema>& functionSemas_;
    const ModuleSema* module_;
    const SignalReader* signals_;
    std::vector<Frame> frames_;
    ExecCounters counters_;
    std::uint64_t opBudget_ = 500'000'000;
    std::uint64_t opsUsed_ = 0;
};

} // namespace ecl
