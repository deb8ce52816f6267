#include "src/interp/vm.h"

#include <cstring>

namespace ecl::bc {

namespace {

[[noreturn]] void fail(SourceLoc loc, const std::string& msg)
{
    throw EclError(loc, "runtime: " + msg);
}

/// Copies an aggregate into the register's owned scratch buffer (grows
/// once; steady-state reactions reuse the capacity).
void setAggregate(auto& reg, const Type* t, const std::uint8_t* src)
{
    reg.type = t;
    reg.buf.resize(t->size());
    std::memcpy(reg.buf.data(), src, t->size());
    reg.ptr = reg.buf.data();
}

} // namespace

Vm::Vm(std::shared_ptr<const Program> prog) : prog_(std::move(prog)) {}

Vm::RegFile& Vm::fileForDepth(int depth)
{
    auto d = static_cast<std::size_t>(depth);
    while (regPool_.size() <= d)
        regPool_.push_back(std::make_unique<RegFile>(prog_->maxRegs));
    return *regPool_[d];
}

std::unique_ptr<Store> Vm::acquireStore(int fnIndex)
{
    auto f = static_cast<std::size_t>(fnIndex);
    if (storePool_.size() <= f) storePool_.resize(f + 1);
    if (!storePool_[f].empty()) {
        std::unique_ptr<Store> s = std::move(storePool_[f].back());
        storePool_[f].pop_back();
        // The Evaluator builds a fresh zero-initialized frame per call.
        for (std::size_t i = 0; i < s->count(); ++i)
            s->at(static_cast<int>(i)).zero();
        return s;
    }
    return std::make_unique<Store>(
        *prog_->functions[f].vars);
}

void Vm::releaseStore(int fnIndex, std::unique_ptr<Store> store)
{
    storePool_[static_cast<std::size_t>(fnIndex)].push_back(std::move(store));
}

Value Vm::runExpr(int chunk, Store& store, const SignalReader& signals)
{
    activeSignals_ = &signals;
    RegFile& regs = fileForDepth(1);
    ChunkResult r = execChunk(chunk, store, regs, 1);
    const Reg& v = regs[r.reg];
    if (v.type->isScalar()) return Value::fromInt(v.type, v.i);
    return Value::fromBytes(v.type, v.ptr);
}

bool Vm::runPredicate(int chunk, Store& store, const SignalReader& signals)
{
    activeSignals_ = &signals;
    RegFile& regs = fileForDepth(1);
    ChunkResult r = execChunk(chunk, store, regs, 1);
    return regs[r.reg].i != 0;
}

void Vm::runAction(int chunk, Store& store, const SignalReader& signals)
{
    activeSignals_ = &signals;
    execChunk(chunk, store, fileForDepth(1), 1);
}

Vm::ChunkResult Vm::execChunk(int chunk, Store& store, RegFile& regs,
                              int depth)
{
    const Instr* code = prog_->code.data();
    std::uint32_t pc = prog_->chunks[static_cast<std::size_t>(chunk)].begin;

    while (true) {
        const Instr& I = code[pc];
        if (++opsUsed_ > opBudget_)
            throw EclError(
                "runtime: op budget exceeded (runaway data loop?)");
        switch (I.op) {
        case Op::ConstInt: {
            Reg& r = regs[I.a];
            counters_.exprOps++;
            r.i = I.imm64;
            r.type = I.type;
            break;
        }
        case Op::LoadVarSc: {
            Reg& r = regs[I.a];
            counters_.loads++;
            r.i = readScalar(store.at(I.imm).data(), I.type);
            r.type = I.type;
            break;
        }
        case Op::LoadVarAg: {
            counters_.loads++;
            setAggregate(regs[I.a], I.type, store.at(I.imm).data());
            break;
        }
        case Op::LoadSig: {
            counters_.loads++;
            const Value& v = activeSignals_->signalValue(I.imm);
            Reg& r = regs[I.a];
            if (v.type()->isScalar()) {
                r.i = readScalar(v.data(), v.type());
                r.type = v.type();
            } else {
                setAggregate(r, v.type(), v.data());
            }
            break;
        }
        case Op::AddrVar: {
            Reg& r = regs[I.a];
            Value& v = store.at(I.imm);
            r.ptr = v.data();
            r.type = v.type();
            break;
        }
        case Op::AddrSig: {
            Reg& r = regs[I.a];
            // Read-only path; sema rejects writes through signal values
            // (same const_cast contract as Evaluator::evalLValue).
            const Value& v = activeSignals_->signalValue(I.imm);
            r.ptr = const_cast<std::uint8_t*>(v.data());
            r.type = v.type();
            break;
        }
        case Op::AddrIndex: {
            std::uint8_t* basePtr = regs[I.b].ptr;
            const Type* baseType = regs[I.b].type;
            std::int64_t idx = regs[I.c].i;
            counters_.exprOps++;
            if (baseType->kind() != TypeKind::Array)
                fail(I.loc, "indexing non-array");
            if (idx < 0 ||
                static_cast<std::size_t>(idx) >= baseType->count())
                fail(I.loc, "array index " + std::to_string(idx) +
                                " out of bounds [0," +
                                std::to_string(baseType->count()) + ")");
            const Type* elem = baseType->element();
            Reg& r = regs[I.a];
            r.ptr = basePtr + static_cast<std::size_t>(idx) * elem->size();
            r.type = elem;
            break;
        }
        case Op::AddrField: {
            std::uint8_t* basePtr = regs[I.b].ptr;
            Reg& r = regs[I.a];
            r.ptr = basePtr + I.imm;
            r.type = I.type;
            break;
        }
        case Op::LoadInd: {
            std::uint8_t* p = regs[I.b].ptr;
            const Type* t = regs[I.b].type;
            counters_.loads++;
            Reg& r = regs[I.a];
            if (t->isScalar()) {
                r.i = readScalar(p, t);
                r.type = t;
            } else {
                setAggregate(r, t, p);
            }
            break;
        }
        case Op::Unary: {
            std::int64_t v = regs[I.b].i;
            const Type* vt = regs[I.b].type;
            counters_.exprOps++;
            Reg& r = regs[I.a];
            switch (static_cast<ast::UnaryOp>(I.imm)) {
            case ast::UnaryOp::Plus:
                r.i = v;
                r.type = vt;
                break;
            case ast::UnaryOp::Minus:
                r.i = normalizeScalar(prog_->intType, -v);
                r.type = prog_->intType;
                break;
            case ast::UnaryOp::Not:
                r.i = v != 0 ? 0 : 1;
                r.type = prog_->boolType;
                break;
            case ast::UnaryOp::BitNot:
                if (vt->isBool()) { // `if (~crc_ok)` means logical not
                    r.i = v != 0 ? 0 : 1;
                    r.type = prog_->boolType;
                } else {
                    r.i = normalizeScalar(prog_->intType, ~v);
                    r.type = prog_->intType;
                }
                break;
            default: fail(I.loc, "bad unary op");
            }
            break;
        }
        case Op::IncDec: {
            counters_.exprOps++;
            counters_.loads++;
            counters_.stores++;
            applyIncDec(regs[I.a], I.imm, regs[I.b].ptr, regs[I.b].type);
            break;
        }
        case Op::Binary: {
            counters_.exprOps++;
            applyBinary(regs[I.a], I.imm, regs[I.b].i, regs[I.c].i, I.loc);
            break;
        }
        case Op::BinaryImm: {
            counters_.exprOps += 2; // the fused ConstInt + the binop
            applyBinary(regs[I.a], I.imm, regs[I.b].i, I.imm64, I.loc);
            break;
        }
        case Op::Cast: {
            const Reg& src = regs[I.b];
            counters_.exprOps++;
            std::int64_t raw =
                src.type->isScalar()
                    ? src.i
                    // Array reinterpretation (paper Figure 2): LE bytes.
                    : readBytesLE(src.ptr, src.type->size());
            Reg& r = regs[I.a];
            r.i = normalizeScalar(I.type, raw);
            r.type = I.type;
            break;
        }
        case Op::BoolVal: {
            std::int64_t v = regs[I.b].i;
            Reg& r = regs[I.a];
            r.i = v != 0 ? 1 : 0;
            r.type = I.type;
            break;
        }
        case Op::SetBool: {
            Reg& r = regs[I.a];
            r.i = I.imm;
            r.type = I.type;
            break;
        }
        case Op::StoreSc: {
            std::uint8_t* p = regs[I.b].ptr;
            const Type* t = regs[I.b].type;
            std::int64_t v = regs[I.c].i;
            counters_.stores++;
            writeScalar(p, t, v);
            Reg& r = regs[I.a];
            r.i = normalizeScalar(t, v);
            r.type = t;
            break;
        }
        case Op::StoreVarSc: {
            Value& slot = store.at(I.imm);
            std::int64_t v = regs[I.c].i;
            counters_.stores++;
            writeScalar(slot.data(), slot.type(), v);
            Reg& r = regs[I.a];
            r.i = normalizeScalar(slot.type(), v);
            r.type = slot.type();
            break;
        }
        case Op::IncDecVar: {
            Value& slot = store.at(static_cast<int>(I.imm64));
            counters_.exprOps++;
            counters_.loads++;
            counters_.stores++;
            applyIncDec(regs[I.a], I.imm, slot.data(), slot.type());
            break;
        }
        case Op::AddrVarOff: {
            Reg& r = regs[I.a];
            Value& v = store.at(I.imm);
            r.ptr = v.data() + I.imm64;
            r.type = I.type;
            break;
        }
        case Op::AddrSigOff: {
            Reg& r = regs[I.a];
            const Value& v = activeSignals_->signalValue(I.imm);
            // Read-only path, same const_cast contract as AddrSig.
            r.ptr = const_cast<std::uint8_t*>(v.data()) + I.imm64;
            r.type = I.type;
            break;
        }
        case Op::AddrIndexVar: {
            counters_.loads++; // the fused index LoadVarSc
            std::int64_t idx = readScalar(store.at(I.imm).data(), I.type);
            std::uint8_t* basePtr = regs[I.b].ptr;
            const Type* baseType = regs[I.b].type;
            counters_.exprOps++;
            if (baseType->kind() != TypeKind::Array)
                fail(I.loc, "indexing non-array");
            if (idx < 0 ||
                static_cast<std::size_t>(idx) >= baseType->count())
                fail(I.loc, "array index " + std::to_string(idx) +
                                " out of bounds [0," +
                                std::to_string(baseType->count()) + ")");
            const Type* elem = baseType->element();
            Reg& r = regs[I.a];
            r.ptr = basePtr + static_cast<std::size_t>(idx) * elem->size();
            r.type = elem;
            break;
        }
        case Op::StoreVarImm: {
            Value& slot = store.at(I.imm);
            counters_.exprOps++; // the fused ConstInt
            counters_.stores++;
            writeScalar(slot.data(), slot.type(), I.imm64);
            Reg& r = regs[I.a];
            r.i = normalizeScalar(slot.type(), I.imm64);
            r.type = slot.type();
            break;
        }
        case Op::StoreCompound: {
            std::uint8_t* p = regs[I.b].ptr;
            const Type* t = regs[I.b].type;
            std::int64_t b = regs[I.c].i;
            counters_.loads++;
            std::int64_t a = readScalar(p, t);
            std::int64_t v = 0;
            switch (static_cast<ast::AssignOp>(I.imm)) {
            case ast::AssignOp::Add: v = a + b; break;
            case ast::AssignOp::Sub: v = a - b; break;
            case ast::AssignOp::Mul: v = a * b; break;
            case ast::AssignOp::Div:
                if (b == 0) fail(I.loc, "division by zero");
                v = a / b;
                break;
            case ast::AssignOp::Rem:
                if (b == 0) fail(I.loc, "remainder by zero");
                v = a % b;
                break;
            case ast::AssignOp::Shl: v = a << (b & 63); break;
            case ast::AssignOp::Shr: v = a >> (b & 63); break;
            case ast::AssignOp::And: v = a & b; break;
            case ast::AssignOp::Or: v = a | b; break;
            case ast::AssignOp::Xor: v = a ^ b; break;
            case ast::AssignOp::Plain: break;
            }
            counters_.exprOps++;
            counters_.stores++;
            writeScalar(p, t, v);
            Reg& r = regs[I.a];
            r.i = normalizeScalar(t, v);
            r.type = t;
            break;
        }
        case Op::StoreAg: {
            std::uint8_t* p = regs[I.b].ptr;
            const Type* t = regs[I.b].type;
            counters_.stores++;
            counters_.aggBytes += t->size();
            // The rhs register owns a copied buffer (Evaluator semantics),
            // so overlapping union views stay well-defined.
            std::memcpy(p, regs[I.c].ptr, t->size());
            if (I.a != I.c) setAggregate(regs[I.a], t, regs[I.c].ptr);
            break;
        }
        case Op::ZeroVar: {
            store.at(I.imm).zero();
            break;
        }
        case Op::InitVar: {
            counters_.stores++;
            Value& slot = store.at(I.imm);
            const Reg& src = regs[I.b];
            if (slot.type()->isScalar())
                writeScalar(slot.data(), slot.type(), src.i);
            else
                std::memcpy(slot.data(), src.ptr, slot.size());
            break;
        }
        case Op::Jmp:
            pc = static_cast<std::uint32_t>(I.imm);
            continue;
        case Op::BranchFalse:
            counters_.branches++;
            if (!regs[I.a].i) {
                pc = static_cast<std::uint32_t>(I.imm);
                continue;
            }
            break;
        case Op::BranchTrue:
            counters_.branches++;
            if (regs[I.a].i) {
                pc = static_cast<std::uint32_t>(I.imm);
                continue;
            }
            break;
        case Op::Call: {
            const CompiledFunction& f =
                prog_->functions[static_cast<std::size_t>(I.imm)];
            counters_.calls++;
            opsUsed_ += 4;
            if (depth > 64) fail(I.loc, "call depth limit exceeded");

            std::unique_ptr<Store> frameStore = acquireStore(I.imm);
            for (std::size_t i = 0; i < f.paramCount; ++i) {
                Value& slot = frameStore->at(static_cast<int>(i));
                const Type* pt = (*f.vars)[i].type;
                const Reg& arg = regs[I.b + i];
                if (pt->isScalar())
                    writeScalar(slot.data(), pt, arg.i);
                else
                    std::memcpy(slot.data(), arg.ptr, pt->size());
            }
            RegFile& inner = fileForDepth(depth + 1);
            ChunkResult res =
                execChunk(f.chunk, *frameStore, inner, depth + 1);

            Reg& r = regs[I.a];
            if (res.returned && res.hasValue) {
                const Reg& rv = inner[res.reg];
                if (f.returnType->isScalar()) {
                    r.i = normalizeScalar(f.returnType, rv.i);
                    r.type = f.returnType;
                } else {
                    setAggregate(r, rv.type, rv.ptr);
                }
            } else if (!f.returnType->isVoid() && !res.returned) {
                fail(I.loc, "function '" + f.name +
                                "' fell off the end without return");
            } else {
                r.i = 0; // void (or value-less return): dummy zero
                r.type = prog_->intType;
            }
            releaseStore(I.imm, std::move(frameStore));
            break;
        }
        case Op::Ret:
            return {true, true, I.a};
        case Op::RetVoid:
            return {true, false, 0};
        case Op::End:
            return {false, I.a != 0xffff, I.a};
        }
        ++pc;
    }
}

void Vm::applyBinary(Reg& r, std::int32_t op, std::int64_t a, std::int64_t b,
                     SourceLoc loc)
{
    const Type* it = prog_->intType;
    const Type* bt = prog_->boolType;
    switch (static_cast<ast::BinaryOp>(op)) {
    case ast::BinaryOp::Add:
        r.i = normalizeScalar(it, a + b); r.type = it; break;
    case ast::BinaryOp::Sub:
        r.i = normalizeScalar(it, a - b); r.type = it; break;
    case ast::BinaryOp::Mul:
        r.i = normalizeScalar(it, a * b); r.type = it; break;
    case ast::BinaryOp::Div:
        if (b == 0) fail(loc, "division by zero");
        r.i = normalizeScalar(it, a / b); r.type = it; break;
    case ast::BinaryOp::Rem:
        if (b == 0) fail(loc, "remainder by zero");
        r.i = normalizeScalar(it, a % b); r.type = it; break;
    case ast::BinaryOp::Shl:
        r.i = normalizeScalar(it, a << (b & 63)); r.type = it; break;
    case ast::BinaryOp::Shr:
        r.i = normalizeScalar(it, a >> (b & 63)); r.type = it; break;
    case ast::BinaryOp::Lt: r.i = a < b; r.type = bt; break;
    case ast::BinaryOp::Gt: r.i = a > b; r.type = bt; break;
    case ast::BinaryOp::Le: r.i = a <= b; r.type = bt; break;
    case ast::BinaryOp::Ge: r.i = a >= b; r.type = bt; break;
    case ast::BinaryOp::Eq: r.i = a == b; r.type = bt; break;
    case ast::BinaryOp::Ne: r.i = a != b; r.type = bt; break;
    case ast::BinaryOp::BitAnd:
        r.i = normalizeScalar(it, a & b); r.type = it; break;
    case ast::BinaryOp::BitOr:
        r.i = normalizeScalar(it, a | b); r.type = it; break;
    case ast::BinaryOp::BitXor:
        r.i = normalizeScalar(it, a ^ b); r.type = it; break;
    default: fail(loc, "bad binary op");
    }
}

void Vm::applyIncDec(Reg& r, std::int32_t op, std::uint8_t* p, const Type* t)
{
    std::int64_t old = readScalar(p, t);
    auto uop = static_cast<ast::UnaryOp>(op);
    std::int64_t delta =
        (uop == ast::UnaryOp::PreInc || uop == ast::UnaryOp::PostInc) ? 1
                                                                      : -1;
    writeScalar(p, t, old + delta);
    bool post = uop == ast::UnaryOp::PostInc || uop == ast::UnaryOp::PostDec;
    r.i = post ? old : normalizeScalar(t, old + delta);
    r.type = t;
}

} // namespace ecl::bc
