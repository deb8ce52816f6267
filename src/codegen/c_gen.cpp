// Flat-table AOT C generator: FlatProgram + bc::Program -> one C99 TU.
// See c_gen.h for the contract and src/runtime/native_abi.h for the ABI
// the emitted structs mirror.
//
// Structure of the lowering:
//  * generateC() plans the set of referenced chunks (node predicates,
//    data actions, emit values) with their use kind (statement / scalar
//    expression / aggregate expression), discovers transitively-called C
//    helper functions, lowers each to a static C function, and finally
//    emits the reaction: a static walk function with the state dispatch
//    + per-node code (one label per flat node, successors as gotos), and
//    ecl_native_react(), a thin wrapper that arms the trap jmp_buf and
//    calls it, so no walk local lives in the function that calls setjmp.
//    From -O1 on the nodes are a hash-consed DAG
//    (efsm::FlatProgram::remapStates), so a decision subtree shared by
//    many control states is emitted once.
//  * The walk keeps its bookkeeping in locals: the present/emitted/data
//    pointers (const copies, so a byte store through one cannot force a
//    reload of the context), the next state, the terminated flag, the
//    emitted count and one packed walk counter. Each node adds one
//    compile-time constant to the counter (its tree tests, actions and
//    emits in kPacked*Bits-wide fields; checkPackedCounters() proves no
//    field can carry), and every leaf jumps to one exit label that
//    writes the context once. A trap longjmps past the exit label, so it
//    discards the reaction's counters, as the host does anyway.
//  * Emission stops with EmissionLimitError once the C passes
//    kMaxGeneratedCBytes, before any host cc runs.
//  * Each chunk lowering first runs a forward dataflow over the chunk's
//    instruction range assigning every register a static kind+type at
//    every program point (the VM carries these dynamically in Reg::type;
//    straight-line C needs them at generation time). Join points merge;
//    an unresolvable merge that an instruction actually depends on
//    aborts generation with EclError — the caller falls back to the VM.
//  * Registers become C locals: `rN` (int64_t scalar), `pN` (byte
//    pointer: lvalue address or aggregate-value cursor), `bN` (owned
//    aggregate scratch, mirroring Reg::buf's copy semantics so union
//    views and call-by-value stay well-defined).
#include "src/codegen/c_gen.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/runtime/instance_layout.h"
#include "src/runtime/native_abi.h"

namespace ecl::codegen {

namespace {

using bc::Instr;
using bc::Op;

[[noreturn]] void unsupported(const std::string& what)
{
    throw EclError("native codegen: unsupported: " + what);
}

std::string i64Lit(std::int64_t v)
{
    if (v == INT64_MIN) return "(-9223372036854775807LL - 1)";
    return std::to_string(v) + "LL";
}

// ---------------------------------------------------------------------------
// Register dataflow lattice
// ---------------------------------------------------------------------------

struct Lat {
    enum Kind : std::uint8_t {
        Unknown,     ///< Never written on this path (bottom).
        Scalar,      ///< int64 value of `type`.
        MixedScalar, ///< Scalar of >1 merged non-identical types.
        Ptr,         ///< Address; `type` is the pointee.
        Agg,         ///< Owned aggregate value of `type` (exact).
        Conflict,    ///< Irreconcilable merge (top).
    };
    Kind kind = Unknown;
    const Type* type = nullptr;

    bool operator==(const Lat& o) const
    {
        return kind == o.kind && type == o.type;
    }
};

Lat mergeLat(const Lat& a, const Lat& b)
{
    if (a.kind == Lat::Unknown) return b;
    if (b.kind == Lat::Unknown) return a;
    if (a == b) return a;
    bool aScalar = a.kind == Lat::Scalar || a.kind == Lat::MixedScalar;
    bool bScalar = b.kind == Lat::Scalar || b.kind == Lat::MixedScalar;
    if (aScalar && bScalar) return {Lat::MixedScalar, nullptr};
    return {Lat::Conflict, nullptr};
}

// ---------------------------------------------------------------------------
// Scalar memory access / normalization (VM value.h semantics)
// ---------------------------------------------------------------------------

/// readScalar(p, t) as a C expression (little-endian, sign-extended).
std::string rdExpr(const Type* t, const std::string& p)
{
    if (t->isBool()) return "((int64_t)((" + p + ")[0] != 0))";
    switch (t->size()) {
    case 1:
        return t->isSigned() ? "((int64_t)(int8_t)(" + p + ")[0])"
                             : "((int64_t)(" + p + ")[0])";
    case 2:
        return t->isSigned() ? "((int64_t)(int16_t)ecl_ld2(" + p + "))"
                             : "((int64_t)ecl_ld2(" + p + "))";
    case 4:
        return t->isSigned() ? "((int64_t)(int32_t)ecl_ld4(" + p + "))"
                             : "((int64_t)ecl_ld4(" + p + "))";
    case 8:
        return "((int64_t)ecl_ld8(" + p + "))";
    default:
        unsupported("scalar load of size " + std::to_string(t->size()));
    }
}

/// writeScalar(p, t, v) as a C statement (truncating LE store).
std::string stStmt(const Type* t, const std::string& p, const std::string& v)
{
    if (t->isBool())
        return "(" + p + ")[0] = (uint8_t)((" + v + ") != 0);";
    switch (t->size()) {
    case 1: return "(" + p + ")[0] = (uint8_t)(" + v + ");";
    case 2: return "ecl_st2(" + p + ", (uint16_t)(" + v + "));";
    case 4: return "ecl_st4(" + p + ", (uint32_t)(" + v + "));";
    case 8: return "ecl_st8(" + p + ", (uint64_t)(" + v + "));";
    default:
        unsupported("scalar store of size " + std::to_string(t->size()));
    }
}

/// bc::normalizeScalar(t, v) as a C expression.
std::string normExpr(const Type* t, const std::string& v)
{
    if (t->isBool()) return "((int64_t)((" + v + ") != 0))";
    std::size_t sz = t->size();
    if (sz >= 8) return "(" + v + ")";
    std::string w = std::to_string(sz * 8);
    return t->isSigned() ? "((int64_t)(int" + w + "_t)(" + v + "))"
                         : "((int64_t)(uint" + w + "_t)(" + v + "))";
}

// ---------------------------------------------------------------------------
// Packed walk counter
// ---------------------------------------------------------------------------

/// One node's tree tests, actions and emits: the fields of the walk
/// counter, in packing order.
using NodeCounts = std::array<std::uint64_t, 3>;

constexpr std::array<unsigned, 3> kPackedBits = {
    kPackedTestBits, kPackedActionBits, kPackedEmitBits};
constexpr std::array<const char*, 3> kPackedNames = {"tree tests",
                                                     "actions", "emits"};
static_assert(kPackedTestBits + kPackedActionBits + kPackedEmitBits <= 64,
              "the packed walk counter is one uint64_t");

NodeCounts nodeCounts(const efsm::FlatProgram& flat, const efsm::FlatNode& n)
{
    NodeCounts k = {n.isLeaf() ? 0u : 1u,
                    static_cast<std::uint64_t>(n.actionsEnd - n.actionsBegin),
                    0};
    for (std::int32_t i = n.actionsBegin; i < n.actionsEnd; ++i)
        if (flat.actions[static_cast<std::size_t>(i)].kind ==
            efsm::FlatAction::Kind::Emit)
            ++k[2];
    return k;
}

std::uint64_t packCounts(const NodeCounts& k)
{
    return k[0] | k[1] << kPackedTestBits |
           k[2] << (kPackedTestBits + kPackedActionBits);
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// How a module-context chunk is consumed by the flat tables.
enum class ChunkUse : std::uint8_t { Stmt, Scalar, Agg };

struct ChunkPlan {
    ChunkUse use = ChunkUse::Stmt;
    const Type* aggType = nullptr; ///< Out-buffer type for ChunkUse::Agg.
};

class Gen {
public:
    explicit Gen(const CompiledModule& mod)
        : mod_(mod), flat_(mod.flatProgram()), prog_(mod.byteCode()),
          sema_(mod.moduleSema()), layout_(rt::computeInstanceLayout(sema_))
    {
    }

    std::string run();

private:
    /// Slot-store context a chunk executes against: the module arena or a
    /// C-helper call frame.
    struct Frame {
        bool isModule = true;
        const std::vector<VarInfo>* vars = nullptr;
        std::vector<std::size_t> offsets; ///< Function-frame slot offsets.
        std::size_t frameBytes = 0;
    };

    // Planning.
    void planModuleChunks();
    void addChunkUse(int chunk, ChunkUse use, const Type* aggType);
    void discoverFunctions();

    // Lowering.
    std::string chunkSig(int chunk, bool forwardDecl) const;
    std::string fnSig(int fnIndex, bool forwardDecl) const;
    std::string lowerModuleChunk(int chunk);
    std::string lowerFunction(int fnIndex);
    std::string lowerBody(const bc::Chunk& ck, const Frame& frame,
                          int fnIndex);
    std::vector<std::vector<Lat>> typeFlow(const bc::Chunk& ck,
                                           const Frame& frame,
                                           std::vector<char>& reachable)
        const;
    Lat transferDest(const Instr& I, const std::vector<Lat>& in,
                     const Frame& frame) const;

    const Type* slotType(const Frame& f, int slot) const
    {
        return (*f.vars)[static_cast<std::size_t>(slot)].type;
    }
    std::string slotAddr(const Frame& f, int slot) const
    {
        if (f.isModule)
            return dataAddr(
                layout_.varOffsets[static_cast<std::size_t>(slot)]);
        return "(fr + " +
               std::to_string(f.offsets[static_cast<std::size_t>(slot)]) +
               ")";
    }
    /// An arena address through the function's `ecl_d` copy of c->data;
    /// marks the local as needed.
    std::string dataAddr(std::size_t offset) const
    {
        usesData_ = true;
        return "(ecl_d + " + std::to_string(offset) + ")";
    }
    const SignalInfo& valuedSignal(int idx) const
    {
        const SignalInfo& s = sema_.signals[static_cast<std::size_t>(idx)];
        if (s.pure) unsupported("value access on pure signal '" + s.name + "'");
        return s;
    }
    std::string sigAddr(int idx) const
    {
        return dataAddr(layout_.sigOffsets[static_cast<std::size_t>(idx)]);
    }
    /// `body` prefixed with the `ecl_d` local when it reads the arena.
    std::string withDataLocal(const std::string& body) const
    {
        if (!usesData_) return body;
        return "    uint8_t *const ecl_d = c->data;\n" + body;
    }

    // React emission.
    void emitPrelude(std::ostringstream& os) const;
    void emitInfo(std::ostringstream& os) const;
    void emitActions(std::ostringstream& os, const efsm::FlatNode& node)
        const;
    void emitReact(std::ostringstream& os) const;
    void checkBudget(std::streamoff bytes) const;

    const CompiledModule& mod_;
    const efsm::FlatProgram& flat_;
    const bc::Program& prog_;
    const ModuleSema& sema_;
    rt::InstanceLayout layout_;

    std::map<int, ChunkPlan> chunks_;   ///< Module-context chunks.
    std::set<int> functions_;           ///< Referenced C helper functions.
    /// Non-void functions whose bytecode can fall off the end: they take
    /// the call site's source location so the trap message matches the
    /// VM's (which fails at the Call instruction's loc).
    std::set<int> mayFallOff_;
    std::uint32_t maxEmits_ = 1;
    bool needOobHelper_ = false; ///< Emitted an ecl_fail_oob call.
    bool needRetHelper_ = false; ///< Emitted an ecl_fail_ret call.
    /// The function being emitted addressed the arena (dataAddr).
    mutable bool usesData_ = false;
};

/// The VM raises data traps as EclError(loc, "runtime: ..."); mirror the
/// formatted prefix in the generated message literals.
std::string locMsg(const SourceLoc& loc, const std::string& msg)
{
    return to_string(loc) + ": runtime: " + msg;
}

void Gen::addChunkUse(int chunk, ChunkUse use, const Type* aggType)
{
    auto [it, inserted] = chunks_.try_emplace(chunk, ChunkPlan{use, aggType});
    if (inserted) return;
    ChunkPlan& plan = it->second;
    if (plan.use == use && plan.aggType == aggType) return;
    // Stmt and Scalar uses can share one scalar-returning lowering; any
    // aggregate mixing cannot.
    if (plan.use == ChunkUse::Agg || use == ChunkUse::Agg)
        unsupported("chunk with mixed aggregate/scalar uses");
    plan.use = ChunkUse::Scalar;
}

void Gen::planModuleChunks()
{
    for (const efsm::FlatNode& n : flat_.nodes)
        if (!n.isLeaf() && n.testSignal < 0) {
            if (n.predChunk < 0) unsupported("test node without predicate");
            addChunkUse(n.predChunk, ChunkUse::Scalar, nullptr);
        }
    std::uint32_t outEmits = 0;
    for (const efsm::FlatAction& a : flat_.actions) {
        if (a.kind == efsm::FlatAction::Kind::Emit) {
            if (a.isOutput) ++outEmits;
            if (a.chunk < 0) continue;
            const SignalInfo& s = valuedSignal(a.signal);
            if (s.valueType->isScalar())
                addChunkUse(a.chunk, ChunkUse::Scalar, nullptr);
            else
                addChunkUse(a.chunk, ChunkUse::Agg, s.valueType);
        } else if (a.chunk >= 0) {
            addChunkUse(a.chunk, ChunkUse::Stmt, nullptr);
        }
    }
    maxEmits_ = outEmits > 0 ? outEmits : 1;
}

void Gen::discoverFunctions()
{
    std::vector<int> work;
    auto scan = [&](int chunk) {
        const bc::Chunk& ck =
            prog_.chunks[static_cast<std::size_t>(chunk)];
        for (std::uint32_t pc = ck.begin; pc < ck.end; ++pc) {
            const Instr& I = prog_.code[pc];
            if (I.op == Op::Call && functions_.insert(I.imm).second)
                work.push_back(I.imm);
        }
    };
    for (const auto& [chunk, plan] : chunks_) scan(chunk);
    while (!work.empty()) {
        int fn = work.back();
        work.pop_back();
        scan(prog_.functions[static_cast<std::size_t>(fn)].chunk);
    }
    // Conservative fall-off detection: any End terminator in a non-void
    // function body can be the fell-off-without-return trap.
    for (int fn : functions_) {
        const bc::CompiledFunction& f =
            prog_.functions[static_cast<std::size_t>(fn)];
        if (f.returnType->isVoid()) continue;
        const bc::Chunk& ck =
            prog_.chunks[static_cast<std::size_t>(f.chunk)];
        for (std::uint32_t pc = ck.begin; pc < ck.end; ++pc)
            if (prog_.code[pc].op == Op::End) {
                mayFallOff_.insert(fn);
                break;
            }
    }
}

// ---------------------------------------------------------------------------
// Dataflow
// ---------------------------------------------------------------------------

Lat Gen::transferDest(const Instr& I, const std::vector<Lat>& in,
                      const Frame& frame) const
{
    auto scalar = [](const Type* t) { return Lat{Lat::Scalar, t}; };
    auto ptr = [](const Type* t) { return Lat{Lat::Ptr, t}; };
    auto agg = [](const Type* t) { return Lat{Lat::Agg, t}; };
    auto fromPointee = [&](const Lat& base) -> Lat {
        if (base.kind == Lat::Unknown) return {};
        if ((base.kind == Lat::Ptr || base.kind == Lat::Agg) && base.type)
            return base.type->isScalar() ? scalar(base.type)
                                         : agg(base.type);
        return {Lat::Conflict, nullptr};
    };
    switch (I.op) {
    case Op::ConstInt: return scalar(I.type);
    case Op::LoadVarSc: return scalar(I.type);
    case Op::LoadVarAg: return agg(I.type);
    case Op::LoadSig: {
        const Type* t = valuedSignal(I.imm).valueType;
        return t->isScalar() ? scalar(t) : agg(t);
    }
    case Op::AddrVar: return ptr(slotType(frame, I.imm));
    case Op::AddrSig: return ptr(valuedSignal(I.imm).valueType);
    case Op::AddrVarOff:
    case Op::AddrSigOff:
    case Op::AddrField: return ptr(I.type);
    case Op::AddrIndex:
    case Op::AddrIndexVar: {
        const Lat& base = in[I.b];
        if (base.kind == Lat::Unknown) return {};
        if ((base.kind == Lat::Ptr || base.kind == Lat::Agg) && base.type &&
            base.type->kind() == TypeKind::Array)
            return ptr(base.type->element());
        return {Lat::Conflict, nullptr};
    }
    case Op::LoadInd: return fromPointee(in[I.b]);
    case Op::Unary:
        switch (static_cast<ast::UnaryOp>(I.imm)) {
        case ast::UnaryOp::Plus: return in[I.b];
        case ast::UnaryOp::Minus: return scalar(prog_.intType);
        case ast::UnaryOp::Not: return scalar(prog_.boolType);
        case ast::UnaryOp::BitNot: {
            const Lat& v = in[I.b];
            if (v.kind == Lat::Unknown) return {};
            if (v.kind == Lat::Scalar && v.type)
                return scalar(v.type->isBool() ? prog_.boolType
                                               : prog_.intType);
            return {Lat::Conflict, nullptr};
        }
        default: return {Lat::Conflict, nullptr};
        }
    case Op::IncDec: {
        const Lat& b = in[I.b];
        if (b.kind == Lat::Unknown) return {};
        if (b.kind == Lat::Ptr && b.type) return scalar(b.type);
        return {Lat::Conflict, nullptr};
    }
    case Op::Binary:
    case Op::BinaryImm:
        switch (static_cast<ast::BinaryOp>(I.imm)) {
        case ast::BinaryOp::Lt:
        case ast::BinaryOp::Gt:
        case ast::BinaryOp::Le:
        case ast::BinaryOp::Ge:
        case ast::BinaryOp::Eq:
        case ast::BinaryOp::Ne: return scalar(prog_.boolType);
        default: return scalar(prog_.intType);
        }
    case Op::Cast: return scalar(I.type);
    case Op::BoolVal:
    case Op::SetBool: return scalar(I.type);
    case Op::StoreSc:
    case Op::StoreCompound: {
        const Lat& b = in[I.b];
        if (b.kind == Lat::Unknown) return {};
        if (b.kind == Lat::Ptr && b.type) return scalar(b.type);
        return {Lat::Conflict, nullptr};
    }
    case Op::StoreVarSc:
    case Op::StoreVarImm: return scalar(slotType(frame, I.imm));
    case Op::IncDecVar:
        return scalar(slotType(frame, static_cast<int>(I.imm64)));
    case Op::StoreAg: {
        const Lat& b = in[I.b];
        if (b.kind == Lat::Unknown) return {};
        if (b.kind == Lat::Ptr && b.type) return agg(b.type);
        return {Lat::Conflict, nullptr};
    }
    case Op::Call: {
        const bc::CompiledFunction& f =
            prog_.functions[static_cast<std::size_t>(I.imm)];
        if (f.returnType->isVoid()) return scalar(prog_.intType);
        return f.returnType->isScalar() ? scalar(f.returnType)
                                        : agg(f.returnType);
    }
    default: return {Lat::Unknown, nullptr}; // No destination write.
    }
}

std::vector<std::vector<Lat>> Gen::typeFlow(const bc::Chunk& ck,
                                            const Frame& frame,
                                            std::vector<char>& reachable)
    const
{
    std::size_t n = ck.end - ck.begin;
    std::vector<std::vector<Lat>> in(
        n, std::vector<Lat>(prog_.maxRegs));
    reachable.assign(n, 0);
    std::vector<int> work{0};
    reachable[0] = 1;
    auto join = [&](std::size_t succ, const std::vector<Lat>& state) {
        if (succ >= n) unsupported("jump out of chunk range");
        if (!reachable[succ]) {
            reachable[succ] = 1;
            in[succ] = state;
            work.push_back(static_cast<int>(succ));
            return;
        }
        bool changed = false;
        for (std::size_t r = 0; r < state.size(); ++r) {
            Lat m = mergeLat(in[succ][r], state[r]);
            if (!(m == in[succ][r])) {
                in[succ][r] = m;
                changed = true;
            }
        }
        if (changed) work.push_back(static_cast<int>(succ));
    };
    while (!work.empty()) {
        std::size_t k = static_cast<std::size_t>(work.back());
        work.pop_back();
        const Instr& I = prog_.code[ck.begin + k];
        std::vector<Lat> out = in[k];
        Lat dest = transferDest(I, in[k], frame);
        bool writes = dest.kind != Lat::Unknown ||
                      (I.op != Op::Jmp && I.op != Op::BranchFalse &&
                       I.op != Op::BranchTrue && I.op != Op::Ret &&
                       I.op != Op::RetVoid && I.op != Op::End &&
                       I.op != Op::ZeroVar && I.op != Op::InitVar);
        if (writes &&
            !(I.op == Op::StoreAg && I.a == I.c)) // a==c: reg unchanged
            out[I.a] = dest;
        switch (I.op) {
        case Op::Jmp:
            join(static_cast<std::size_t>(I.imm) - ck.begin, out);
            break;
        case Op::BranchFalse:
        case Op::BranchTrue:
            join(k + 1, out);
            join(static_cast<std::size_t>(I.imm) - ck.begin, out);
            break;
        case Op::Ret:
        case Op::RetVoid:
        case Op::End:
            break;
        default:
            join(k + 1, out);
            break;
        }
    }
    return in;
}

// ---------------------------------------------------------------------------
// Chunk lowering
// ---------------------------------------------------------------------------

std::string Gen::chunkSig(int chunk, bool forwardDecl) const
{
    const ChunkPlan& plan = chunks_.at(chunk);
    std::string name = "ecl_c" + std::to_string(chunk);
    std::string sig;
    switch (plan.use) {
    case ChunkUse::Stmt:
        sig = "static void " + name + "(ecl_nat_ctx *c)";
        break;
    case ChunkUse::Scalar:
        sig = "static int64_t " + name + "(ecl_nat_ctx *c)";
        break;
    case ChunkUse::Agg:
        sig = "static void " + name + "(ecl_nat_ctx *c, uint8_t *out)";
        break;
    }
    return forwardDecl ? sig + ";" : sig;
}

std::string Gen::fnSig(int fnIndex, bool forwardDecl) const
{
    const bc::CompiledFunction& f =
        prog_.functions[static_cast<std::size_t>(fnIndex)];
    std::string ret = "static void ";
    if (!f.returnType->isVoid() && f.returnType->isScalar())
        ret = "static int64_t ";
    std::string sig =
        ret + "ecl_f" + std::to_string(fnIndex) + "(ecl_nat_ctx *c";
    if (!f.returnType->isVoid() && !f.returnType->isScalar())
        sig += ", uint8_t *ret";
    for (std::size_t i = 0; i < f.paramCount; ++i) {
        const Type* pt = (*f.vars)[i].type;
        sig += pt->isScalar() ? ", int64_t a" + std::to_string(i)
                              : ", const uint8_t *a" + std::to_string(i);
    }
    if (mayFallOff_.count(fnIndex)) sig += ", const char *ecl_loc";
    sig += ")";
    return forwardDecl ? sig + ";" : sig;
}

std::string Gen::lowerModuleChunk(int chunk)
{
    Frame frame;
    frame.isModule = true;
    frame.vars = &sema_.vars;
    usesData_ = false;
    std::string body =
        lowerBody(prog_.chunks[static_cast<std::size_t>(chunk)], frame, -1);
    return chunkSig(chunk, false) + "\n{\n    (void)c;\n" +
           withDataLocal(body) + "}\n\n";
}

std::string Gen::lowerFunction(int fnIndex)
{
    const bc::CompiledFunction& f =
        prog_.functions[static_cast<std::size_t>(fnIndex)];
    Frame frame;
    frame.isModule = false;
    frame.vars = f.vars;
    std::size_t cursor = 0;
    for (const VarInfo& v : *f.vars) {
        cursor = (cursor + 7) / 8 * 8;
        frame.offsets.push_back(cursor);
        cursor += v.type->size();
    }
    frame.frameBytes = cursor;

    usesData_ = false;
    std::ostringstream os;
    if (frame.frameBytes > 0) {
        // Zero-initialized call frame (Evaluator/VM acquireStore
        // semantics); params are truncating scalar writes / aggregate
        // copies into their slots.
        os << "    uint8_t fr[" << frame.frameBytes << "];\n"
           << "    memset(fr, 0, sizeof fr);\n";
        for (std::size_t i = 0; i < f.paramCount; ++i) {
            const Type* pt = (*f.vars)[i].type;
            std::string slot = slotAddr(frame, static_cast<int>(i));
            if (pt->isScalar())
                os << "    "
                   << stStmt(pt, slot, "a" + std::to_string(i)) << "\n";
            else
                os << "    memcpy(" << slot << ", a" << i << ", "
                   << pt->size() << ");\n";
        }
    }
    os << lowerBody(prog_.chunks[static_cast<std::size_t>(f.chunk)], frame,
                    fnIndex);
    std::string head = "/* C helper '" + f.name + "' */\n" +
                       fnSig(fnIndex, false) + "\n{\n    (void)c;\n";
    if (mayFallOff_.count(fnIndex)) head += "    (void)ecl_loc;\n";
    return head + withDataLocal(os.str()) + "}\n\n";
}

std::string Gen::lowerBody(const bc::Chunk& ck, const Frame& frame,
                           int fnIndex)
{
    const bc::CompiledFunction* fn =
        fnIndex >= 0 ? &prog_.functions[static_cast<std::size_t>(fnIndex)]
                     : nullptr;
    std::size_t n = ck.end - ck.begin;
    if (n == 0) unsupported("empty chunk");
    std::vector<char> reachable;
    std::vector<std::vector<Lat>> in = typeFlow(ck, frame, reachable);

    // Jump targets need labels; backward edges get the fuel guard.
    std::vector<char> isTarget(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
        if (!reachable[k]) continue;
        const Instr& I = prog_.code[ck.begin + k];
        if (I.op == Op::Jmp || I.op == Op::BranchFalse ||
            I.op == Op::BranchTrue)
            isTarget[static_cast<std::size_t>(I.imm) - ck.begin] = 1;
    }

    // Declaration scan: which registers need which locals.
    std::vector<char> needScalar(prog_.maxRegs, 0), needPtr(prog_.maxRegs, 0);
    std::vector<std::size_t> bufBytes(prog_.maxRegs, 0);
    auto needAgg = [&](std::uint16_t r, const Type* t) {
        needPtr[r] = 1;
        if (t->size() > bufBytes[r]) bufBytes[r] = t->size();
    };
    for (std::size_t k = 0; k < n; ++k) {
        if (!reachable[k]) continue;
        const Instr& I = prog_.code[ck.begin + k];
        Lat dest = transferDest(I, in[k], frame);
        switch (dest.kind) {
        case Lat::Scalar:
        case Lat::MixedScalar: needScalar[I.a] = 1; break;
        case Lat::Ptr: needPtr[I.a] = 1; break;
        case Lat::Agg: needAgg(I.a, dest.type); break;
        default: break;
        }
    }

    auto R = [](std::uint16_t r) { return "r" + std::to_string(r); };
    auto P = [](std::uint16_t r) { return "p" + std::to_string(r); };
    auto B = [](std::uint16_t r) { return "b" + std::to_string(r); };
    auto L = [&](std::int32_t absPc) {
        return "L" + std::to_string(absPc - static_cast<std::int32_t>(
                                                ck.begin));
    };
    /// The pointer expression for a register read as `.ptr` (Ptr lvalue
    /// or Agg value — both live in pN).
    auto ptrOf = [&](std::size_t k, std::uint16_t r) -> std::string {
        const Lat& l = in[k][r];
        if (l.kind != Lat::Ptr && l.kind != Lat::Agg)
            unsupported("untyped pointer register");
        return P(r);
    };
    auto pointee = [&](std::size_t k, std::uint16_t r) -> const Type* {
        const Lat& l = in[k][r];
        if (l.kind != Lat::Ptr || !l.type)
            unsupported("untyped store/load-through register");
        return l.type;
    };
    auto aggSrc = [&](std::size_t k, std::uint16_t r) -> const Type* {
        const Lat& l = in[k][r];
        if ((l.kind != Lat::Agg && l.kind != Lat::Ptr) || !l.type)
            unsupported("untyped aggregate register");
        return l.type;
    };

    const Type* intT = prog_.intType;
    std::ostringstream body;
    auto fuelGuard = [&](std::int32_t absTarget, std::size_t k,
                         const char* pad) {
        if (static_cast<std::size_t>(absTarget) - ck.begin <= k)
            body << pad
                 << "if (--c->fuel < 0) ecl_fail(c, \"runtime: op budget "
                    "exceeded (runaway data loop?)\");\n";
    };

    for (std::size_t k = 0; k < n; ++k) {
        if (isTarget[k]) body << L(static_cast<std::int32_t>(ck.begin + k))
                              << ": ;\n";
        if (!reachable[k]) continue;
        const Instr& I = prog_.code[ck.begin + k];
        body << "    ";
        switch (I.op) {
        case Op::ConstInt:
            body << R(I.a) << " = " << i64Lit(I.imm64) << ";\n";
            break;
        case Op::LoadVarSc:
            body << R(I.a) << " = " << rdExpr(I.type, slotAddr(frame, I.imm))
                 << ";\n";
            break;
        case Op::LoadVarAg:
            body << "memcpy(" << B(I.a) << ", " << slotAddr(frame, I.imm)
                 << ", " << I.type->size() << "); " << P(I.a) << " = "
                 << B(I.a) << ";\n";
            break;
        case Op::LoadSig: {
            const Type* t = valuedSignal(I.imm).valueType;
            if (t->isScalar())
                body << R(I.a) << " = " << rdExpr(t, sigAddr(I.imm))
                     << ";\n";
            else
                body << "memcpy(" << B(I.a) << ", " << sigAddr(I.imm)
                     << ", " << t->size() << "); " << P(I.a) << " = "
                     << B(I.a) << ";\n";
            break;
        }
        case Op::AddrVar:
            body << P(I.a) << " = " << slotAddr(frame, I.imm) << ";\n";
            break;
        case Op::AddrSig:
            body << P(I.a) << " = " << sigAddr(I.imm) << ";\n";
            break;
        case Op::AddrVarOff:
            body << P(I.a) << " = " << slotAddr(frame, I.imm) << " + "
                 << I.imm64 << ";\n";
            break;
        case Op::AddrSigOff:
            body << P(I.a) << " = " << sigAddr(I.imm) << " + " << I.imm64
                 << ";\n";
            break;
        case Op::AddrField:
            body << P(I.a) << " = " << ptrOf(k, I.b) << " + " << I.imm
                 << ";\n";
            break;
        case Op::AddrIndex: {
            const Lat& base = in[k][I.b];
            if ((base.kind != Lat::Ptr && base.kind != Lat::Agg) ||
                !base.type || base.type->kind() != TypeKind::Array)
                unsupported("indexing a register without static array type");
            const Type* elem = base.type->element();
            needOobHelper_ = true;
            body << "if ((uint64_t)" << R(I.c) << " >= "
                 << base.type->count() << "u) ecl_fail_oob(c, \""
                 << to_string(I.loc) << "\", (long long)" << R(I.c) << ", "
                 << base.type->count() << "u);\n"
                 << "    " << P(I.a) << " = " << ptrOf(k, I.b)
                 << " + (size_t)" << R(I.c) << " * " << elem->size()
                 << ";\n";
            break;
        }
        case Op::AddrIndexVar: {
            const Lat& base = in[k][I.b];
            if ((base.kind != Lat::Ptr && base.kind != Lat::Agg) ||
                !base.type || base.type->kind() != TypeKind::Array)
                unsupported("indexing a register without static array type");
            const Type* elem = base.type->element();
            needOobHelper_ = true;
            body << "{ int64_t ecl_idx = "
                 << rdExpr(I.type, slotAddr(frame, I.imm)) << "; "
                 << "if ((uint64_t)ecl_idx >= " << base.type->count()
                 << "u) ecl_fail_oob(c, \"" << to_string(I.loc)
                 << "\", (long long)ecl_idx, " << base.type->count()
                 << "u); " << P(I.a) << " = " << ptrOf(k, I.b)
                 << " + (size_t)ecl_idx * " << elem->size() << "; }\n";
            break;
        }
        case Op::LoadInd: {
            const Type* t = pointee(k, I.b);
            if (t->isScalar())
                body << R(I.a) << " = " << rdExpr(t, P(I.b)) << ";\n";
            else
                body << "memcpy(" << B(I.a) << ", " << P(I.b) << ", "
                     << t->size() << "); " << P(I.a) << " = " << B(I.a)
                     << ";\n";
            break;
        }
        case Op::Unary:
            switch (static_cast<ast::UnaryOp>(I.imm)) {
            case ast::UnaryOp::Plus:
                body << R(I.a) << " = " << R(I.b) << ";\n";
                break;
            case ast::UnaryOp::Minus:
                body << R(I.a) << " = " << normExpr(intT, "-" + R(I.b))
                     << ";\n";
                break;
            case ast::UnaryOp::Not:
                body << R(I.a) << " = (" << R(I.b) << " == 0);\n";
                break;
            case ast::UnaryOp::BitNot: {
                const Lat& v = in[k][I.b];
                if (v.kind != Lat::Scalar || !v.type)
                    unsupported("~ on a register without static type");
                if (v.type->isBool()) // `if (~crc_ok)` = logical not
                    body << R(I.a) << " = (" << R(I.b) << " == 0);\n";
                else
                    body << R(I.a) << " = "
                         << normExpr(intT, "~" + R(I.b)) << ";\n";
                break;
            }
            default: unsupported("unary operator");
            }
            break;
        case Op::IncDec: {
            const Type* t = pointee(k, I.b);
            auto uop = static_cast<ast::UnaryOp>(I.imm);
            bool inc = uop == ast::UnaryOp::PreInc ||
                       uop == ast::UnaryOp::PostInc;
            bool post = uop == ast::UnaryOp::PostInc ||
                        uop == ast::UnaryOp::PostDec;
            std::string d = inc ? " + 1" : " - 1";
            body << "{ int64_t ecl_old = " << rdExpr(t, P(I.b)) << "; "
                 << stStmt(t, P(I.b), "ecl_old" + d) << " " << R(I.a)
                 << " = "
                 << (post ? "ecl_old" : normExpr(t, "ecl_old" + d))
                 << "; }\n";
            break;
        }
        case Op::IncDecVar: {
            const Type* t = slotType(frame, static_cast<int>(I.imm64));
            std::string slot = slotAddr(frame, static_cast<int>(I.imm64));
            auto uop = static_cast<ast::UnaryOp>(I.imm);
            bool inc = uop == ast::UnaryOp::PreInc ||
                       uop == ast::UnaryOp::PostInc;
            bool post = uop == ast::UnaryOp::PostInc ||
                        uop == ast::UnaryOp::PostDec;
            std::string d = inc ? " + 1" : " - 1";
            body << "{ int64_t ecl_old = " << rdExpr(t, slot) << "; "
                 << stStmt(t, slot, "ecl_old" + d) << " " << R(I.a)
                 << " = "
                 << (post ? "ecl_old" : normExpr(t, "ecl_old" + d))
                 << "; }\n";
            break;
        }
        case Op::Binary:
        case Op::BinaryImm: {
            std::string a = R(I.b);
            std::string b =
                I.op == Op::Binary ? R(I.c) : i64Lit(I.imm64);
            bool bIsZero = I.op == Op::BinaryImm && I.imm64 == 0;
            auto arith = [&](const std::string& e) {
                body << R(I.a) << " = " << normExpr(intT, e) << ";\n";
            };
            auto cmp = [&](const char* op) {
                body << R(I.a) << " = (" << a << " " << op << " " << b
                     << ");\n";
            };
            switch (static_cast<ast::BinaryOp>(I.imm)) {
            case ast::BinaryOp::Add: arith(a + " + " + b); break;
            case ast::BinaryOp::Sub: arith(a + " - " + b); break;
            case ast::BinaryOp::Mul: arith(a + " * " + b); break;
            case ast::BinaryOp::Div:
                if (bIsZero) {
                    body << "ecl_fail(c, \""
                         << locMsg(I.loc, "division by zero") << "\");\n";
                    break;
                }
                if (I.op == Op::Binary)
                    body << "if (" << b << " == 0) ecl_fail(c, \""
                         << locMsg(I.loc, "division by zero")
                         << "\");\n    ";
                arith(a + " / " + b);
                break;
            case ast::BinaryOp::Rem:
                if (bIsZero) {
                    body << "ecl_fail(c, \""
                         << locMsg(I.loc, "remainder by zero") << "\");\n";
                    break;
                }
                if (I.op == Op::Binary)
                    body << "if (" << b << " == 0) ecl_fail(c, \""
                         << locMsg(I.loc, "remainder by zero")
                         << "\");\n    ";
                arith(a + " % " + b);
                break;
            case ast::BinaryOp::Shl:
                arith("(int64_t)((uint64_t)" + a + " << (" + b +
                      " & 63))");
                break;
            case ast::BinaryOp::Shr:
                arith(a + " >> (" + b + " & 63)");
                break;
            case ast::BinaryOp::Lt: cmp("<"); break;
            case ast::BinaryOp::Gt: cmp(">"); break;
            case ast::BinaryOp::Le: cmp("<="); break;
            case ast::BinaryOp::Ge: cmp(">="); break;
            case ast::BinaryOp::Eq: cmp("=="); break;
            case ast::BinaryOp::Ne: cmp("!="); break;
            case ast::BinaryOp::BitAnd: arith(a + " & " + b); break;
            case ast::BinaryOp::BitOr: arith(a + " | " + b); break;
            case ast::BinaryOp::BitXor: arith(a + " ^ " + b); break;
            default: unsupported("binary operator");
            }
            break;
        }
        case Op::Cast: {
            const Lat& src = in[k][I.b];
            if (src.kind == Lat::Scalar || src.kind == Lat::MixedScalar) {
                body << R(I.a) << " = " << normExpr(I.type, R(I.b))
                     << ";\n";
            } else {
                const Type* st = aggSrc(k, I.b);
                body << R(I.a) << " = "
                     << normExpr(I.type, "ecl_ldle(" + P(I.b) + ", " +
                                             std::to_string(st->size()) +
                                             ")")
                     << ";\n";
            }
            break;
        }
        case Op::BoolVal:
            body << R(I.a) << " = (" << R(I.b) << " != 0);\n";
            break;
        case Op::SetBool:
            body << R(I.a) << " = " << I.imm << ";\n";
            break;
        case Op::StoreSc: {
            const Type* t = pointee(k, I.b);
            body << stStmt(t, P(I.b), R(I.c)) << " " << R(I.a) << " = "
                 << normExpr(t, R(I.c)) << ";\n";
            break;
        }
        case Op::StoreVarSc: {
            const Type* t = slotType(frame, I.imm);
            body << stStmt(t, slotAddr(frame, I.imm), R(I.c)) << " "
                 << R(I.a) << " = " << normExpr(t, R(I.c)) << ";\n";
            break;
        }
        case Op::StoreVarImm: {
            const Type* t = slotType(frame, I.imm);
            body << stStmt(t, slotAddr(frame, I.imm), i64Lit(I.imm64))
                 << " " << R(I.a) << " = "
                 << i64Lit(bc::normalizeScalar(t, I.imm64)) << ";\n";
            break;
        }
        case Op::StoreCompound: {
            const Type* t = pointee(k, I.b);
            std::string a0 = "ecl_a";
            std::string b = R(I.c);
            body << "{ int64_t ecl_a = " << rdExpr(t, P(I.b))
                 << "; int64_t ecl_v;\n      ";
            switch (static_cast<ast::AssignOp>(I.imm)) {
            case ast::AssignOp::Add: body << "ecl_v = ecl_a + " << b << ";"; break;
            case ast::AssignOp::Sub: body << "ecl_v = ecl_a - " << b << ";"; break;
            case ast::AssignOp::Mul: body << "ecl_v = ecl_a * " << b << ";"; break;
            case ast::AssignOp::Div:
                body << "if (" << b << " == 0) ecl_fail(c, \""
                     << locMsg(I.loc, "division by zero")
                     << "\"); ecl_v = ecl_a / " << b << ";";
                break;
            case ast::AssignOp::Rem:
                body << "if (" << b << " == 0) ecl_fail(c, \""
                     << locMsg(I.loc, "remainder by zero")
                     << "\"); ecl_v = ecl_a % " << b << ";";
                break;
            case ast::AssignOp::Shl:
                body << "ecl_v = (int64_t)((uint64_t)ecl_a << (" << b
                     << " & 63));";
                break;
            case ast::AssignOp::Shr:
                body << "ecl_v = ecl_a >> (" << b << " & 63);";
                break;
            case ast::AssignOp::And: body << "ecl_v = ecl_a & " << b << ";"; break;
            case ast::AssignOp::Or: body << "ecl_v = ecl_a | " << b << ";"; break;
            case ast::AssignOp::Xor: body << "ecl_v = ecl_a ^ " << b << ";"; break;
            case ast::AssignOp::Plain: body << "ecl_v = ecl_a;"; break;
            default: unsupported("compound assignment operator");
            }
            body << "\n      " << stStmt(t, P(I.b), "ecl_v") << " "
                 << R(I.a) << " = " << normExpr(t, "ecl_v") << "; }\n";
            break;
        }
        case Op::StoreAg: {
            const Type* t = pointee(k, I.b);
            body << "memcpy(" << P(I.b) << ", " << ptrOf(k, I.c) << ", "
                 << t->size() << ");";
            if (I.a != I.c)
                body << " memcpy(" << B(I.a) << ", " << ptrOf(k, I.c)
                     << ", " << t->size() << "); " << P(I.a) << " = "
                     << B(I.a) << ";";
            body << "\n";
            break;
        }
        case Op::ZeroVar: {
            const Type* t = slotType(frame, I.imm);
            body << "memset(" << slotAddr(frame, I.imm) << ", 0, "
                 << t->size() << ");\n";
            break;
        }
        case Op::InitVar: {
            const Type* t = slotType(frame, I.imm);
            if (t->isScalar())
                body << stStmt(t, slotAddr(frame, I.imm), R(I.b)) << "\n";
            else
                body << "memcpy(" << slotAddr(frame, I.imm) << ", "
                     << ptrOf(k, I.b) << ", " << t->size() << ");\n";
            break;
        }
        case Op::Jmp:
            body << "{\n";
            fuelGuard(I.imm, k, "      ");
            body << "      goto " << L(I.imm) << ";\n    }\n";
            break;
        case Op::BranchFalse:
            body << "if (!" << R(I.a) << ") {\n";
            fuelGuard(I.imm, k, "      ");
            body << "      goto " << L(I.imm) << ";\n    }\n";
            break;
        case Op::BranchTrue:
            body << "if (" << R(I.a) << ") {\n";
            fuelGuard(I.imm, k, "      ");
            body << "      goto " << L(I.imm) << ";\n    }\n";
            break;
        case Op::Call: {
            const bc::CompiledFunction& f =
                prog_.functions[static_cast<std::size_t>(I.imm)];
            std::string call = "ecl_f" + std::to_string(I.imm) + "(c";
            if (!f.returnType->isVoid() && !f.returnType->isScalar())
                call += ", " + B(I.a);
            for (std::size_t i = 0; i < f.paramCount; ++i) {
                const Type* pt = (*f.vars)[i].type;
                std::uint16_t arg =
                    static_cast<std::uint16_t>(I.b + i);
                call += ", ";
                call += pt->isScalar() ? R(arg) : ptrOf(k, arg);
            }
            if (mayFallOff_.count(I.imm))
                call += ", \"" + to_string(I.loc) + "\"";
            call += ")";
            body << "if (c->depth > 64) ecl_fail(c, \""
                 << locMsg(I.loc, "call depth limit exceeded")
                 << "\");\n    c->depth++;\n    ";
            if (f.returnType->isVoid())
                body << call << "; " << R(I.a) << " = 0;";
            else if (f.returnType->isScalar())
                body << R(I.a) << " = "
                     << normExpr(f.returnType, call) << ";";
            else
                body << call << "; " << P(I.a) << " = " << B(I.a) << ";";
            body << "\n    c->depth--;\n";
            break;
        }
        case Op::Ret:
            if (!fn) unsupported("return outside a function chunk");
            if (fn->returnType->isVoid()) {
                body << "return;\n";
            } else if (fn->returnType->isScalar()) {
                body << "return " << R(I.a) << ";\n";
            } else {
                body << "memcpy(ret, " << ptrOf(k, I.a) << ", "
                     << fn->returnType->size() << "); return;\n";
            }
            break;
        case Op::RetVoid:
            if (!fn) unsupported("return outside a function chunk");
            if (fn->returnType->isVoid()) {
                body << "return;\n";
            } else if (fn->returnType->isScalar()) {
                body << "return 0;\n"; // VM dummy-zero result.
            } else {
                body << "memset(ret, 0, " << fn->returnType->size()
                     << "); return;\n";
            }
            break;
        case Op::End:
            if (fn) {
                // Falling off the end of a function body. The VM traps
                // at the Call instruction's loc, threaded in as ecl_loc.
                if (fn->returnType->isVoid()) {
                    body << "return;\n";
                } else {
                    needRetHelper_ = true;
                    body << "ecl_fail_ret(c, ecl_loc, \"" << fn->name
                         << "\");\n";
                    if (fn->returnType->isScalar())
                        body << "    return 0;\n";
                    else
                        body << "    return;\n";
                }
            } else {
                const ChunkPlan& plan = chunks_.at(
                    static_cast<int>(&ck - prog_.chunks.data()));
                switch (plan.use) {
                case ChunkUse::Stmt: body << "return;\n"; break;
                case ChunkUse::Scalar:
                    if (I.a == 0xffff)
                        unsupported("statement chunk used as expression");
                    body << "return " << R(I.a) << ";\n";
                    break;
                case ChunkUse::Agg:
                    if (I.a == 0xffff)
                        unsupported("statement chunk used as expression");
                    body << "memcpy(out, " << ptrOf(k, I.a) << ", "
                         << plan.aggType->size() << "); return;\n";
                    break;
                }
            }
            break;
        }
    }

    // Declarations (initialized: joins may reach a use before gcc can
    // prove a dominating write). The (void) reads keep statement chunks
    // — whose final register value is discarded — warning-clean.
    std::ostringstream decls;
    std::ostringstream uses;
    for (std::uint16_t r = 0; r < ck.numRegs; ++r) {
        if (needScalar[r]) {
            decls << "    int64_t r" << r << " = 0;\n";
            uses << "    (void)r" << r << ";\n";
        }
        if (needPtr[r]) {
            decls << "    uint8_t *p" << r << " = 0;\n";
            uses << "    (void)p" << r << ";\n";
        }
        if (bufBytes[r] > 0)
            decls << "    uint8_t b" << r << "[" << bufBytes[r] << "];\n";
    }
    return decls.str() + uses.str() + body.str();
}

// ---------------------------------------------------------------------------
// TU prelude / metadata / react
// ---------------------------------------------------------------------------

void Gen::emitPrelude(std::ostringstream& os) const
{
    os << "/* Generated by the ECL compiler: AOT native reaction backend.\n"
       << " * Module '" << mod_.name() << "' lowered from the optimized\n"
       << " * flat tables + bytecode; instance state lives in the host\n"
       << " * arena at computeInstanceLayout() offsets. Do not edit. */\n"
       << "#include <setjmp.h>\n"
       << "#include <stddef.h>\n"
       << "#include <stdint.h>\n";
    if (needOobHelper_ || needRetHelper_) os << "#include <stdio.h>\n";
    os << "#include <string.h>\n"
       << "\n"
       << "/* ABI mirror of src/runtime/native_abi.h (version "
       << rt::kEclNativeAbiVersion << "). */\n"
       << "typedef struct ecl_nat_ctx {\n"
       << "    uint8_t *data;\n"
       << "    uint8_t *present;\n"
       << "    int32_t *emitted;\n"
       << "    int32_t state;\n"
       << "    int32_t terminated;\n"
       << "    int32_t emitted_count;\n"
       << "    int32_t depth;\n"
       << "    int64_t fuel;\n"
       << "    uint64_t tree_tests;\n"
       << "    uint64_t actions_run;\n"
       << "    uint64_t emits_run;\n"
       << "    const char *error;\n"
       << "    void *jb;\n"
       << "} ecl_nat_ctx;\n"
       << "\n"
       << "typedef struct ecl_nat_info {\n"
       << "    uint32_t abi_version;\n"
       << "    uint32_t data_bytes;\n"
       << "    uint32_t signals;\n"
       << "    uint32_t states;\n"
       << "    int32_t initial_state;\n"
       << "    uint32_t max_emits;\n"
       << "    const char *module_name;\n"
       << "} ecl_nat_info;\n"
       << "\n"
       << "#if defined(__GNUC__)\n"
       << "__attribute__((noreturn))\n"
       << "#endif\n"
       << "static void ecl_fail(ecl_nat_ctx *c, const char *msg)\n"
       << "{\n"
       << "    c->error = msg;\n"
       << "    longjmp(*(jmp_buf *)c->jb, 1);\n"
       << "}\n"
       << "\n";
    // Traps whose message embeds runtime values format into a static
    // buffer (engines are single-threaded, like the VM).
    if (needOobHelper_ || needRetHelper_)
        os << "static char ecl_msgbuf[160];\n\n";
    if (needOobHelper_)
        os << "#if defined(__GNUC__)\n"
           << "__attribute__((noreturn))\n"
           << "#endif\n"
           << "static void ecl_fail_oob(ecl_nat_ctx *c, const char *loc,\n"
           << "                         long long idx, unsigned long n)\n"
           << "{\n"
           << "    snprintf(ecl_msgbuf, sizeof ecl_msgbuf,\n"
           << "             \"%s: runtime: array index %lld out of bounds "
              "[0,%lu)\",\n"
           << "             loc, idx, n);\n"
           << "    ecl_fail(c, ecl_msgbuf);\n"
           << "}\n\n";
    if (needRetHelper_)
        os << "#if defined(__GNUC__)\n"
           << "__attribute__((noreturn))\n"
           << "#endif\n"
           << "static void ecl_fail_ret(ecl_nat_ctx *c, const char *loc,\n"
           << "                         const char *fn)\n"
           << "{\n"
           << "    snprintf(ecl_msgbuf, sizeof ecl_msgbuf,\n"
           << "             \"%s: runtime: function '%s' fell off the end "
              "without return\",\n"
           << "             loc, fn);\n"
           << "    ecl_fail(c, ecl_msgbuf);\n"
           << "}\n\n";
    os
       << "/* Little-endian scalar encoding (value.h readScalar/"
          "writeScalar). */\n"
       << "static inline uint16_t ecl_ld2(const uint8_t *p)\n"
       << "{ return (uint16_t)((uint16_t)p[0] | ((uint16_t)p[1] << 8)); }\n"
       << "static inline uint32_t ecl_ld4(const uint8_t *p)\n"
       << "{ return (uint32_t)p[0] | ((uint32_t)p[1] << 8) |\n"
       << "         ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24); }\n"
       << "static inline uint64_t ecl_ld8(const uint8_t *p)\n"
       << "{ return (uint64_t)ecl_ld4(p) | ((uint64_t)ecl_ld4(p + 4) << 32);"
          " }\n"
       << "static inline void ecl_st2(uint8_t *p, uint16_t v)\n"
       << "{ p[0] = (uint8_t)v; p[1] = (uint8_t)(v >> 8); }\n"
       << "static inline void ecl_st4(uint8_t *p, uint32_t v)\n"
       << "{ p[0] = (uint8_t)v; p[1] = (uint8_t)(v >> 8);\n"
       << "  p[2] = (uint8_t)(v >> 16); p[3] = (uint8_t)(v >> 24); }\n"
       << "static inline void ecl_st8(uint8_t *p, uint64_t v)\n"
       << "{ ecl_st4(p, (uint32_t)v); ecl_st4(p + 4, (uint32_t)(v >> 32)); "
          "}\n"
       << "/* readBytesLE: aggregate reinterpretation (paper Figure 2). */\n"
       << "static inline int64_t ecl_ldle(const uint8_t *p, size_t n)\n"
       << "{\n"
       << "    uint64_t r = 0;\n"
       << "    size_t i;\n"
       << "    for (i = 0; i < n && i < 8; i++)\n"
       << "        r |= (uint64_t)p[i] << (8 * i);\n"
       << "    return (int64_t)r;\n"
       << "}\n\n";
}

void Gen::emitInfo(std::ostringstream& os) const
{
    os << "const ecl_nat_info ecl_module_info = {\n"
       << "    " << rt::kEclNativeAbiVersion << "u, /* abi_version */\n"
       << "    " << layout_.dataBytes << "u, /* data_bytes */\n"
       << "    " << sema_.signals.size() << "u, /* signals */\n"
       << "    " << flat_.states.size() << "u, /* states */\n"
       << "    " << flat_.initialState << ", /* initial_state */\n"
       << "    " << maxEmits_ << "u, /* max_emits */\n"
       << "    \"" << mod_.name() << "\"\n"
       << "};\n\n";
}

void Gen::emitActions(std::ostringstream& os,
                      const efsm::FlatNode& node) const
{
    // One counter add per node, before its actions: a trap in any action
    // discards the whole reaction's counters anyway.
    if (std::uint64_t k = packCounts(nodeCounts(flat_, node)); k != 0)
        os << "    ecl_k += " << k << "u;\n";
    for (std::int32_t i = node.actionsBegin; i < node.actionsEnd; ++i) {
        const efsm::FlatAction& a =
            flat_.actions[static_cast<std::size_t>(i)];
        if (a.kind == efsm::FlatAction::Kind::Emit) {
            if (a.chunk >= 0) {
                const SignalInfo& s = valuedSignal(a.signal);
                if (s.valueType->isScalar()) {
                    os << "    "
                       << stStmt(s.valueType, sigAddr(a.signal),
                                 "ecl_c" + std::to_string(a.chunk) + "(c)")
                       << "\n";
                } else {
                    os << "    { uint8_t ecl_tmp["
                       << s.valueType->size() << "]; ecl_c" << a.chunk
                       << "(c, ecl_tmp); memcpy(" << sigAddr(a.signal)
                       << ", ecl_tmp, " << s.valueType->size()
                       << "); }\n";
                }
            }
            os << "    ecl_pr[" << a.signal << "] = 1;\n";
            if (a.isOutput)
                os << "    ecl_out[ecl_n++] = " << a.signal << ";\n";
        } else if (a.chunk >= 0) {
            os << "    ecl_c" << a.chunk << "(c);\n";
        }
    }
}

void Gen::checkBudget(std::streamoff bytes) const
{
    if (static_cast<std::size_t>(bytes) <= kMaxGeneratedCBytes) return;
    throw EmissionLimitError(
        "native codegen: module '" + mod_.name() +
        "' exceeds the C-size budget (kMaxGeneratedCBytes, " +
        std::to_string(kMaxGeneratedCBytes) + " bytes)");
}

void Gen::emitReact(std::ostringstream& os) const
{
    std::size_t nStates = flat_.states.size();
    // The walk body first: only then is it known which pointer locals
    // the nodes use (unused ones would warn).
    const std::streamoff head = os.tellp();
    std::ostringstream body;
    bool usesPresent = false;
    bool usesOutputs = false;
    usesData_ = false;
    for (const efsm::FlatAction& a : flat_.actions)
        if (a.kind == efsm::FlatAction::Kind::Emit) {
            usesPresent = true;
            usesOutputs = usesOutputs || a.isOutput;
        }
    for (std::size_t ni = 0; ni < flat_.nodes.size(); ++ni) {
        const efsm::FlatNode& node = flat_.nodes[ni];
        body << "N" << ni << ": ;\n";
        if (!node.isLeaf()) {
            emitActions(body, node);
            if (node.testSignal >= 0) {
                usesPresent = true;
                body << "    if (ecl_pr[" << node.testSignal
                     << "]) goto N" << node.onTrue << "; else goto N"
                     << node.onFalse << ";\n";
            } else {
                body << "    if (ecl_c" << node.predChunk
                     << "(c) != 0) goto N" << node.onTrue << "; else goto N"
                     << node.onFalse << ";\n";
            }
        } else {
            if (node.runtimeError())
                body << "    ecl_fail(c, \"instantaneous loop detected at "
                     << "runtime (a statically-unverifiable loop path was "
                     << "reached)\");\n";
            emitActions(body, node);
            bool dead =
                flat_.states[static_cast<std::size_t>(node.nextState)].dead;
            body << "    ecl_s = " << node.nextState << ";"
                 << ((node.terminates() || dead) ? " ecl_t = 1;" : "")
                 << " goto ecl_exit;\n";
        }
        checkBudget(head + body.tellp());
    }

    os << "#if defined(__GNUC__)\n"
       << "__attribute__((noinline))\n"
       << "#endif\n"
       << "static void ecl_walk(ecl_nat_ctx *c)\n"
       << "{\n";
    if (usesPresent) os << "    uint8_t *const ecl_pr = c->present;\n";
    if (usesOutputs) os << "    int32_t *const ecl_out = c->emitted;\n";
    if (usesData_) os << "    uint8_t *const ecl_d = c->data;\n";
    os << "    uint64_t ecl_k = 0; /* packed: tree tests | actions << "
       << kPackedTestBits << " | emits << "
       << kPackedTestBits + kPackedActionBits << " */\n"
       << "    int32_t ecl_n = 0, ecl_s = 0, ecl_t = 0;\n"
       << "    if ((uint32_t)c->state >= " << nStates
       << "u) ecl_fail(c, \"runtime: invalid control state\");\n";
    // Dense dispatch on the flat state id: computed goto where the
    // compiler has labels-as-values, a switch elsewhere.
    os << "#if defined(__GNUC__) && !defined(ECL_NO_COMPUTED_GOTO)\n"
       << "    {\n"
       << "        static const void *const ecl_roots[" << nStates
       << "] = {\n";
    for (std::size_t s = 0; s < nStates; ++s)
        os << "            &&N" << flat_.states[s].root
           << (s + 1 < nStates ? "," : "") << "\n";
    os << "        };\n"
       << "        goto *ecl_roots[c->state];\n"
       << "    }\n"
       << "#else\n"
       << "    switch (c->state) {\n";
    for (std::size_t s = 0; s < nStates; ++s)
        os << "    case " << s << ": goto N" << flat_.states[s].root
           << ";\n";
    os << "    }\n"
       << "    return;\n"
       << "#endif\n"
       << body.str();
    const std::uint64_t testMask = (std::uint64_t{1} << kPackedTestBits) - 1;
    const std::uint64_t actionMask =
        (std::uint64_t{1} << kPackedActionBits) - 1;
    os << "ecl_exit:\n"
       << "    c->state = ecl_s;\n"
       << "    c->terminated = ecl_t;\n"
       << "    c->emitted_count = ecl_n;\n"
       << "    c->tree_tests = ecl_k & " << testMask << "u;\n"
       << "    c->actions_run = (ecl_k >> " << kPackedTestBits << ") & "
       << actionMask << "u;\n"
       << "    c->emits_run = ecl_k >> "
       << kPackedTestBits + kPackedActionBits << ";\n"
       << "}\n\n"
       << "int ecl_native_react(ecl_nat_ctx *c)\n"
       << "{\n"
       << "    jmp_buf jb;\n"
       << "    c->jb = (void *)&jb;\n"
       << "    if (setjmp(jb)) return 1;\n"
       << "    ecl_walk(c);\n"
       << "    return 0;\n"
       << "}\n";
}

std::string Gen::run()
{
    checkPackedCounters(flat_);
    planModuleChunks();
    discoverFunctions();

    std::ostringstream chunkDefs;
    for (int fn : functions_) chunkDefs << lowerFunction(fn);
    for (const auto& [chunk, plan] : chunks_)
        chunkDefs << lowerModuleChunk(chunk);

    std::ostringstream os;
    emitPrelude(os);
    emitInfo(os);
    for (int fn : functions_) os << fnSig(fn, true) << "\n";
    for (const auto& [chunk, plan] : chunks_)
        os << chunkSig(chunk, true) << "\n";
    os << "int ecl_native_react(ecl_nat_ctx *c);\n\n";
    os << chunkDefs.str();
    emitReact(os);
    checkBudget(os.tellp());
    return os.str();
}

} // namespace

void checkPackedCounters(const efsm::FlatProgram& flat)
{
    // Largest per-field sum from each node down to a leaf, memoized over
    // the node DAG with an explicit stack (-O0 trees can be deep).
    const std::size_t n = flat.nodes.size();
    std::vector<NodeCounts> best(n, NodeCounts{});
    std::vector<std::uint8_t> mark(n, 0); // 0 new, 1 children pushed, 2 done
    std::vector<std::int32_t> stack;
    NodeCounts worst{};
    for (const efsm::FlatState& st : flat.states) {
        if (st.root < 0) continue;
        stack.push_back(st.root);
        while (!stack.empty()) {
            const auto id = static_cast<std::size_t>(stack.back());
            const efsm::FlatNode& node = flat.nodes[id];
            if (mark[id] == 2) {
                stack.pop_back();
                continue;
            }
            if (mark[id] == 0 && !node.isLeaf()) {
                mark[id] = 1;
                stack.push_back(node.onTrue);
                stack.push_back(node.onFalse);
                continue;
            }
            NodeCounts sum = nodeCounts(flat, node);
            if (!node.isLeaf())
                for (std::size_t f = 0; f < sum.size(); ++f)
                    sum[f] += std::max(
                        best[static_cast<std::size_t>(node.onTrue)][f],
                        best[static_cast<std::size_t>(node.onFalse)][f]);
            best[id] = sum;
            mark[id] = 2;
            stack.pop_back();
        }
        for (std::size_t f = 0; f < worst.size(); ++f)
            worst[f] = std::max(
                worst[f], best[static_cast<std::size_t>(st.root)][f]);
    }
    for (std::size_t f = 0; f < worst.size(); ++f) {
        const std::uint64_t limit = (std::uint64_t{1} << kPackedBits[f]) - 1;
        if (worst[f] > limit)
            throw EmissionLimitError(
                "native codegen: a reaction can run " +
                std::to_string(worst[f]) + " " + kPackedNames[f] +
                ", more than the packed walk counter's " +
                std::to_string(kPackedBits[f]) + "-bit field holds (" +
                std::to_string(limit) + ")");
    }
}

std::string generateC(const CompiledModule& module)
{
    if (!module.hasFlatProgram())
        throw EclError("native codegen: module '" + module.name() +
                       "' has no flat program (compiled with "
                       "flatten=false, or flattening was degraded)");
    Gen gen(module);
    return gen.run();
}

} // namespace ecl::codegen
