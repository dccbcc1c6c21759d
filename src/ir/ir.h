/**
 * @file
 * A small SSA intermediate representation.
 *
 * The Alaska paper implements its transformations as LLVM passes; this
 * repository reimplements the same algorithms over a compact IR so the
 * compiler half of the system is reproducible without an LLVM build
 * (docs/ARCHITECTURE.md, layer 7, lists this stand-in). The IR
 * deliberately mirrors the LLVM constructs the paper's Algorithm 1
 * manipulates: basic blocks, phis, getelementptr-style address
 * arithmetic, loads/stores, calls, and loop preheaders.
 *
 * Memory model: all values are 64-bit integers; Load/Store move one
 * 64-bit word at mem[addr + 8*index]. Allocation sites are Malloc
 * instructions until the compiler rewrites them to Halloc.
 */

#ifndef ALASKA_IR_IR_H
#define ALASKA_IR_IR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace alaska::ir
{

class BasicBlock;
class Function;
class Module;

/** Instruction opcodes. */
enum class Op
{
    // Values
    Const,   ///< immediate integer (imm)
    Arg,     ///< function argument (imm = index)
    // Arithmetic / logic
    Add, Sub, Mul, Div, Shl, Shr, And, Or, Xor,
    CmpEq, CmpLt,
    // Memory
    Gep,     ///< address arithmetic: op0 + 8 * op1 (getelementptr-like)
    Load,    ///< result = mem[op0]
    Store,   ///< mem[op0] = op1
    Malloc,  ///< allocate op0 bytes (libc face)
    Free,    ///< free op0
    Halloc,  ///< allocate op0 bytes behind a handle (after rewrite)
    Hfree,   ///< free a handle allocation
    // Control
    Phi,     ///< SSA phi; incoming values parallel the pred list
    Br,      ///< unconditional branch (block target)
    CondBr,  ///< conditional branch (op0; two block targets)
    Ret,     ///< return (optional op0)
    Call,    ///< call to a Function in this module
    CallExternal, ///< call to precompiled code (escape handling, §4.1.4)
    // Inserted by the Alaska passes
    Translate,   ///< handle -> raw pointer (op0), paper §4.1.2
    Release,     ///< end of a translation's lifetime (removed pre-run)
    PinSetAlloc, ///< function prelude: pin set of imm slots (§4.1.3)
    PinStore,    ///< pin set slot imm = op0 (a maybe-handle)
    Safepoint,   ///< poll point (§4.1.3)
};

/** One SSA instruction. */
class Instruction
{
  public:
    Instruction(Op op, std::vector<Instruction *> operands = {},
                int64_t imm = 0)
        : op(op), operands(std::move(operands)), imm(imm)
    {}

    Op op;
    std::vector<Instruction *> operands;
    /** Immediate payload: constant value, arg index, pin slot, ... */
    int64_t imm = 0;
    /** Printing/debug id, assigned by Function::renumber(). */
    int id = -1;
    /** Owning block. */
    BasicBlock *parent = nullptr;

    /** For Phi: incoming blocks, parallel to operands. */
    std::vector<BasicBlock *> phiBlocks;
    /** For Br/CondBr: successor blocks. */
    std::vector<BasicBlock *> targets;

    /** Pointer-typed (handle-bearing) value — computed by analysis. */
    bool pointerLike = false;
    /** For Arg/Load: the builder may declare the value a pointer. */
    bool declaredPointer = false;

    bool isTerminator() const
    {
        return op == Op::Br || op == Op::CondBr || op == Op::Ret;
    }

    /** True if this instruction produces a usable SSA value. */
    bool
    producesValue() const
    {
        switch (op) {
          case Op::Store:
          case Op::Free:
          case Op::Hfree:
          case Op::Br:
          case Op::CondBr:
          case Op::Ret:
          case Op::Release:
          case Op::PinSetAlloc:
          case Op::PinStore:
          case Op::Safepoint:
            return false;
          default:
            return true;
        }
    }
};

/** A basic block: an instruction list ending in a terminator. */
class BasicBlock
{
  public:
    explicit BasicBlock(std::string name) : name(std::move(name)) {}

    std::string name;
    std::vector<std::unique_ptr<Instruction>> insts;
    Function *parent = nullptr;

    /** Predecessors, rebuilt by Function::computeCfg(). */
    std::vector<BasicBlock *> preds;

    Instruction *
    terminator() const
    {
        return insts.empty() ? nullptr : insts.back().get();
    }

    /** Successor blocks (from the terminator). */
    std::vector<BasicBlock *>
    successors() const
    {
        Instruction *term = terminator();
        if (!term || !term->isTerminator())
            return {};
        return term->targets;
    }

    /** Index of an instruction within this block; -1 if absent. */
    int indexOf(const Instruction *inst) const;

    /** Insert inst before position idx; takes ownership. */
    Instruction *insertAt(size_t idx,
                          std::unique_ptr<Instruction> inst);
    /** Append (before any existing terminator stays caller's concern). */
    Instruction *append(std::unique_ptr<Instruction> inst);
    /** Insert immediately before `before` (must be in this block). */
    Instruction *insertBefore(const Instruction *before,
                              std::unique_ptr<Instruction> inst);
    /** Remove (and destroy) an instruction; it must have no users. */
    void erase(Instruction *inst);
};

/** A function: blocks[0] is the entry. */
class Function
{
  public:
    Function(std::string name, int num_args)
        : name(std::move(name)), numArgs(num_args)
    {}

    std::string name;
    int numArgs;
    std::vector<std::unique_ptr<BasicBlock>> blocks;
    /** Arg instructions, one per argument, living in the entry block. */
    std::vector<Instruction *> args;
    Module *parent = nullptr;

    BasicBlock *entry() const { return blocks.front().get(); }

    /** Create and append a block. */
    BasicBlock *addBlock(const std::string &name);

    /** Recompute predecessor lists from terminators. */
    void computeCfg();

    /** Re-assign instruction ids in block/instruction order. */
    void renumber();

    /** Total instruction count (the paper's code-size metric). */
    size_t instructionCount() const;

    /** Recompute the pointerLike flags by fixpoint (see ir.cc). */
    void inferPointers();
};

/** A module: functions plus the names of known external functions. */
class Module
{
  public:
    Function *addFunction(const std::string &name, int num_args);
    Function *function(const std::string &name) const;

    /** Intern an external function name; returns its index (the imm
     *  payload of CallExternal instructions). */
    int externalIndex(const std::string &name);

    std::vector<std::unique_ptr<Function>> functions;
    std::vector<std::string> externals;

    /** Total instruction count across functions. */
    size_t instructionCount() const;
};

/** Render a function or module as text (for tests and debugging). */
std::string toString(const Function &function);
std::string toString(const Module &module);

} // namespace alaska::ir

#endif // ALASKA_IR_IR_H
