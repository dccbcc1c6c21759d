#include "ir_program_gen.h"

#include <vector>

namespace alaska::testgen
{

using namespace alaska::ir;

namespace
{

/** Generator state threaded through recursive statement emission. */
struct Gen
{
    Module &module;
    Builder &builder;
    Rng rng;
    GenOptions opts;

    Instruction *locals = nullptr; ///< scalar slots array
    Instruction *ptrs = nullptr;   ///< array-of-pointers for chasing
    std::vector<Instruction *> arrays;
    std::vector<bool> freed;
    int nextCounter = 0; ///< loop counter slots, after scalar slots
    int blockCounter = 0;
    /** Hard cap on emitted statements (keeps recursion subcritical). */
    int budget = 0;

    int64_t
    maskIdx() const
    {
        return opts.arrayLen - 1; // arrayLen is a power of two
    }

    std::string
    freshName(const std::string &stem)
    {
        return stem + "." + std::to_string(blockCounter++);
    }
};

Instruction *genExpr(Gen &gen, int depth);

/** A random scalar slot address: locals + slot*8. */
Instruction *
slotAddr(Gen &gen, int slot)
{
    return gen.builder.gep(gen.locals, gen.builder.constant(slot));
}

/** Pick a live (unfreed) array index. */
int
pickArray(Gen &gen)
{
    for (int tries = 0; tries < 8; tries++) {
        const int k = static_cast<int>(gen.rng.below(gen.arrays.size()));
        if (!gen.freed[k])
            return k;
    }
    return 0; // array 0 is never freed
}

/** Base pointer of an array: directly, or chased through memory. */
Instruction *
arrayBase(Gen &gen, int k)
{
    if (gen.opts.usePointerChasing && gen.rng.chance(0.4)) {
        // p = ptrs[k], a pointer loaded back out of memory — the
        // paper's pointer-chasing pattern that defeats hoisting.
        Instruction *addr =
            gen.builder.gep(gen.ptrs, gen.builder.constant(k));
        return gen.builder.load(addr, /*pointer_result=*/true);
    }
    return gen.arrays[static_cast<size_t>(k)];
}

/** An in-bounds array element address. */
Instruction *
arrayElem(Gen &gen, int k, Instruction *index_expr)
{
    Instruction *masked = gen.builder.bitAnd(
        index_expr, gen.builder.constant(gen.maskIdx()));
    return gen.builder.gep(arrayBase(gen, k), masked);
}

Instruction *
genExpr(Gen &gen, int depth)
{
    Builder &b = gen.builder;
    const uint64_t pick = gen.rng.below(depth <= 0 ? 3 : 8);
    switch (pick) {
      case 0:
        return b.constant(static_cast<int64_t>(gen.rng.below(1000)));
      case 1: // scalar variable
        return b.load(slotAddr(
            gen, static_cast<int>(gen.rng.below(gen.opts.scalarSlots))));
      case 2: { // array element
        const int k = pickArray(gen);
        return b.load(arrayElem(gen, k, genExpr(gen, depth - 1)));
      }
      case 3:
        return b.add(genExpr(gen, depth - 1), genExpr(gen, depth - 1));
      case 4:
        return b.sub(genExpr(gen, depth - 1), genExpr(gen, depth - 1));
      case 5:
        return b.mul(genExpr(gen, depth - 1),
                     b.constant(static_cast<int64_t>(gen.rng.below(7))));
      case 6:
        return b.bitXor(genExpr(gen, depth - 1), genExpr(gen, depth - 1));
      default:
        return b.cmpLt(genExpr(gen, depth - 1), genExpr(gen, depth - 1));
    }
}

void genStatements(Gen &gen, int count, int depth);

void
genStatement(Gen &gen, int depth)
{
    Builder &b = gen.builder;
    const uint64_t pick =
        gen.budget-- <= 0 ? 0 : gen.rng.below(10);

    if (pick < 3) { // scalar assignment
        const int slot =
            static_cast<int>(gen.rng.below(gen.opts.scalarSlots));
        b.store(slotAddr(gen, slot), genExpr(gen, 2));
        return;
    }
    if (pick < 6) { // array store
        const int k = pickArray(gen);
        b.store(arrayElem(gen, k, genExpr(gen, 2)), genExpr(gen, 2));
        return;
    }
    if (pick < 7 && gen.opts.useExternalCalls) {
        // Escape to "precompiled" code with a raw-pointer contract.
        const int k = pickArray(gen);
        Instruction *result = b.callExternal(
            gen.rng.chance(0.5) ? "ext_sum" : "ext_scramble",
            {gen.arrays[static_cast<size_t>(k)],
             b.constant(gen.opts.arrayLen)});
        const int slot =
            static_cast<int>(gen.rng.below(gen.opts.scalarSlots));
        b.store(slotAddr(gen, slot), result);
        return;
    }
    if (pick < 8 || depth >= gen.opts.maxDepth) { // if/else
        Instruction *cond = b.bitAnd(genExpr(gen, 2), b.constant(1));
        BasicBlock *then_bb = b.newBlock(gen.freshName("then"));
        BasicBlock *else_bb = b.newBlock(gen.freshName("else"));
        BasicBlock *merge_bb = b.newBlock(gen.freshName("merge"));
        b.condBr(cond, then_bb, else_bb);
        b.setBlock(then_bb);
        genStatements(gen, 1 + static_cast<int>(gen.rng.below(3)),
                      depth + 1);
        b.br(merge_bb);
        b.setBlock(else_bb);
        genStatements(gen, static_cast<int>(gen.rng.below(3)), depth + 1);
        b.br(merge_bb);
        b.setBlock(merge_bb);
        return;
    }

    // while loop with a memory-resident counter (guaranteed bounded).
    const int counter_slot = gen.opts.scalarSlots + gen.nextCounter++;
    const auto trips = static_cast<int64_t>(2 + gen.rng.below(4));
    b.store(b.gep(gen.locals, b.constant(counter_slot)), b.constant(0));
    BasicBlock *header = b.newBlock(gen.freshName("loop"));
    BasicBlock *body = b.newBlock(gen.freshName("body"));
    BasicBlock *exit = b.newBlock(gen.freshName("exit"));
    b.br(header);
    b.setBlock(header);
    Instruction *count =
        b.load(b.gep(gen.locals, b.constant(counter_slot)));
    b.condBr(b.cmpLt(count, b.constant(trips)), body, exit);
    b.setBlock(body);
    genStatements(gen, 1 + static_cast<int>(gen.rng.below(3)), depth + 1);
    Instruction *bumped = b.add(
        b.load(b.gep(gen.locals, b.constant(counter_slot))),
        b.constant(1));
    b.store(b.gep(gen.locals, b.constant(counter_slot)), bumped);
    b.br(header);
    b.setBlock(exit);
}

void
genStatements(Gen &gen, int count, int depth)
{
    for (int i = 0; i < count; i++)
        genStatement(gen, depth);
}

} // anonymous namespace

ir::Function *
generateProgram(ir::Module &module, uint64_t seed,
                const GenOptions &options)
{
    Function *fn = module.addFunction(
        "gen." + std::to_string(seed), 1);
    Builder builder(*fn);
    Gen gen{module, builder, Rng(seed), options, nullptr,
            nullptr, {}, {}, 0, 0, 0};
    gen.budget = options.statements * 4;

    // Prelude: locals (scalars + loop counters), data arrays, and the
    // pointer table used for chasing.
    const int total_slots = options.scalarSlots + gen.budget + 1;
    gen.locals =
        builder.mallocBytes(builder.constant(8 * total_slots));
    for (int i = 0; i < total_slots; i++) {
        builder.store(builder.gep(gen.locals, builder.constant(i)),
                      builder.constant(0));
    }
    gen.ptrs =
        builder.mallocBytes(builder.constant(8 * options.arrays));
    for (int k = 0; k < options.arrays; k++) {
        Instruction *array = builder.mallocBytes(
            builder.constant(8 * options.arrayLen));
        gen.arrays.push_back(array);
        gen.freed.push_back(false);
        for (int i = 0; i < options.arrayLen; i++) {
            builder.store(
                builder.gep(array, builder.constant(i)),
                builder.add(builder.arg(0),
                            builder.constant(i * 7 + k * 131)));
        }
        builder.store(builder.gep(gen.ptrs, builder.constant(k)),
                      array);
    }

    // Random body; optionally free the last array halfway through.
    genStatements(gen, options.statements / 2, 0);
    if (options.useFrees && options.arrays > 1) {
        const int victim = options.arrays - 1;
        builder.freePtr(gen.arrays[static_cast<size_t>(victim)]);
        gen.freed[static_cast<size_t>(victim)] = true;
    }
    genStatements(gen, options.statements - options.statements / 2, 0);

    // Checksum finale: mix every live array element and scalar slot.
    Instruction *sum = builder.constant(0);
    for (int k = 0; k < options.arrays; k++) {
        if (gen.freed[static_cast<size_t>(k)])
            continue;
        for (int i = 0; i < options.arrayLen; i++) {
            Instruction *v = builder.load(builder.gep(
                gen.arrays[static_cast<size_t>(k)],
                builder.constant(i)));
            sum = builder.bitXor(builder.mul(sum, builder.constant(3)),
                                 v);
        }
    }
    for (int i = 0; i < options.scalarSlots; i++) {
        sum = builder.add(sum, builder.load(slotAddr(gen, i)));
    }
    builder.freePtr(gen.ptrs);
    builder.freePtr(gen.locals);
    for (int k = 0; k < options.arrays; k++) {
        if (!gen.freed[static_cast<size_t>(k)])
            builder.freePtr(gen.arrays[static_cast<size_t>(k)]);
    }
    builder.ret(sum);
    return fn;
}

void
registerGenExternals(ir::Interpreter &interp)
{
    // Externals receive *raw* pointers; they model precompiled libc
    // code that must never see a handle (§4.1.4).
    interp.registerExternal(
        "ext_sum", [](const std::vector<int64_t> &args) {
            const auto *p = reinterpret_cast<const int64_t *>(args[0]);
            // Wrapping arithmetic, like the interpreter's Add/Mul.
            uint64_t total = 0;
            for (int64_t i = 0; i < args[1]; i++)
                total += static_cast<uint64_t>(p[i]);
            return static_cast<int64_t>(total);
        });
    interp.registerExternal(
        "ext_scramble", [](const std::vector<int64_t> &args) {
            auto *p = reinterpret_cast<int64_t *>(args[0]);
            int64_t acc = 1;
            for (int64_t i = 0; i < args[1]; i++) {
                p[i] = static_cast<int64_t>(
                    static_cast<uint64_t>(p[i]) * 2654435761U +
                    static_cast<uint64_t>(i));
                acc ^= p[i];
            }
            return acc;
        });
}

} // namespace alaska::testgen
