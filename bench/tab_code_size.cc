/**
 * @file
 * §5.2 (Q2) code-size study: instruction growth from the Alaska
 * transformations over an IR corpus, with and without hoisting. The
 * paper reports ~48% geomean executable growth, a worst case of ~2x
 * when hoisting cannot apply (xalancbmk's linked structures), and
 * negligible growth for hoisting-friendly NAS-style code.
 */

#include <cstdio>

#include "base/stats.h"
#include "compiler/passes.h"
#include "ir/builder.h"
#include "ir/ir.h"

namespace
{

using namespace alaska::ir;
using namespace alaska::compiler;

/** Hoisting-friendly: arrays written in counted loops. */
void
buildNasLike(Module &module, int arrays)
{
    Function *fn = module.addFunction("nas_like", 0);
    Builder b(*fn);
    std::vector<Instruction *> bases;
    for (int a = 0; a < arrays; a++)
        bases.push_back(b.mallocBytes(b.constant(512)));
    Instruction *zero = b.constant(0);
    BasicBlock *entry = b.block();
    BasicBlock *header = b.newBlock("header");
    BasicBlock *body = b.newBlock("body");
    BasicBlock *exit = b.newBlock("exit");
    b.br(header);
    b.setBlock(header);
    Instruction *i = b.phi();
    Builder::addIncoming(i, zero, entry);
    b.condBr(b.cmpLt(i, b.constant(64)), body, exit);
    b.setBlock(body);
    for (Instruction *base : bases)
        b.store(b.gep(base, i), i);
    Instruction *next = b.add(i, b.constant(1));
    Builder::addIncoming(i, next, body);
    b.br(header);
    b.setBlock(exit);
    Instruction *sum = b.constant(0);
    for (Instruction *base : bases)
        sum = b.add(sum, b.load(b.gep(base, zero)));
    for (Instruction *base : bases)
        b.freePtr(base);
    b.ret(sum);
    fn->computeCfg();
}

/** Pointer-chasing: per-iteration loads of pointers from memory. */
void
buildXalancLike(Module &module, int chains)
{
    Function *fn = module.addFunction("xalanc_like", 1);
    Builder b(*fn);
    b.declarePointerArg(0);
    Instruction *zero = b.constant(0);
    BasicBlock *entry = b.block();
    BasicBlock *header = b.newBlock("header");
    BasicBlock *body = b.newBlock("body");
    BasicBlock *exit = b.newBlock("exit");
    b.br(header);
    b.setBlock(header);
    Instruction *node = b.phi();
    Builder::addIncoming(node, b.arg(0), entry);
    b.condBr(b.cmpEq(node, zero), exit, body);
    b.setBlock(body);
    Instruction *walk = node;
    for (int c = 0; c < chains; c++) {
        // Every hop loads a fresh pointer: nothing is hoistable.
        walk = b.load(b.gep(walk, b.constant(c % 3)), true);
        b.store(b.gep(walk, b.constant(1)),
                b.add(b.load(b.gep(walk, b.constant(2))),
                      b.constant(1)));
    }
    Builder::addIncoming(node, walk, body);
    b.br(header);
    b.setBlock(exit);
    b.ret(zero);
    fn->computeCfg();
}

double
growthOf(void (*build)(Module &, int), int param, bool hoisting)
{
    Module module;
    build(module, param);
    PassOptions options;
    options.hoisting = hoisting;
    const PassMetrics metrics = runPipeline(module, options);
    return metrics.codeGrowth();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    std::printf("=== par.5.2 (Q2): code growth from the Alaska "
                "transformations (IR instruction count) ===\n\n");
    std::printf("%-22s %10s %12s\n", "program shape", "hoisting",
                "no hoisting");

    std::vector<double> growths;
    struct Case
    {
        const char *name;
        void (*build)(Module &, int);
        int param;
    };
    const Case cases[] = {
        {"nas-like (2 arrays)", buildNasLike, 2},
        {"nas-like (6 arrays)", buildNasLike, 6},
        {"xalanc-like (1 hop)", buildXalancLike, 1},
        {"xalanc-like (4 hops)", buildXalancLike, 4},
    };
    for (const auto &c : cases) {
        const double with = growthOf(c.build, c.param, true);
        const double without = growthOf(c.build, c.param, false);
        growths.push_back(with);
        std::printf("%-22s %9.2fx %11.2fx\n", c.name, with, without);
    }

    std::printf("\n%-22s %9.2fx\n", "geomean (hand cases)",
                alaska::geomean(growths));
    std::printf("\npaper: ~1.48x geomean executable growth; ~2x when "
                "hoisting cannot apply (xalancbmk), negligible\n"
                "for hoisting-friendly NAS code.\n");
    return 0;
}
