#include "ir/interpreter.h"

#include <cstdlib>
#include <optional>

#include "base/logging.h"
#include "core/pin.h"
#include "core/translate.h"

namespace alaska::ir
{

Interpreter::Interpreter(Module &module, Runtime *runtime)
    : module_(module), runtime_(runtime)
{
    for (auto &fn : module.functions)
        fn->renumber();
}

Interpreter::~Interpreter()
{
    for (void *p : rawBlocks_)
        std::free(p);
}

void
Interpreter::registerExternal(const std::string &name, ExternalFn fn)
{
    externals_[name] = std::move(fn);
}

int64_t
Interpreter::run(Function &function, const std::vector<int64_t> &args)
{
    ALASKA_ASSERT(args.size() == static_cast<size_t>(function.numArgs),
                  "%s expects %d args, got %zu", function.name.c_str(),
                  function.numArgs, args.size());
    return eval(function, args, 0);
}

int64_t
Interpreter::eval(Function &function, const std::vector<int64_t> &args,
                  int depth)
{
    ALASKA_ASSERT(depth < 256, "interpreter call stack overflow");
    function.renumber();
    std::vector<int64_t> values(function.instructionCount(), 0);

    // The function's pin set, materialized when PinSetAlloc executes.
    std::vector<uint64_t> pin_slots;
    std::optional<PinFrame> pin_frame;

    BasicBlock *block = function.entry();
    BasicBlock *prev = nullptr;

    auto get = [&](const Instruction *inst) -> int64_t {
        return values[static_cast<size_t>(inst->id)];
    };

    for (;;) {
        // Phis first, as a parallel copy from the incoming edge.
        std::vector<std::pair<Instruction *, int64_t>> phi_updates;
        for (auto &inst : block->insts) {
            if (inst->op != Op::Phi)
                break; // phis are grouped at the top by construction
            bool found = false;
            for (size_t k = 0; k < inst->phiBlocks.size(); k++) {
                if (inst->phiBlocks[k] == prev) {
                    phi_updates.emplace_back(inst.get(),
                                             get(inst->operands[k]));
                    found = true;
                    break;
                }
            }
            ALASKA_ASSERT(found || prev == nullptr,
                          "phi in %s has no incoming for pred %s",
                          block->name.c_str(),
                          prev ? prev->name.c_str() : "<entry>");
        }
        for (auto &[phi, value] : phi_updates)
            values[static_cast<size_t>(phi->id)] = value;

        for (auto &owned : block->insts) {
            Instruction *inst = owned.get();
            if (inst->op == Op::Phi)
                continue;
            stats_.instructions++;
            auto op0 = [&] { return get(inst->operands[0]); };
            auto op1 = [&] { return get(inst->operands[1]); };
            // Arithmetic wraps (two's complement): compute it unsigned,
            // since signed overflow is undefined behaviour in C++.
            auto u0 = [&] { return static_cast<uint64_t>(op0()); };
            auto u1 = [&] { return static_cast<uint64_t>(op1()); };
            int64_t result = 0;
            switch (inst->op) {
              case Op::Const:
                result = inst->imm;
                break;
              case Op::Arg:
                result = args[static_cast<size_t>(inst->imm)];
                break;
              case Op::Add: result = static_cast<int64_t>(u0() + u1()); break;
              case Op::Sub: result = static_cast<int64_t>(u0() - u1()); break;
              case Op::Mul: result = static_cast<int64_t>(u0() * u1()); break;
              case Op::Div:
                ALASKA_ASSERT(op1() != 0, "division by zero");
                result = op0() / op1();
                break;
              case Op::Shl: result = static_cast<int64_t>(u0() << u1()); break;
              case Op::Shr: result = static_cast<int64_t>(u0() >> u1()); break;
              case Op::And: result = op0() & op1(); break;
              case Op::Or: result = op0() | op1(); break;
              case Op::Xor: result = op0() ^ op1(); break;
              case Op::CmpEq: result = op0() == op1(); break;
              case Op::CmpLt: result = op0() < op1(); break;
              case Op::Gep:
                result = op0() + 8 * op1();
                break;
              case Op::Load:
                stats_.loads++;
                result = *reinterpret_cast<int64_t *>(op0());
                break;
              case Op::Store:
                stats_.stores++;
                *reinterpret_cast<int64_t *>(op0()) = op1();
                break;
              case Op::Malloc: {
                void *p = std::malloc(static_cast<size_t>(op0()));
                rawBlocks_.insert(p);
                result = reinterpret_cast<int64_t>(p);
                break;
              }
              case Op::Free: {
                void *p = reinterpret_cast<void *>(op0());
                ALASKA_ASSERT(rawBlocks_.erase(p) == 1,
                              "free of unknown pointer");
                std::free(p);
                break;
              }
              case Op::Halloc:
                ALASKA_ASSERT(runtime_ != nullptr,
                              "halloc requires a runtime");
                result = reinterpret_cast<int64_t>(
                    runtime_->halloc(static_cast<size_t>(op0())));
                break;
              case Op::Hfree:
                runtime_->hfree(reinterpret_cast<void *>(op0()));
                break;
              case Op::Translate:
                stats_.translations++;
                result = reinterpret_cast<int64_t>(
                    translate(reinterpret_cast<void *>(op0())));
                break;
              case Op::Release:
                break; // metadata only; removed by the pin pass
              case Op::PinSetAlloc:
                ALASKA_ASSERT(!pin_frame.has_value(),
                              "duplicate pinset.alloc");
                pin_slots.assign(static_cast<size_t>(inst->imm), 0);
                pin_frame.emplace(pin_slots.data(),
                                  static_cast<uint32_t>(pin_slots.size()));
                break;
              case Op::PinStore:
                stats_.pinStores++;
                ALASKA_ASSERT(pin_frame.has_value(),
                              "pinset.store without pinset.alloc");
                pin_slots[static_cast<size_t>(inst->imm)] =
                    static_cast<uint64_t>(op0());
                break;
              case Op::Safepoint:
                stats_.polls++;
                if (runtime_)
                    poll();
                break;
              case Op::Call: {
                Function &callee =
                    *module_.functions[static_cast<size_t>(inst->imm)];
                std::vector<int64_t> call_args;
                call_args.reserve(inst->operands.size());
                for (Instruction *operand : inst->operands)
                    call_args.push_back(get(operand));
                result = eval(callee, call_args, depth + 1);
                break;
              }
              case Op::CallExternal: {
                stats_.externalCalls++;
                const std::string &name =
                    module_.externals[static_cast<size_t>(inst->imm)];
                auto it = externals_.find(name);
                ALASKA_ASSERT(it != externals_.end(),
                              "external %s not registered", name.c_str());
                std::vector<int64_t> call_args;
                call_args.reserve(inst->operands.size());
                for (Instruction *operand : inst->operands)
                    call_args.push_back(get(operand));
                result = it->second(call_args);
                break;
              }
              case Op::Br:
                prev = block;
                block = inst->targets[0];
                goto next_block;
              case Op::CondBr:
                prev = block;
                block = op0() ? inst->targets[0] : inst->targets[1];
                goto next_block;
              case Op::Ret:
                return inst->operands.empty() ? 0 : op0();
              case Op::Phi:
                break;
            }
            if (inst->producesValue())
                values[static_cast<size_t>(inst->id)] = result;
        }
        panic("block %s has no terminator", block->name.c_str());
      next_block:;
    }
}

} // namespace alaska::ir
