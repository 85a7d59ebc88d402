#include "kernel/kernel_gen.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "kernel/builder.h"
#include "prog/flatten.h"
#include "util/logging.h"

namespace sp::kern {

namespace {

using prog::SlotDesc;
using prog::SlotRole;
using prog::TypeKind;
using prog::TypeRef;

/** Stateful generator; one instance appends the bulk to one builder. */
class Generator
{
  public:
    Generator(KernelBuilder &builder, const KernelGenParams &params)
        : params_(params), rng_(params.seed), builder_(builder)
    {
    }

    void
    run()
    {
        registerResourceKinds();
        builder_.addFlags(static_cast<uint16_t>(params_.num_state_flags));
        buildTimerHandler();
        for (int i = 0; i < params_.num_syscalls; ++i)
            buildSyscall(i);
        for (int round = 1; round <= params_.evolution; ++round)
            evolve(round);
        plantBugs();
    }

  private:
    struct HandlerInfo
    {
        uint32_t id = 0;
        std::vector<SlotDesc> slots;
        std::string name;
    };

    void
    registerResourceKinds()
    {
        static const char *kBaseNames[] = {"fd", "sock", "dev"};
        for (int i = 0; i < params_.num_resource_kinds; ++i) {
            std::string name =
                i < 3 ? kBaseNames[i] : "res" + std::to_string(i);
            kind_ids_.push_back(builder_.addResourceKind(name));
            kind_names_.push_back(std::move(name));
        }
    }

    /** Tiny handler whose blocks serve as stray-interrupt targets. */
    void
    buildTimerHandler()
    {
        prog::SyscallDecl decl;
        decl.name = "timer_tick";
        decl.args.push_back(prog::intType("cycles", 32, 0, 1023));
        timer_handler_ = builder_.beginHandler(std::move(decl));
        uint32_t head = builder_.addBlock();
        uint32_t tail = builder_.addBlock();
        builder_.setFallthrough(head, tail);
        builder_.setReturn(tail);
        builder_.addInterruptBlock(head);
        builder_.addInterruptBlock(tail);
    }

    /** @name Argument-type generation */
    /** @{ */

    TypeRef
    genFlagsType(const std::string &name)
    {
        const size_t n = 6 + rng_.below(18);  // 6..23 flag values
        std::vector<uint64_t> values;
        // Distinct single bits plus the occasional multi-bit value.
        uint64_t bit = 1ULL << rng_.below(4);
        for (size_t i = 0; i < n; ++i) {
            values.push_back(bit);
            bit <<= 1 + rng_.below(2);
        }
        return prog::flagsType(name, std::move(values),
                               /*combinable=*/rng_.chance(0.5));
    }

    TypeRef
    genIntType(const std::string &name)
    {
        const int64_t max = static_cast<int64_t>(1)
                            << (3 + rng_.below(10));
        std::vector<uint64_t> special;
        const size_t n = 6 + rng_.below(10);
        for (size_t i = 0; i < n; ++i)
            special.push_back(rng_.below(static_cast<uint64_t>(max)));
        return prog::intType(name, 32, 0, max, std::move(special));
    }

    TypeRef
    genStructType(const std::string &name, int depth)
    {
        std::vector<TypeRef> fields;
        const size_t n = 2 + rng_.below(4);  // 2..5 fields
        for (size_t i = 0; i < n; ++i) {
            const std::string fname =
                name + "_f" + std::to_string(i);
            const double roll = rng_.uniform();
            if (roll < 0.3) {
                fields.push_back(genFlagsType(fname));
            } else if (roll < 0.6) {
                fields.push_back(genIntType(fname));
            } else if (roll < 0.75 && depth < 2) {
                fields.push_back(genStructType(fname, depth + 1));
            } else if (roll < 0.9) {
                // Buffer plus its length field.
                fields.push_back(
                    prog::bufferType(fname + "_buf", 0, 32));
                fields.push_back(prog::lenType(
                    fname + "_len",
                    static_cast<uint32_t>(fields.size() - 1)));
            } else {
                fields.push_back(prog::constType(
                    fname + "_magic", 0x10 + rng_.below(0xf0)));
            }
        }
        return prog::structType(name, std::move(fields));
    }

    TypeRef
    genTopLevelArg(const std::string &name)
    {
        const double roll = rng_.uniform();
        if (roll < 0.28)
            return genFlagsType(name);
        if (roll < 0.48)
            return genIntType(name);
        if (roll < 0.75)
            return prog::ptrType(name + "_ptr",
                                 genStructType(name, 0));
        if (roll < 0.87)
            return prog::ptrType(name + "_ptr",
                                 prog::bufferType(name + "_buf", 0, 48));
        if (roll < 0.95)
            return prog::bufferType(name, 0, 24);
        return prog::constType(name + "_cmd", 0x100 + rng_.below(0x100));
    }

    /** @} */

    void
    buildSyscall(int index)
    {
        prog::SyscallDecl decl;
        const std::string base = "sys" + std::to_string(index);

        // Role: producer (open-like), consumer, closer, or plain.
        const double roll = rng_.uniform();
        const size_t kind_index = rng_.below(kind_ids_.size());
        bool is_producer = false, is_consumer = false, is_closer = false;
        if (roll < 0.3) {
            is_producer = true;
            decl.name = base + "$open_" + kind_names_[kind_index];
            decl.ret_resource = kind_names_[kind_index];
        } else if (roll < 0.75) {
            is_consumer = true;
            decl.name = base + "$use_" + kind_names_[kind_index];
        } else if (roll < 0.85 && !closer_built_[kind_index]) {
            is_closer = true;
            closer_built_[kind_index] = true;
            decl.name = base + "$close_" + kind_names_[kind_index];
        } else {
            decl.name = base + "$plain";
        }

        if (is_consumer || is_closer) {
            decl.args.push_back(prog::resourceType(
                "handle", kind_names_[kind_index]));
        }
        const int extra = static_cast<int>(
            rng_.range(params_.min_extra_args, params_.max_extra_args));
        for (int a = 0; a < extra; ++a) {
            decl.args.push_back(
                genTopLevelArg(base + "_a" + std::to_string(a)));
        }

        // Respect the slot-token vocabulary bound.
        while (prog::slotCount(decl) > token::kMaxSlots &&
               decl.args.size() > 1) {
            decl.args.pop_back();
        }

        HandlerInfo info;
        info.name = decl.name;
        info.slots = prog::enumerateSlots(decl);
        info.id = builder_.beginHandler(std::move(decl));

        if (is_producer) {
            SyscallEffect effect;
            effect.kind = SyscallEffect::Kind::AllocResource;
            effect.resource_kind = kind_ids_[kind_index];
            builder_.addEffect(effect);
        }
        if (is_closer) {
            SyscallEffect effect;
            effect.kind = SyscallEffect::Kind::FreeResource;
            effect.slot = 0;  // the handle argument flattens first
            builder_.addEffect(effect);
        }
        if (rng_.chance(0.25)) {
            SyscallEffect effect;
            effect.kind = rng_.chance(0.7)
                              ? SyscallEffect::Kind::SetFlag
                              : SyscallEffect::Kind::ClearFlag;
            effect.flag = static_cast<uint16_t>(
                rng_.below(params_.num_state_flags));
            builder_.addEffect(effect);
        }

        buildHandlerCfg(info);
        handlers_.push_back(std::move(info));
    }

    Cond
    randomCond(const HandlerInfo &info, int depth)
    {
        // Deeper guards are strict equality checks on declared values:
        // reaching depth d requires d argument slots simultaneously
        // exact, which is what makes deep blocks rare for random
        // mutation and cheap for a localizer that knows which slot a
        // branch reads.
        const bool strict = depth >= 3;
        // Occasionally branch on global kernel state.
        if (rng_.chance(0.08)) {
            Cond cond;
            cond.kind = CondKind::StateFlagSet;
            cond.flag = static_cast<uint16_t>(
                rng_.below(params_.num_state_flags));
            return cond;
        }
        // Pick a non-const slot to test.
        for (int attempt = 0; attempt < 32; ++attempt) {
            const SlotDesc &slot =
                info.slots[rng_.below(info.slots.size())];
            if (slot.type->kind == TypeKind::Const)
                continue;
            Cond cond;
            cond.slot = static_cast<uint16_t>(slot.index);
            switch (slot.role) {
              case SlotRole::Value:
                if (slot.type->kind == TypeKind::Flags) {
                    cond.kind = !strict && rng_.chance(0.6)
                                    ? CondKind::ArgMaskAll
                                    : CondKind::ArgEq;
                    cond.a = slot.type->domain[rng_.below(
                        slot.type->domain.size())];
                    if (cond.kind == CondKind::ArgEq &&
                        rng_.chance(0.3)) {
                        cond.a |= slot.type->domain[rng_.below(
                            slot.type->domain.size())];
                    }
                } else if (slot.type->kind == TypeKind::Int) {
                    if (!slot.type->domain.empty() &&
                        (strict || rng_.chance(0.6))) {
                        cond.kind = CondKind::ArgEq;
                        cond.a = slot.type->domain[rng_.below(
                            slot.type->domain.size())];
                    } else if (rng_.chance(0.5)) {
                        cond.kind = CondKind::ArgLt;
                        cond.a = static_cast<uint64_t>(
                            rng_.range(1, slot.type->max));
                    } else {
                        cond.kind = CondKind::ArgInRange;
                        const auto lo = static_cast<uint64_t>(
                            rng_.range(0, slot.type->max / 2));
                        cond.a = lo;
                        cond.b = lo + static_cast<uint64_t>(rng_.range(
                                          0, slot.type->max / 4));
                    }
                } else if (slot.type->kind == TypeKind::Resource) {
                    cond.kind = CondKind::ResourceAlive;
                    cond.flag = static_cast<uint16_t>(
                        kind_ids_[rng_.below(kind_ids_.size())]);
                    // Usually check the declared kind.
                    if (rng_.chance(0.8)) {
                        for (size_t k = 0; k < kind_names_.size(); ++k) {
                            if (kind_names_[k] ==
                                slot.type->resource_kind) {
                                cond.flag = static_cast<uint16_t>(
                                    kind_ids_[k]);
                            }
                        }
                    }
                } else {
                    continue;  // Len handled by BufLen role below
                }
                break;
              case SlotRole::PtrNull:
                cond.kind = CondKind::ArgEq;
                cond.a = rng_.chance(0.8) ? 1 : 0;
                break;
              case SlotRole::BufLen: {
                const uint64_t limit =
                    1 + rng_.below(slot.type->buf_max + 1);
                cond.kind =
                    rng_.chance(0.5) ? CondKind::ArgGe : CondKind::ArgLt;
                cond.a = limit;
                if (strict || rng_.chance(0.2)) {
                    cond.kind = CondKind::ArgEq;
                    cond.a = rng_.below(slot.type->buf_max + 1);
                }
                break;
              }
              case SlotRole::BufClass:
                cond.kind = CondKind::ArgEq;
                cond.a = rng_.below(prog::kBufferClassCount);
                break;
            }
            return cond;
        }
        // Degenerate decl (all consts): fall back to a state branch.
        Cond cond;
        cond.kind = CondKind::StateFlagSet;
        cond.flag = 0;
        return cond;
    }

    /**
     * Create a chain of body blocks at `depth` for handler `info`,
     * recursively sprouting guarded regions. Blocks are chained by
     * fallthrough; the last block's terminator is left as Return, and
     * the caller may rewire it.
     */
    std::vector<uint32_t>
    buildChain(const HandlerInfo &info, int depth, int length)
    {
        std::vector<uint32_t> chain;
        chain.reserve(static_cast<size_t>(length));
        for (int i = 0; i < length; ++i) {
            chain.push_back(builder_.addBlockTo(
                info.id, static_cast<uint16_t>(depth)));
        }
        for (size_t i = 0; i + 1 < chain.size(); ++i)
            builder_.setFallthrough(chain[i], chain[i + 1]);

        // Sprout guarded regions off every block except the last.
        const double p =
            params_.branch_prob * std::pow(0.75, static_cast<double>(depth));
        for (size_t i = 0; i + 1 < chain.size(); ++i) {
            if (depth >= params_.max_depth || !rng_.chance(p))
                continue;
            const int sub_len = 1 + static_cast<int>(rng_.below(3));
            auto sub = buildChain(info, depth + 1, sub_len);
            builder_.setBranch(chain[i], randomCond(info, depth + 1),
                               sub.front(),
                               chain[i + 1]);
            // Rejoin the trunk, or end the handler early.
            if (rng_.chance(0.7))
                builder_.setFallthrough(sub.back(), chain[i + 1]);
            else
                builder_.setReturn(sub.back());
        }
        return chain;
    }

    void
    buildHandlerCfg(const HandlerInfo &info)
    {
        const int trunk_len = static_cast<int>(
            rng_.range(params_.trunk_min, params_.trunk_max));
        auto trunk = buildChain(info, 0, trunk_len);
        builder_.setReturn(trunk.back());
    }

    /** One version-evolution round: grow handlers, add one syscall. */
    void
    evolve(int round)
    {
        // Independent stream so each round is stable under param tweaks.
        Rng evo(params_.seed ^ (0xe701ULL * static_cast<uint64_t>(round)));
        for (const auto &info : handlers_) {
            if (!evo.chance(0.5))
                continue;
            // Find a fallthrough block of this handler to split.
            std::vector<uint32_t> candidates;
            for (uint32_t b = 0; b < builder_.numBlocks(); ++b) {
                const BasicBlock &bb = builder_.blockAt(b);
                if (bb.handler == info.id &&
                    bb.term == Term::Fallthrough &&
                    bb.depth + 1 <= params_.max_depth) {
                    candidates.push_back(b);
                }
            }
            if (candidates.empty())
                continue;
            const uint32_t victim =
                candidates[evo.below(candidates.size())];
            const uint32_t old_next = builder_.blockAt(victim).taken;
            const auto depth = builder_.blockAt(victim).depth;

            // Reuse the main rng for region construction via a swap so
            // the helper methods keep their signatures.
            std::swap(rng_, evo);
            const int sub_len = 1 + static_cast<int>(rng_.below(3));
            auto sub = buildChain(info, depth + 1, sub_len);
            builder_.setBranch(victim, randomCond(info, depth + 1),
                               sub.front(),
                               old_next);
            if (rng_.chance(0.7))
                builder_.setFallthrough(sub.back(), old_next);
            else
                builder_.setReturn(sub.back());
            std::swap(rng_, evo);
        }
        // One brand-new syscall per round.
        std::swap(rng_, evo);
        buildSyscall(params_.num_syscalls + round - 1 + 1000);
        std::swap(rng_, evo);
    }

    void
    plantBugs()
    {
        std::vector<uint32_t> deep_candidates, shallow_candidates;
        for (uint32_t b = 0; b < builder_.numBlocks(); ++b) {
            const BasicBlock &bb = builder_.blockAt(b);
            if (bb.handler == timer_handler_ || builder_.hasBugAt(b))
                continue;
            if (bb.depth == 3 || bb.depth == 4)
                deep_candidates.push_back(b);
            else if (bb.depth > 4 && bb.term == Term::Return)
                deep_candidates.push_back(b);
            else if (bb.depth == 1 && bb.term == Term::Return)
                shallow_candidates.push_back(b);
        }

        static const BugKind kKindWheel[] = {
            BugKind::GeneralProtectionFault,
            BugKind::PagingFault,
            BugKind::GeneralProtectionFault,
            BugKind::NullDeref,
            BugKind::PagingFault,
            BugKind::GeneralProtectionFault,
            BugKind::Warning,
            BugKind::OutOfBounds,
            BugKind::AssertViolation,
            BugKind::GeneralProtectionFault,
            BugKind::Other,
        };

        auto plant = [&](std::vector<uint32_t> &pool, int count,
                         bool known) {
            for (int i = 0; i < count && !pool.empty(); ++i) {
                const size_t pick = rng_.below(pool.size());
                const uint32_t block = pool[pick];
                pool.erase(pool.begin() +
                           static_cast<ptrdiff_t>(pick));
                const BasicBlock &bb = builder_.blockAt(block);
                BugSite bug;
                bug.block = block;
                bug.kind = kKindWheel[(block * 7 + i) %
                                      (sizeof(kKindWheel) /
                                       sizeof(kKindWheel[0]))];
                const std::string handler_name =
                    builder_.declOf(bb.handler).name;
                bug.description =
                    std::string(bugKindName(bug.kind)) + " in " +
                    handler_name + "/block" + std::to_string(block);
                bug.location =
                    "subsys/gen/" + handler_name + ".c:" +
                    std::to_string(100 + block % 900);
                bug.flaky = !known && rng_.chance(params_.flaky_frac);
                bug.known = known;
                builder_.addBug(std::move(bug));
            }
        };

        // New (unknown) bugs go to the *deepest* guarded regions first:
        // these are the crashes continuous random fuzzing has not found
        // in years (paper §5.3.2). Shuffle within equal depth so bug
        // placement is not biased toward low block ids.
        for (size_t i = deep_candidates.size(); i > 1; --i) {
            std::swap(deep_candidates[i - 1],
                      deep_candidates[rng_.below(i)]);
        }
        std::stable_sort(deep_candidates.begin(), deep_candidates.end(),
                         [this](uint32_t a, uint32_t b) {
                             return builder_.blockAt(a).depth <
                                    builder_.blockAt(b).depth;
                         });
        // plant() picks randomly from its pool; restrict the pool to
        // the deepest params_.deep_bugs * 2 candidates.
        if (deep_candidates.size() >
            static_cast<size_t>(params_.deep_bugs) * 2) {
            deep_candidates.resize(
                static_cast<size_t>(params_.deep_bugs) * 2);
        }
        plant(deep_candidates, params_.deep_bugs, /*known=*/false);
        plant(shallow_candidates, params_.shallow_bugs, /*known=*/true);
    }

    KernelGenParams params_;
    Rng rng_;
    KernelBuilder &builder_;
    std::vector<std::string> kind_names_;
    std::vector<ResourceKindId> kind_ids_;
    std::vector<HandlerInfo> handlers_;
    uint32_t timer_handler_ = ~0u;
    bool closer_built_[64] = {};
};

}  // namespace

void
appendSyntheticBulk(KernelBuilder &builder, const KernelGenParams &params)
{
    SP_ASSERT(params.num_syscalls > 0 && params.num_resource_kinds > 0);
    SP_ASSERT(params.num_resource_kinds <= 64);
    Generator(builder, params).run();
}

Kernel
generateKernel(const KernelGenParams &params)
{
    KernelBuilder builder(params.version);
    appendSyntheticBulk(builder, params);
    return builder.finish();
}

}  // namespace sp::kern
