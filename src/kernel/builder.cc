#include "kernel/builder.h"

#include <algorithm>

#include "prog/flatten.h"
#include "util/logging.h"

namespace sp::kern {

KernelBuilder::KernelBuilder(std::string version)
{
    kernel_.version_ = std::move(version);
}

ResourceKindId
KernelBuilder::addResourceKind(const std::string &name)
{
    SP_ASSERT(!finished_);
    auto &kinds = kernel_.resource_kinds_;
    for (size_t i = 0; i < kinds.size(); ++i)
        if (kinds[i] == name)
            return static_cast<ResourceKindId>(i);
    kinds.push_back(name);
    return static_cast<ResourceKindId>(kinds.size() - 1);
}

uint16_t
KernelBuilder::addFlags(uint16_t count)
{
    SP_ASSERT(!finished_);
    const uint16_t first = kernel_.num_flags_;
    kernel_.num_flags_ = static_cast<uint16_t>(first + count);
    return first;
}

uint32_t
KernelBuilder::beginHandler(prog::SyscallDecl decl)
{
    SP_ASSERT(!finished_);
    const auto id = static_cast<uint32_t>(kernel_.table_.decls.size());
    decl.id = id;
    decl.finalize();
    const auto num_slots = static_cast<uint16_t>(decl.slots().size());
    SP_ASSERT(num_slots <= token::kMaxSlots,
              "syscall %s has %u slots, vocabulary supports %u",
              decl.name.c_str(), num_slots, token::kMaxSlots);
    kernel_.table_.decls.push_back(std::move(decl));

    Handler handler;
    handler.syscall_id = id;
    handler.num_slots = num_slots;
    kernel_.handlers_.push_back(handler);
    return id;
}

void
KernelBuilder::addEffect(const SyscallEffect &effect)
{
    SP_ASSERT(!finished_ && !kernel_.handlers_.empty());
    kernel_.handlers_.back().effects.push_back(effect);
}

uint32_t
KernelBuilder::addBlock(uint16_t depth, std::vector<uint16_t> tokens)
{
    SP_ASSERT(!finished_ && !kernel_.handlers_.empty(),
              "addBlock before beginHandler");
    const uint32_t handler_id = kernel_.handlers_.back().syscall_id;
    const uint32_t id = addBlockTo(handler_id, depth, std::move(tokens));
    return id;
}

uint32_t
KernelBuilder::addBlockTo(uint32_t handler_id, uint16_t depth,
                          std::vector<uint16_t> tokens)
{
    SP_ASSERT(!finished_ && handler_id < kernel_.handlers_.size());
    BasicBlock bb;
    bb.id = static_cast<uint32_t>(kernel_.blocks_.size());
    bb.handler = handler_id;
    bb.depth = depth;
    bb.tokens = tokens.empty() ? bodyTokens(bb.id) : std::move(tokens);
    bb.term = Term::Return;
    kernel_.blocks_.push_back(std::move(bb));
    if (kernel_.handlers_[handler_id].entry == kNoBlock)
        kernel_.handlers_[handler_id].entry = kernel_.blocks_.back().id;
    return kernel_.blocks_.back().id;
}

void
KernelBuilder::setBranch(uint32_t block, const Cond &cond, uint32_t taken,
                         uint32_t fallthrough)
{
    SP_ASSERT(!finished_ && block < kernel_.blocks_.size());
    BasicBlock &bb = kernel_.blocks_[block];
    bb.term = Term::Branch;
    bb.cond = cond;
    bb.taken = taken;
    bb.fallthrough = fallthrough;
    bb.tokens = branchTokens(cond);
}

void
KernelBuilder::setFallthrough(uint32_t block, uint32_t next)
{
    SP_ASSERT(!finished_ && block < kernel_.blocks_.size());
    BasicBlock &bb = kernel_.blocks_[block];
    bb.term = Term::Fallthrough;
    bb.taken = next;
}

void
KernelBuilder::setReturn(uint32_t block)
{
    SP_ASSERT(!finished_ && block < kernel_.blocks_.size());
    kernel_.blocks_[block].term = Term::Return;
    kernel_.blocks_[block].taken = kNoBlock;
    kernel_.blocks_[block].fallthrough = kNoBlock;
}

void
KernelBuilder::addBug(BugSite bug)
{
    SP_ASSERT(!finished_ && bug.block < kernel_.blocks_.size());
    SP_ASSERT(kernel_.bug_at_block_.find(bug.block) ==
                  kernel_.bug_at_block_.end(),
              "block %u already has a bug", bug.block);
    kernel_.bug_at_block_[bug.block] =
        static_cast<uint32_t>(kernel_.bugs_.size());
    kernel_.blocks_[bug.block].tokens = {token::kOpBug,
                                         token::regToken(0)};
    kernel_.bugs_.push_back(std::move(bug));
}

void
KernelBuilder::addInterruptBlock(uint32_t block)
{
    SP_ASSERT(!finished_ && block < kernel_.blocks_.size());
    kernel_.interrupt_blocks_.push_back(block);
}

uint32_t
KernelBuilder::numBlocks() const
{
    return static_cast<uint32_t>(kernel_.blocks_.size());
}

const BasicBlock &
KernelBuilder::blockAt(uint32_t id) const
{
    SP_ASSERT(id < kernel_.blocks_.size());
    return kernel_.blocks_[id];
}

bool
KernelBuilder::hasBugAt(uint32_t block) const
{
    return kernel_.bug_at_block_.find(block) !=
           kernel_.bug_at_block_.end();
}

const prog::SyscallDecl &
KernelBuilder::declOf(uint32_t handler_id) const
{
    SP_ASSERT(handler_id < kernel_.table_.decls.size());
    return kernel_.table_.decls[handler_id];
}

Kernel
KernelBuilder::finish()
{
    SP_ASSERT(!finished_);
    finished_ = true;

    // Seal the dense bug-site table the per-block execution hot path
    // reads in place of the hash map.
    kernel_.bug_index_at_block_.assign(kernel_.blocks_.size(),
                                       Kernel::kNoBug);
    for (const auto &[block, bug_index] : kernel_.bug_at_block_)
        kernel_.bug_index_at_block_[block] = bug_index;

    SP_ASSERT(kernel_.handlers_.size() == kernel_.table_.decls.size());
    for (const auto &handler : kernel_.handlers_) {
        SP_ASSERT(handler.entry != kNoBlock,
                  "handler %u has no blocks", handler.syscall_id);
    }

    // Terminator target validity and cond slot bounds.
    for (const auto &bb : kernel_.blocks_) {
        const Handler &h = kernel_.handlers_[bb.handler];
        switch (bb.term) {
          case Term::Return:
            break;
          case Term::Fallthrough:
            SP_ASSERT(bb.taken < kernel_.blocks_.size(),
                      "block %u falls through to invalid target", bb.id);
            SP_ASSERT(kernel_.blocks_[bb.taken].handler == bb.handler,
                      "block %u escapes its handler", bb.id);
            break;
          case Term::Branch:
            SP_ASSERT(bb.taken < kernel_.blocks_.size() &&
                          bb.fallthrough < kernel_.blocks_.size(),
                      "block %u branches to invalid target", bb.id);
            SP_ASSERT(kernel_.blocks_[bb.taken].handler == bb.handler &&
                          kernel_.blocks_[bb.fallthrough].handler ==
                              bb.handler,
                      "block %u escapes its handler", bb.id);
            switch (bb.cond.kind) {
              case CondKind::Always:
              case CondKind::StateFlagSet:
                break;
              default:
                SP_ASSERT(bb.cond.slot < h.num_slots,
                          "block %u cond reads slot %u of %u", bb.id,
                          bb.cond.slot, h.num_slots);
            }
            break;
        }
    }

    // Acyclicity per handler (iterative DFS three-color check).
    {
        enum : uint8_t { White, Gray, Black };
        std::vector<uint8_t> color(kernel_.blocks_.size(), White);
        for (const auto &handler : kernel_.handlers_) {
            std::vector<std::pair<uint32_t, size_t>> stack;
            if (color[handler.entry] != White)
                continue;
            stack.emplace_back(handler.entry, 0);
            color[handler.entry] = Gray;
            while (!stack.empty()) {
                auto &[node, child] = stack.back();
                auto succ = kernel_.successors(node);
                if (child < succ.size()) {
                    uint32_t next = succ[child++];
                    SP_ASSERT(color[next] != Gray,
                              "handler %u CFG has a cycle through "
                              "block %u", handler.syscall_id, next);
                    if (color[next] == White) {
                        color[next] = Gray;
                        stack.emplace_back(next, 0);
                    }
                } else {
                    color[node] = Black;
                    stack.pop_back();
                }
            }
        }
    }

    return std::move(kernel_);
}

}  // namespace sp::kern
