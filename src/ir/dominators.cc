#include "ir/dominators.hh"

namespace elag {
namespace ir {

Dominators::Dominators(const Function &fn)
    : idoms(static_cast<size_t>(fn.blockLimit()), nullptr)
{
    std::vector<BasicBlock *> order = fn.rpo();
    if (order.empty())
        return;

    // RPO position by block id; -1 for unreachable blocks.
    std::vector<int> rpo_index(idoms.size(), -1);
    for (size_t i = 0; i < order.size(); ++i)
        rpo_index[static_cast<size_t>(order[i]->id())] =
            static_cast<int>(i);
    auto index = [&](const BasicBlock *bb) {
        return rpo_index[static_cast<size_t>(bb->id())];
    };
    auto idom_of = [&](const BasicBlock *bb) -> const BasicBlock *& {
        return idoms[static_cast<size_t>(bb->id())];
    };

    // While iterating, the entry is its own idom and null means "not
    // processed yet".
    const BasicBlock *entry = order[0];
    idom_of(entry) = entry;

    auto intersect = [&](const BasicBlock *a, const BasicBlock *b) {
        while (a != b) {
            while (index(a) > index(b))
                a = idom_of(a);
            while (index(b) > index(a))
                b = idom_of(b);
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 1; i < order.size(); ++i) {
            const BasicBlock *bb = order[i];
            const BasicBlock *new_idom = nullptr;
            for (const BasicBlock *pred : bb->preds) {
                if (!idom_of(pred))
                    continue;
                new_idom = new_idom ? intersect(new_idom, pred) : pred;
            }
            if (new_idom && idom_of(bb) != new_idom) {
                idom_of(bb) = new_idom;
                changed = true;
            }
        }
    }
    // The entry's idom is conventionally null.
    idom_of(entry) = nullptr;
}

const BasicBlock *
Dominators::idom(const BasicBlock *bb) const
{
    size_t id = static_cast<size_t>(bb->id());
    return id < idoms.size() ? idoms[id] : nullptr;
}

bool
Dominators::dominates(const BasicBlock *a, const BasicBlock *b) const
{
    for (const BasicBlock *cur = b; cur; cur = idom(cur)) {
        if (cur == a)
            return true;
    }
    return false;
}

} // namespace ir
} // namespace elag
