#include "ir/liveness.hh"

namespace elag {
namespace ir {

Liveness::Liveness(const Function &fn)
{
    const size_t num_blocks = static_cast<size_t>(fn.blockLimit());
    const RegSet empty(fn.vregLimit());
    liveIns.resize(num_blocks);
    liveOuts.resize(num_blocks);
    for (const auto &bb : fn.blocks()) {
        liveIns[static_cast<size_t>(bb->id())] = empty;
        liveOuts[static_cast<size_t>(bb->id())] = empty;
    }

    // Upward-exposed uses and defs of each reachable block.
    std::vector<BasicBlock *> order = fn.rpo();
    std::vector<RegSet> uses(num_blocks);
    std::vector<RegSet> defs(num_blocks);
    std::vector<int> srcs;
    for (const BasicBlock *bb : order) {
        RegSet &use = uses[static_cast<size_t>(bb->id())];
        RegSet &def = defs[static_cast<size_t>(bb->id())];
        use = empty;
        def = empty;
        for (const auto &inst : bb->insts) {
            srcs.clear();
            inst.sourceRegs(srcs);
            for (int s : srcs) {
                if (!def.contains(s))
                    use.insert(s);
            }
            if (inst.dest)
                def.insert(inst.dest);
        }
    }

    // Iterate to the fixpoint in reverse RPO for fast convergence:
    // out = union of the successors' ins; in = use | (out & ~def).
    const size_t num_words = empty.words.size();
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const BasicBlock *bb = *it;
            const size_t id = static_cast<size_t>(bb->id());
            std::vector<uint64_t> &out = liveOuts[id].words;
            std::vector<uint64_t> &in = liveIns[id].words;
            const std::vector<uint64_t> &use = uses[id].words;
            const std::vector<uint64_t> &def = defs[id].words;
            for (size_t w = 0; w < num_words; ++w) {
                uint64_t o = 0;
                for (const BasicBlock *succ : bb->succs)
                    o |= liveIns[static_cast<size_t>(succ->id())].words[w];
                uint64_t i = use[w] | (o & ~def[w]);
                if (o != out[w] || i != in[w]) {
                    out[w] = o;
                    in[w] = i;
                    changed = true;
                }
            }
        }
    }
}

const RegSet &
Liveness::liveIn(const BasicBlock *bb) const
{
    size_t id = static_cast<size_t>(bb->id());
    return id < liveIns.size() ? liveIns[id] : none;
}

const RegSet &
Liveness::liveOut(const BasicBlock *bb) const
{
    size_t id = static_cast<size_t>(bb->id());
    return id < liveOuts.size() ? liveOuts[id] : none;
}

} // namespace ir
} // namespace elag
