#include "codegen/regalloc.hh"

#include <algorithm>

#include "ir/liveness.hh"
#include "isa/registers.hh"
#include "support/logging.hh"

namespace elag {
namespace codegen {

using ir::BasicBlock;
using ir::Function;
using ir::IrInst;

namespace {

/** A coarse live interval [start, end] in linearized positions. */
struct Interval
{
    int vreg = 0;
    int start = INT32_MAX;
    int end = -1;
    bool crossesCall = false;

    void
    extend(int pos)
    {
        start = std::min(start, pos);
        end = std::max(end, pos);
    }
};

} // anonymous namespace

Allocation
allocateRegisters(Function &fn, const std::vector<BasicBlock *> &order)
{
    fn.recomputeCfg();
    ir::Liveness live(fn);

    // Linearize: assign each instruction a position; record block
    // extents (by block id) and call positions (ascending).
    std::vector<std::pair<int, int>> block_range(
        static_cast<size_t>(fn.blockLimit()));
    std::vector<int> call_positions;
    int pos = 1; // position 0 is the function entry (param defs)
    for (const BasicBlock *bb : order) {
        int begin = pos;
        for (const auto &inst : bb->insts) {
            if (inst.isCall())
                call_positions.push_back(pos);
            ++pos;
        }
        block_range[static_cast<size_t>(bb->id())] = {begin, pos};
    }

    // Intervals by vreg id; a vreg never touched keeps end == -1.
    std::vector<Interval> intervals(static_cast<size_t>(fn.vregLimit()));
    auto touch = [&](int vreg, int p) {
        Interval &iv = intervals[static_cast<size_t>(vreg)];
        iv.vreg = vreg;
        iv.extend(p);
    };

    for (int param : fn.params)
        touch(param, 0);

    std::vector<int> srcs;
    for (const BasicBlock *bb : order) {
        auto [begin, end] = block_range[static_cast<size_t>(bb->id())];
        // Live-in/out vregs span the whole block.
        live.liveIn(bb).forEach([&](int v) { touch(v, begin); });
        live.liveOut(bb).forEach([&](int v) {
            touch(v, begin);
            touch(v, end - 1);
        });
        int p = begin;
        for (const auto &inst : bb->insts) {
            if (inst.dest)
                touch(inst.dest, p);
            srcs.clear();
            inst.sourceRegs(srcs);
            for (int s : srcs)
                touch(s, p);
            ++p;
        }
    }

    std::vector<Interval> sorted;
    for (Interval &iv : intervals) {
        if (iv.end < 0)
            continue;
        // Does a call sit strictly inside the interval?
        auto cp = std::upper_bound(call_positions.begin(),
                                   call_positions.end(), iv.start);
        iv.crossesCall = cp != call_positions.end() && *cp < iv.end;
        sorted.push_back(iv);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Interval &a, const Interval &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  return a.vreg < b.vreg;
              });

    // Register pools.
    std::vector<int> caller_pool;
    for (int r = AllocCallerFirst; r <= isa::reg::CallerSavedLast; ++r)
        caller_pool.push_back(r);
    std::vector<int> callee_pool;
    for (int r = isa::reg::CalleeSavedFirst;
         r <= isa::reg::CalleeSavedLast; ++r) {
        callee_pool.push_back(r);
    }

    Allocation alloc;
    std::set<int> free_caller(caller_pool.begin(), caller_pool.end());
    std::set<int> free_callee(callee_pool.begin(), callee_pool.end());
    // Active intervals ordered by end position.
    struct Active
    {
        int end;
        int vreg;
        int reg;

        bool
        operator<(const Active &o) const
        {
            return std::tie(end, vreg) < std::tie(o.end, o.vreg);
        }
    };
    std::set<Active> active;

    auto isCalleeSaved = [](int reg) {
        return reg >= isa::reg::CalleeSavedFirst;
    };

    for (const Interval &iv : sorted) {
        // Expire finished intervals.
        while (!active.empty() && active.begin()->end < iv.start) {
            const Active &a = *active.begin();
            if (isCalleeSaved(a.reg))
                free_callee.insert(a.reg);
            else
                free_caller.insert(a.reg);
            active.erase(active.begin());
        }

        int reg = -1;
        if (iv.crossesCall) {
            if (!free_callee.empty()) {
                reg = *free_callee.begin();
                free_callee.erase(free_callee.begin());
            }
        } else {
            if (!free_caller.empty()) {
                reg = *free_caller.begin();
                free_caller.erase(free_caller.begin());
            } else if (!free_callee.empty()) {
                reg = *free_callee.begin();
                free_callee.erase(free_callee.begin());
            }
        }

        if (reg < 0) {
            // Spill heuristic: evict the compatible active interval
            // with the furthest end if it outlives the current one.
            auto victim = active.end();
            for (auto it = active.begin(); it != active.end(); ++it) {
                bool compatible =
                    !iv.crossesCall || isCalleeSaved(it->reg);
                if (!compatible)
                    continue;
                if (victim == active.end() || it->end > victim->end)
                    victim = it;
            }
            if (victim != active.end() && victim->end > iv.end) {
                reg = victim->reg;
                alloc.assignment.erase(victim->vreg);
                alloc.spillSlots[victim->vreg] =
                    alloc.numSpillSlots++;
                active.erase(victim);
            } else {
                alloc.spillSlots[iv.vreg] = alloc.numSpillSlots++;
                continue;
            }
        }

        alloc.assignment[iv.vreg] = reg;
        if (isCalleeSaved(reg))
            alloc.usedCalleeSaved.insert(reg);
        active.insert({iv.end, iv.vreg, reg});
    }

    return alloc;
}

} // namespace codegen
} // namespace elag
