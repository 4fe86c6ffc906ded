/**
 * @file
 * Oracle tests for the dense IR analyses: Function::rpo, Dominators,
 * Liveness, opt::collectDefs and opt::countUses are compared against
 * reference copies of the std::set/std::map algorithms they replaced,
 * on every function of the imitation workloads (before and after the
 * optimization pipeline), on the synthetic kernel families, on seeded
 * ProgramGen programs, and on hand-built edge cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "ir/dominators.hh"
#include "ir/ir.hh"
#include "ir/liveness.hh"
#include "ir/loops.hh"
#include "irgen/irgen.hh"
#include "lang/parser.hh"
#include "lang/sema.hh"
#include "opt/pass.hh"
#include "opt/util.hh"
#include "support/logging.hh"
#include "verify/program_gen.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/workloads.hh"

using namespace elag;
using namespace elag::ir;

namespace {

// ---- Reference algorithms (node-based, as before the dense rewrite).

std::vector<BasicBlock *>
refRpo(const Function &fn)
{
    std::vector<BasicBlock *> postorder;
    std::set<const BasicBlock *> visited;
    struct Frame
    {
        BasicBlock *bb;
        size_t next = 0;
    };
    std::vector<Frame> stack;
    if (fn.entry()) {
        stack.push_back({fn.entry()});
        visited.insert(fn.entry());
    }
    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.next < f.bb->succs.size()) {
            BasicBlock *succ = f.bb->succs[f.next++];
            if (visited.insert(succ).second)
                stack.push_back({succ});
        } else {
            postorder.push_back(f.bb);
            stack.pop_back();
        }
    }
    std::reverse(postorder.begin(), postorder.end());
    return postorder;
}

class RefDominators
{
  public:
    explicit RefDominators(const Function &fn)
    {
        std::vector<BasicBlock *> order = refRpo(fn);
        for (size_t i = 0; i < order.size(); ++i)
            rpoIndex[order[i]] = static_cast<int>(i);
        if (order.empty())
            return;
        const BasicBlock *entry = order[0];
        idoms[entry] = entry;
        auto intersect = [&](const BasicBlock *a, const BasicBlock *b) {
            while (a != b) {
                while (rpoIndex.at(a) > rpoIndex.at(b))
                    a = idoms.at(a);
                while (rpoIndex.at(b) > rpoIndex.at(a))
                    b = idoms.at(b);
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
                    if (!idoms.count(pred))
                        continue;
                    new_idom =
                        new_idom ? intersect(new_idom, pred) : pred;
                }
                if (!new_idom)
                    continue;
                auto it = idoms.find(bb);
                if (it == idoms.end() || it->second != new_idom) {
                    idoms[bb] = new_idom;
                    changed = true;
                }
            }
        }
        idoms[entry] = nullptr;
    }

    const BasicBlock *
    idom(const BasicBlock *bb) const
    {
        auto it = idoms.find(bb);
        return it == idoms.end() ? nullptr : it->second;
    }

    bool
    dominates(const BasicBlock *a, const BasicBlock *b) const
    {
        for (const BasicBlock *cur = b; cur; cur = idom(cur)) {
            if (cur == a)
                return true;
        }
        return false;
    }

  private:
    std::map<const BasicBlock *, const BasicBlock *> idoms;
    std::map<const BasicBlock *, int> rpoIndex;
};

struct RefLiveness
{
    std::map<const BasicBlock *, std::set<int>> liveIns;
    std::map<const BasicBlock *, std::set<int>> liveOuts;

    explicit RefLiveness(const Function &fn)
    {
        std::map<const BasicBlock *, std::set<int>> uses;
        std::map<const BasicBlock *, std::set<int>> defs;
        for (const auto &bb : fn.blocks()) {
            std::set<int> &use = uses[bb.get()];
            std::set<int> &def = defs[bb.get()];
            std::vector<int> srcs;
            for (const auto &inst : bb->insts) {
                srcs.clear();
                inst.sourceRegs(srcs);
                for (int s : srcs) {
                    if (!def.count(s))
                        use.insert(s);
                }
                if (inst.dest)
                    def.insert(inst.dest);
            }
        }
        bool changed = true;
        while (changed) {
            changed = false;
            std::vector<BasicBlock *> order = refRpo(fn);
            for (auto it = order.rbegin(); it != order.rend(); ++it) {
                const BasicBlock *bb = *it;
                std::set<int> out;
                for (const BasicBlock *succ : bb->succs) {
                    const std::set<int> &in = liveIns[succ];
                    out.insert(in.begin(), in.end());
                }
                std::set<int> in = uses[bb];
                for (int v : out) {
                    if (!defs[bb].count(v))
                        in.insert(v);
                }
                if (out != liveOuts[bb] || in != liveIns[bb]) {
                    liveOuts[bb] = std::move(out);
                    liveIns[bb] = std::move(in);
                    changed = true;
                }
            }
        }
    }

    std::set<int>
    in(const BasicBlock *bb) const
    {
        auto it = liveIns.find(bb);
        return it == liveIns.end() ? std::set<int>{} : it->second;
    }

    std::set<int>
    out(const BasicBlock *bb) const
    {
        auto it = liveOuts.find(bb);
        return it == liveOuts.end() ? std::set<int>{} : it->second;
    }
};

std::map<int, std::vector<opt::InstRef>>
refCollectDefs(Function &fn)
{
    std::map<int, std::vector<opt::InstRef>> defs;
    for (auto &bb : fn.blocks()) {
        for (size_t i = 0; i < bb->insts.size(); ++i) {
            if (bb->insts[i].dest)
                defs[bb->insts[i].dest].push_back({bb.get(), i});
        }
    }
    return defs;
}

std::map<int, int>
refCountUses(const Function &fn)
{
    std::map<int, int> uses;
    std::vector<int> srcs;
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts) {
            srcs.clear();
            inst.sourceRegs(srcs);
            for (int s : srcs)
                ++uses[s];
        }
    }
    return uses;
}

// ---- Comparison.

/** The members of @p set in forEach order (which must ascend). */
std::set<int>
members(const RegSet &set, int limit)
{
    std::vector<int> order;
    set.forEach([&](int v) { order.push_back(v); });
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    std::set<int> out(order.begin(), order.end());
    EXPECT_EQ(out.size(), order.size());
    for (int v = 0; v < limit; ++v)
        EXPECT_EQ(set.contains(v), out.count(v) > 0) << "vreg " << v;
    EXPECT_EQ(set.empty(), out.empty());
    return out;
}

/** Compare every dense analysis of @p fn with its reference. */
void
checkAgainstReference(Function &fn, const std::string &where)
{
    SCOPED_TRACE(where + " " + fn.name());
    fn.recomputeCfg();

    EXPECT_EQ(fn.rpo(), refRpo(fn));

    Dominators doms(fn);
    RefDominators ref_doms(fn);
    for (const auto &a : fn.blocks()) {
        EXPECT_EQ(doms.idom(a.get()), ref_doms.idom(a.get()))
            << "bb" << a->id();
        for (const auto &b : fn.blocks()) {
            EXPECT_EQ(doms.dominates(a.get(), b.get()),
                      ref_doms.dominates(a.get(), b.get()))
                << "bb" << a->id() << " dom bb" << b->id();
        }
    }

    Liveness live(fn);
    RefLiveness ref_live(fn);
    for (const auto &bb : fn.blocks()) {
        EXPECT_EQ(members(live.liveIn(bb.get()), fn.vregLimit()),
                  ref_live.in(bb.get()))
            << "live-in bb" << bb->id();
        EXPECT_EQ(members(live.liveOut(bb.get()), fn.vregLimit()),
                  ref_live.out(bb.get()))
            << "live-out bb" << bb->id();
    }

    opt::DefMap defs = opt::collectDefs(fn);
    auto ref_defs = refCollectDefs(fn);
    ASSERT_EQ(defs.size(), static_cast<size_t>(fn.vregLimit()));
    std::vector<int> uses = opt::countUses(fn);
    auto ref_uses = refCountUses(fn);
    ASSERT_EQ(uses.size(), static_cast<size_t>(fn.vregLimit()));
    for (int v = 0; v < fn.vregLimit(); ++v) {
        auto it = ref_defs.find(v);
        std::vector<opt::InstRef> want;
        if (it != ref_defs.end())
            want = it->second;
        const auto &got = defs[static_cast<size_t>(v)];
        ASSERT_EQ(got.size(), want.size()) << "defs of v" << v;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].block, want[i].block) << "def of v" << v;
            EXPECT_EQ(got[i].index, want[i].index) << "def of v" << v;
        }
        auto uit = ref_uses.find(v);
        EXPECT_EQ(uses[static_cast<size_t>(v)],
                  uit == ref_uses.end() ? 0 : uit->second)
            << "uses of v" << v;
    }
    // Nothing the references saw lies beyond the dense limit.
    if (!ref_defs.empty()) {
        EXPECT_LT(ref_defs.rbegin()->first, fn.vregLimit());
    }
    if (!ref_uses.empty()) {
        EXPECT_LT(ref_uses.rbegin()->first, fn.vregLimit());
    }
}

/** Check every function straight out of irgen and after opt. */
void
checkProgram(const std::string &source, const std::string &label)
{
    setQuiet(true);
    lang::TypeTable types;
    auto ast = lang::parseSource(source, types);
    lang::Sema sema(*ast, types);
    sema.analyze();
    auto mod = irgen::lowerToIr(*ast, types, sema.globalSize());
    for (auto &fn : mod->functions)
        checkAgainstReference(*fn, label + " (irgen)");
    opt::runStandardPipeline(*mod);
    for (auto &fn : mod->functions)
        checkAgainstReference(*fn, label + " (opt)");
}

// ---- Hand-built IR.

IrInst
jump(BasicBlock *target)
{
    IrInst inst;
    inst.op = IrOpcode::Jump;
    inst.taken = target;
    return inst;
}

IrInst
branch(int a, BasicBlock *taken, BasicBlock *not_taken)
{
    IrInst inst;
    inst.op = IrOpcode::Br;
    inst.cond = CondCode::Ne;
    inst.a = Operand::makeReg(a);
    inst.b = Operand::makeImm(0);
    inst.taken = taken;
    inst.notTaken = not_taken;
    return inst;
}

IrInst
ret(int a = 0)
{
    IrInst inst;
    inst.op = IrOpcode::Ret;
    if (a)
        inst.a = Operand::makeReg(a);
    return inst;
}

IrInst
add(int dest, int a, int b)
{
    IrInst inst;
    inst.op = IrOpcode::Add;
    inst.dest = dest;
    inst.a = Operand::makeReg(a);
    inst.b = Operand::makeReg(b);
    return inst;
}

IrInst
movImm(int dest, int64_t value)
{
    IrInst inst;
    inst.op = IrOpcode::Mov;
    inst.dest = dest;
    inst.a = Operand::makeImm(value);
    return inst;
}

} // namespace

TEST(DenseAnalyses, MatchReferenceOnImitationWorkloads)
{
    for (const workloads::Workload *w : workloads::allWorkloads())
        checkProgram(w->source, w->name);
}

TEST(DenseAnalyses, MatchReferenceOnSyntheticFamilies)
{
    namespace syn = workloads::synthetic;
    for (const syn::FamilyInfo &f : syn::kernelFamilies()) {
        for (uint64_t seed : {1, 2}) {
            auto gen =
                syn::generateScenario(syn::sampleSpec(f.family, seed));
            checkProgram(gen.source, gen.name);
        }
    }
}

TEST(DenseAnalyses, MatchReferenceOnGeneratedPrograms)
{
    verify::ProgramGen gen(2024);
    for (int i = 0; i < 12; ++i)
        checkProgram(gen.generate(), "programgen#" + std::to_string(i));
}

TEST(DenseAnalyses, UnreachableBlocksAndSelfLoops)
{
    // entry -> loop (self-loop) -> exit; dead1 <-> dead2 form an
    // unreachable cycle, and dead2 branches into the live loop.
    Function fn("edges");
    BasicBlock *entry = fn.newBlock();
    BasicBlock *loop = fn.newBlock();
    BasicBlock *exit = fn.newBlock();
    BasicBlock *dead1 = fn.newBlock();
    BasicBlock *dead2 = fn.newBlock();
    int x = fn.newVReg();
    int y = fn.newVReg();
    int z = fn.newVReg();
    entry->insts.push_back(movImm(x, 1));
    entry->insts.push_back(movImm(y, 2));
    entry->insts.push_back(jump(loop));
    loop->insts.push_back(add(x, x, y));
    loop->insts.push_back(branch(x, loop, exit));
    exit->insts.push_back(ret(x));
    dead1->insts.push_back(add(z, z, x));
    dead1->insts.push_back(jump(dead2));
    dead2->insts.push_back(branch(z, dead1, loop));
    checkAgainstReference(fn, "edges");

    Dominators doms(fn);
    EXPECT_EQ(doms.idom(loop), entry);
    EXPECT_EQ(doms.idom(dead1), nullptr);
    EXPECT_TRUE(doms.dominates(dead1, dead1));
    EXPECT_FALSE(doms.dominates(entry, dead1));
    EXPECT_TRUE(doms.dominates(loop, loop));
    Liveness live(fn);
    EXPECT_TRUE(live.liveIn(loop).contains(x));
    EXPECT_TRUE(live.liveIn(loop).contains(y));
    EXPECT_TRUE(live.liveOut(loop).contains(x));
    EXPECT_TRUE(live.liveIn(dead1).empty());
    EXPECT_TRUE(live.liveOut(dead2).empty());

    // Once the unreachable blocks are gone, their ids are gaps.
    fn.removeUnreachable();
    checkAgainstReference(fn, "edges without dead blocks");
}

TEST(DenseAnalyses, HighestVregAndWordBoundaries)
{
    // Values live across a loop at vreg ids 63, 64, 127, 128 and the
    // function's highest id, vregLimit() - 1.
    Function fn("wide");
    BasicBlock *entry = fn.newBlock();
    BasicBlock *header = fn.newBlock();
    BasicBlock *body = fn.newBlock();
    BasicBlock *exit = fn.newBlock();
    std::vector<int> regs;
    for (int i = 0; i < 129; ++i)
        regs.push_back(fn.newVReg());
    int top = fn.newVReg();
    ASSERT_EQ(top, fn.vregLimit() - 1);
    std::vector<int> probes = {63, 64, 127, 128, top};
    for (int v : probes)
        entry->insts.push_back(movImm(v, v));
    entry->insts.push_back(jump(header));
    header->insts.push_back(branch(top, body, exit));
    for (int v : probes)
        body->insts.push_back(add(v, v, top));
    body->insts.push_back(jump(header));
    exit->insts.push_back(ret(top));
    checkAgainstReference(fn, "wide");

    Liveness live(fn);
    for (int v : probes) {
        EXPECT_TRUE(live.liveIn(header).contains(v)) << v;
        EXPECT_TRUE(live.liveOut(body).contains(v)) << v;
        EXPECT_FALSE(live.liveIn(entry).contains(v)) << v;
    }
    EXPECT_FALSE(live.liveIn(header).contains(fn.vregLimit()));
    std::vector<int> uses = opt::countUses(fn);
    // Twice in its own add, once in each other add, the branch, the
    // return.
    EXPECT_EQ(uses[static_cast<size_t>(top)], 8);
    opt::DefMap defs = opt::collectDefs(fn);
    EXPECT_EQ(defs[static_cast<size_t>(top)].size(), 2u);
}

TEST(DenseAnalyses, PreheaderAddedAfterDominatorsWereBuilt)
{
    // entry -> header <-> body, header -> exit; the header has two
    // outside predecessors (entry and side), so ensurePreheader must
    // insert a fresh block.
    Function fn("late");
    BasicBlock *entry = fn.newBlock();
    BasicBlock *side = fn.newBlock();
    BasicBlock *header = fn.newBlock();
    BasicBlock *body = fn.newBlock();
    BasicBlock *exit = fn.newBlock();
    int c = fn.newVReg();
    int i = fn.newVReg();
    entry->insts.push_back(movImm(c, 1));
    entry->insts.push_back(movImm(i, 0));
    entry->insts.push_back(branch(c, side, header));
    side->insts.push_back(jump(header));
    header->insts.push_back(branch(i, body, exit));
    body->insts.push_back(add(i, i, c));
    body->insts.push_back(jump(header));
    exit->insts.push_back(ret(i));
    fn.recomputeCfg();

    std::vector<BasicBlock *> old_blocks;
    for (const auto &bb : fn.blocks())
        old_blocks.push_back(bb.get());
    Dominators stale(fn);
    Liveness stale_live(fn);
    LoopInfo loops(fn);
    ASSERT_EQ(loops.loops().size(), 1u);
    BasicBlock *pre = ensurePreheader(fn, *loops.loops()[0]);
    ASSERT_NE(pre, entry);
    ASSERT_NE(pre, side);
    EXPECT_GE(pre->id(), 5);

    // The new block has no idom and dominates only itself.
    EXPECT_EQ(stale.idom(pre), nullptr);
    EXPECT_TRUE(stale.dominates(pre, pre));
    for (BasicBlock *bb : old_blocks) {
        EXPECT_FALSE(stale.dominates(pre, bb)) << "bb" << bb->id();
        EXPECT_FALSE(stale.dominates(bb, pre)) << "bb" << bb->id();
    }
    EXPECT_TRUE(stale_live.liveIn(pre).empty());
    EXPECT_FALSE(stale_live.liveIn(pre).contains(i));

    // Splitting the header's incoming edges leaves dominance between
    // the old blocks as it was, which LICM relies on.
    RefDominators fresh(fn);
    for (BasicBlock *a : old_blocks) {
        for (BasicBlock *b : old_blocks) {
            EXPECT_EQ(stale.dominates(a, b), fresh.dominates(a, b))
                << "bb" << a->id() << " dom bb" << b->id();
        }
    }
    checkAgainstReference(fn, "late");
}
