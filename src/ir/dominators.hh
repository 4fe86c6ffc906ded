/**
 * @file
 * Dominator-tree computation.
 */

#ifndef ELAG_IR_DOMINATORS_HH
#define ELAG_IR_DOMINATORS_HH

#include <vector>

#include "ir/ir.hh"

namespace elag {
namespace ir {

/**
 * Dominator information for a function, computed with the classic
 * Cooper-Harvey-Kennedy iterative algorithm over the RPO.
 *
 * Results are stored in vectors indexed by block id, sized by the
 * function's Function::blockLimit() at construction. Blocks created
 * afterwards (a preheader inserted by a loop pass, say) answer "no
 * idom", and so dominate only themselves; answers between the blocks
 * that existed stay valid as long as the CFG edges among them do.
 */
class Dominators
{
  public:
    /** Compute dominators; the function's CFG must be current. */
    explicit Dominators(const Function &fn);

    /**
     * Immediate dominator of @p bb: null for the entry block, for
     * blocks unreachable from it, and for blocks created after the
     * analysis was built.
     */
    const BasicBlock *idom(const BasicBlock *bb) const;

    /** @return true if @p a dominates @p b (reflexive). */
    bool dominates(const BasicBlock *a, const BasicBlock *b) const;

  private:
    /** Immediate dominator by block id; null where there is none. */
    std::vector<const BasicBlock *> idoms;
};

} // namespace ir
} // namespace elag

#endif // ELAG_IR_DOMINATORS_HH
