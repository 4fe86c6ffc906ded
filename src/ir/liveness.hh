/**
 * @file
 * Virtual-register liveness analysis.
 */

#ifndef ELAG_IR_LIVENESS_HH
#define ELAG_IR_LIVENESS_HH

#include <vector>

#include "ir/ir.hh"
#include "ir/regset.hh"

namespace elag {
namespace ir {

/**
 * Per-block live-in/live-out sets of virtual registers, held as
 * RegSets in vectors indexed by block id (Function::blockLimit() at
 * construction). Every block of the function gets a set sized for
 * Function::vregLimit(); those of blocks unreachable from the entry
 * stay empty. Blocks created after the analysis was built get an
 * empty set that holds nothing. Any edit to the instructions, the CFG
 * or the vreg limit invalidates the analysis.
 */
class Liveness
{
  public:
    /** Compute liveness; the function's CFG must be current. */
    explicit Liveness(const Function &fn);

    const RegSet &liveIn(const BasicBlock *bb) const;
    const RegSet &liveOut(const BasicBlock *bb) const;

  private:
    std::vector<RegSet> liveIns;
    std::vector<RegSet> liveOuts;
    RegSet none;
};

} // namespace ir
} // namespace elag

#endif // ELAG_IR_LIVENESS_HH
