/**
 * @file
 * A set of virtual registers as a bitset over vreg ids.
 */

#ifndef ELAG_IR_REGSET_HH
#define ELAG_IR_REGSET_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace elag {
namespace ir {

/**
 * A set of virtual registers: one bit per vreg id below a limit fixed
 * at construction (normally Function::vregLimit()). The IR verifier
 * keeps every vreg of a function below its limit.
 */
class RegSet
{
  public:
    /** An empty set that can hold no vreg. */
    RegSet() = default;
    /** An empty set for vreg ids below @p limit. */
    explicit RegSet(int limit)
        : words((static_cast<size_t>(limit) + 63) / 64, 0)
    {
    }

    /** @return true if @p vreg is a member (false beyond the limit). */
    bool
    contains(int vreg) const
    {
        size_t w = static_cast<size_t>(vreg) / 64;
        return w < words.size() && (words[w] >> (vreg % 64) & 1);
    }
    /** Add @p vreg, which must be below the limit. */
    void insert(int vreg) { words[word(vreg)] |= bit(vreg); }
    /** Remove @p vreg, which must be below the limit. */
    void erase(int vreg) { words[word(vreg)] &= ~bit(vreg); }

    bool
    empty() const
    {
        for (uint64_t w : words) {
            if (w)
                return false;
        }
        return true;
    }

    /** Call @p f on every member, in ascending vreg order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (size_t w = 0; w < words.size(); ++w) {
            for (uint64_t bits = words[w]; bits; bits &= bits - 1) {
                f(static_cast<int>(w * 64) + std::countr_zero(bits));
            }
        }
    }

    bool operator==(const RegSet &o) const = default;

  private:
    // The liveness solver works a word at a time.
    friend class Liveness;

    static size_t word(int vreg) { return static_cast<size_t>(vreg) / 64; }
    static uint64_t bit(int vreg) { return uint64_t{1} << (vreg % 64); }

    std::vector<uint64_t> words;
};

} // namespace ir
} // namespace elag

#endif // ELAG_IR_REGSET_HH
