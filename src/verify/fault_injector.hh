/**
 * @file
 * Deterministic, seeded fault injection for the timing model.
 *
 * A FaultInjector perturbs the speculation hardware through narrow,
 * named decision points — stride-table tag aliasing and entry
 * corruption, forced R_addr invalidation and interlock storms, data-
 * cache port starvation, memory-latency jitter, and forced
 * verification failures. Every fault is *graceful* by Section 3.2's
 * argument: it can only suppress or mis-steer speculation, never
 * corrupt architectural state, so under any plan the emulator-
 * committed results must stay bit-identical while timing moves.
 *
 * Two deliberate *bug* switches (bypassAddressCheck,
 * bypassInterlockCheck) break the forwarding safety conditions
 * themselves; they exist so tests can prove the InvariantChecker
 * detects a broken implementation, and are excluded from the
 * graceful plan set.
 */

#ifndef ELAG_VERIFY_FAULT_INJECTOR_HH
#define ELAG_VERIFY_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/random.hh"

namespace elag {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace verify {

/** Per-fault firing rates; all zero means a no-op injector. */
struct FaultPlan
{
    std::string name = "none";
    /** Address-table probe ignores a tag mismatch (aliased entry). */
    double tagAliasRate = 0.0;
    /** Address-table probe returns a bit-flipped predicted address. */
    double entryCorruptRate = 0.0;
    /** R_addr binding dropped right before an ld_e probe. */
    double raddrInvalidateRate = 0.0;
    /** Base register treated as interlocked at ID1. */
    double forceInterlockRate = 0.0;
    /** Early-stage data-cache port reported busy. */
    double portStealRate = 0.0;
    /** Verification forced to fail despite a matching address. */
    double verifyFailRate = 0.0;
    /** Probability a cache miss gets extra latency. */
    double latencyJitterRate = 0.0;
    /** Maximum extra miss cycles when jitter fires. */
    uint32_t latencyJitterMax = 0;

    // --- deliberate bugs (NOT graceful; the checker must catch) ---
    /** Forward even when the speculative address mismatches. */
    bool bypassAddressCheck = false;
    /** Forward even when the base register is interlocked. */
    bool bypassInterlockCheck = false;
};

/** @return the plan registered under @p name; fatal() if unknown. */
FaultPlan planByName(const std::string &name);

/** Names of all graceful plans (excludes "none" and bug plans). */
std::vector<std::string> gracefulPlanNames();

/** Names of every registered plan, graceful and bug alike. */
std::vector<std::string> allPlanNames();

/**
 * splitmix64-style mixer deriving a per-run fault seed from a base
 * seed and a run index. Soak checkpoints and campaign manifests
 * record the seeds it produces, so its values must never change.
 */
inline uint64_t
mixSeed(uint64_t base, uint64_t salt)
{
    uint64_t z = base + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Seeded fault source. The hardware models query it at each decision
 * point; identical (plan, seed) pairs replay identical fault
 * sequences, so every soak failure is reproducible from its seed.
 */
class FaultInjector
{
  public:
    /** How often each fault class actually fired. */
    struct Counts
    {
        uint64_t tagAlias = 0;
        uint64_t entryCorrupt = 0;
        uint64_t raddrInvalidate = 0;
        uint64_t forceInterlock = 0;
        uint64_t portSteal = 0;
        uint64_t verifyFail = 0;
        uint64_t latencyJitter = 0;

        uint64_t
        total() const
        {
            return tagAlias + entryCorrupt + raddrInvalidate +
                   forceInterlock + portSteal + verifyFail +
                   latencyJitter;
        }
    };

    explicit FaultInjector(const FaultPlan &plan, uint64_t seed);

    // Decision points (one rng draw each; order is deterministic).
    bool fireTagAlias();
    bool fireEntryCorrupt();
    bool fireRaddrInvalidate();
    bool fireForceInterlock();
    bool firePortSteal();
    bool fireVerifyFail();
    /** @return extra miss-penalty cycles (0 when jitter is quiet). */
    uint32_t latencyJitter();

    bool bypassAddressCheck() const { return plan_.bypassAddressCheck; }
    bool
    bypassInterlockCheck() const
    {
        return plan_.bypassInterlockCheck;
    }

    /** Deterministic bit-flip used for corrupted addresses. */
    uint32_t corruptAddress(uint32_t addr);

    const FaultPlan &plan() const { return plan_; }
    uint64_t seed() const { return seed_; }
    const Counts &counts() const { return counts_; }

    /**
     * Checkpoint the full injector: plan, seed, raw PRNG state and
     * fired counts. Restoring resumes the fault stream exactly where
     * the snapshot left it, so an injected run replayed from a
     * checkpoint sees the identical fault sequence.
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    bool fire(double rate, uint64_t &counter);

    FaultPlan plan_;
    uint64_t seed_;
    Pcg32 rng;
    Counts counts_;
};

} // namespace verify
} // namespace elag

#endif // ELAG_VERIFY_FAULT_INJECTOR_HH
