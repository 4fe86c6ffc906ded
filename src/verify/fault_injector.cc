#include "verify/fault_injector.hh"

#include "ckpt/serial.hh"
#include "support/logging.hh"

namespace elag {
namespace verify {

namespace {

/** The named plan registry. Rates are deliberately aggressive: the
 *  soak's point is to hammer the failure arms of Section 3.2, not to
 *  model realistic fault frequencies. */
const std::vector<FaultPlan> &
registry()
{
    static const std::vector<FaultPlan> plans = [] {
        std::vector<FaultPlan> v;

        FaultPlan none;
        v.push_back(none);

        FaultPlan alias;
        alias.name = "tag-alias";
        alias.tagAliasRate = 0.15;
        v.push_back(alias);

        FaultPlan corrupt;
        corrupt.name = "corrupt";
        corrupt.entryCorruptRate = 0.15;
        v.push_back(corrupt);

        FaultPlan storm;
        storm.name = "raddr-storm";
        storm.raddrInvalidateRate = 0.25;
        storm.forceInterlockRate = 0.25;
        v.push_back(storm);

        FaultPlan starve;
        starve.name = "port-starve";
        starve.portStealRate = 0.5;
        v.push_back(starve);

        FaultPlan jitter;
        jitter.name = "jitter";
        jitter.latencyJitterRate = 0.3;
        jitter.latencyJitterMax = 40;
        v.push_back(jitter);

        FaultPlan vfail;
        vfail.name = "verify-fail";
        vfail.verifyFailRate = 0.3;
        v.push_back(vfail);

        FaultPlan chaos;
        chaos.name = "chaos";
        chaos.tagAliasRate = 0.05;
        chaos.entryCorruptRate = 0.05;
        chaos.raddrInvalidateRate = 0.1;
        chaos.forceInterlockRate = 0.1;
        chaos.portStealRate = 0.2;
        chaos.verifyFailRate = 0.1;
        chaos.latencyJitterRate = 0.1;
        chaos.latencyJitterMax = 24;
        v.push_back(chaos);

        FaultPlan bug_addr;
        bug_addr.name = "bug-addr-bypass";
        bug_addr.bypassAddressCheck = true;
        v.push_back(bug_addr);

        FaultPlan bug_lock;
        bug_lock.name = "bug-interlock-bypass";
        bug_lock.bypassInterlockCheck = true;
        v.push_back(bug_lock);

        return v;
    }();
    return plans;
}

bool
isGraceful(const FaultPlan &plan)
{
    return plan.name != "none" && !plan.bypassAddressCheck &&
           !plan.bypassInterlockCheck;
}

} // anonymous namespace

std::optional<FaultPlan>
findPlan(const std::string &name)
{
    for (const FaultPlan &plan : registry()) {
        if (plan.name == name)
            return plan;
    }
    return std::nullopt;
}

FaultPlan
planByName(const std::string &name)
{
    std::optional<FaultPlan> plan = findPlan(name);
    if (!plan)
        fatal("unknown fault plan '%s'", name.c_str());
    return *plan;
}

std::vector<std::string>
gracefulPlanNames()
{
    std::vector<std::string> names;
    for (const FaultPlan &plan : registry()) {
        if (isGraceful(plan))
            names.push_back(plan.name);
    }
    return names;
}

std::vector<std::string>
allPlanNames()
{
    std::vector<std::string> names;
    for (const FaultPlan &plan : registry())
        names.push_back(plan.name);
    return names;
}

FaultInjector::FaultInjector(const FaultPlan &plan, uint64_t seed)
    : plan_(plan), seed_(seed), rng(seed)
{
}

bool
FaultInjector::fire(double rate, uint64_t &counter)
{
    if (rate <= 0.0)
        return false;
    if (!rng.nextBool(rate))
        return false;
    ++counter;
    return true;
}

bool
FaultInjector::fireTagAlias()
{
    return fire(plan_.tagAliasRate, counts_.tagAlias);
}

bool
FaultInjector::fireEntryCorrupt()
{
    return fire(plan_.entryCorruptRate, counts_.entryCorrupt);
}

bool
FaultInjector::fireRaddrInvalidate()
{
    return fire(plan_.raddrInvalidateRate, counts_.raddrInvalidate);
}

bool
FaultInjector::fireForceInterlock()
{
    return fire(plan_.forceInterlockRate, counts_.forceInterlock);
}

bool
FaultInjector::firePortSteal()
{
    return fire(plan_.portStealRate, counts_.portSteal);
}

bool
FaultInjector::fireVerifyFail()
{
    return fire(plan_.verifyFailRate, counts_.verifyFail);
}

uint32_t
FaultInjector::latencyJitter()
{
    if (plan_.latencyJitterMax == 0 ||
        !fire(plan_.latencyJitterRate, counts_.latencyJitter)) {
        return 0;
    }
    return 1 + rng.nextBounded(plan_.latencyJitterMax);
}

uint32_t
FaultInjector::corruptAddress(uint32_t addr)
{
    // Flip a random low bit plus a random block-sized bit so both
    // same-block and cross-block mispredictions are exercised.
    uint32_t low = 1u << rng.nextBounded(6);
    uint32_t high = 1u << (6 + rng.nextBounded(10));
    return addr ^ low ^ high;
}

void
FaultInjector::serialize(ckpt::Writer &w) const
{
    w.str(plan_.name);
    w.f64(plan_.tagAliasRate);
    w.f64(plan_.entryCorruptRate);
    w.f64(plan_.raddrInvalidateRate);
    w.f64(plan_.forceInterlockRate);
    w.f64(plan_.portStealRate);
    w.f64(plan_.verifyFailRate);
    w.f64(plan_.latencyJitterRate);
    w.varint(plan_.latencyJitterMax);
    w.b(plan_.bypassAddressCheck);
    w.b(plan_.bypassInterlockCheck);
    w.u64(seed_);
    w.u64(rng.rawState());
    w.u64(rng.rawInc());
    w.varint(counts_.tagAlias);
    w.varint(counts_.entryCorrupt);
    w.varint(counts_.raddrInvalidate);
    w.varint(counts_.forceInterlock);
    w.varint(counts_.portSteal);
    w.varint(counts_.verifyFail);
    w.varint(counts_.latencyJitter);
}

void
FaultInjector::restore(ckpt::Reader &r)
{
    plan_.name = r.str();
    plan_.tagAliasRate = r.f64();
    plan_.entryCorruptRate = r.f64();
    plan_.raddrInvalidateRate = r.f64();
    plan_.forceInterlockRate = r.f64();
    plan_.portStealRate = r.f64();
    plan_.verifyFailRate = r.f64();
    plan_.latencyJitterRate = r.f64();
    plan_.latencyJitterMax = static_cast<uint32_t>(r.varint());
    plan_.bypassAddressCheck = r.b();
    plan_.bypassInterlockCheck = r.b();
    seed_ = r.u64();
    uint64_t state = r.u64();
    uint64_t inc = r.u64();
    rng.setRaw(state, inc);
    counts_.tagAlias = r.varint();
    counts_.entryCorrupt = r.varint();
    counts_.raddrInvalidate = r.varint();
    counts_.forceInterlock = r.varint();
    counts_.portSteal = r.varint();
    counts_.verifyFail = r.varint();
    counts_.latencyJitter = r.varint();
}

} // namespace verify
} // namespace elag
