/**
 * @file
 * Seeded inputs of the three benchmark workloads.
 *
 * Everything the program under test receives is built here from the
 * workload name and the seed alone, so one seed always yields the
 * same programs, machine configurations, pass orders and request
 * schedule. The seed never changes how much work a workload carries:
 * it picks orders, scenario seeds and request kinds from fixed
 * shares, which keeps runs with different seeds comparable.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/config.hh"
#include "serve/protocol.hh"
#include "workloads/synthetic/scenario.hh"

namespace perfbench {

/**
 * A machine configuration, written as the request members elagd and
 * elagc take (machine, table, selection), with a short label.
 */
struct MachineSpec
{
    std::string label;
    std::string machine = "proposed";
    uint32_t table = 0;
    std::string selection;

    /** The timing-model configuration, as elagd derives it. */
    elag::pipeline::MachineConfig config() const;
};

/** One program of a workload. */
struct Program
{
    std::string label;
    std::string source;
    /** print() output a complete run must produce; empty = unchecked. */
    std::vector<int32_t> expectedOutput;
};

/** One simulated run: a program on a machine. */
struct Op
{
    size_t program = 0;
    size_t machine = 0;
    uint64_t maxInst = 0;
};

/** What a request is for, and so which latency class it joins. */
enum class RequestKind { Hit, Miss, Generate };

/** One request of an open-loop schedule. */
struct ScheduledRequest
{
    /** Seconds after the schedule's start at which it is due. */
    double dueS = 0.0;
    RequestKind kind = RequestKind::Miss;
    elag::serve::Request request;
};

/** Everything one workload feeds the system. */
struct Inputs
{
    std::string workload;
    uint64_t seed = 0;
    std::vector<Program> programs;
    std::vector<MachineSpec> machines;
    /** One pass: every simulated run of the workload once. */
    std::vector<Op> ops;
    /** Scenario specs the workload generates programs from. */
    std::vector<elag::workloads::synthetic::ScenarioSpec> specs;
    /**
     * Requests sent once before the schedule starts (serve-mixed:
     * the hot set, so its schedule entries are RunCache hits).
     */
    std::vector<elag::serve::Request> warmup;
    /** The open-loop schedule the served session replays. */
    std::vector<ScheduledRequest> schedule;

    /** Seeded order in which pass @p pass runs the ops. */
    std::vector<size_t> passOrder(uint64_t pass) const;
};

/**
 * Arrival rate of the serve-mixed schedule, requests per second:
 * about a fifth of the rate elagd sustains on the same mix served
 * closed-loop (perfbench --capacity; see README.md).
 */
constexpr double kServeRate = 40.0;

/**
 * Build the inputs of @p workload for @p seed. @p seconds sizes the
 * serve-mixed schedule (rate x seconds requests). Batch workloads
 * get a short probe schedule of their own runs as simulate requests,
 * which the traced run serves to measure the serving layers on
 * their programs. Throws std::invalid_argument on an unknown name.
 */
Inputs makeInputs(const std::string &workload, uint64_t seed,
                  double seconds);

/**
 * A canonical text rendering of @p inputs: program labels and source
 * hashes, machines, the first pass order and every scheduled
 * request. Equal text means equal inputs.
 */
std::string describe(const Inputs &inputs);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
