/**
 * @file
 * The served side of the benchmark: one elagd process started from
 * the built binary, and an open-loop request generator built on
 * serve::Client.
 */

#ifndef PERFBENCH_SERVE_SESSION_HH
#define PERFBENCH_SERVE_SESSION_HH

#include <sys/types.h>

#include <string>
#include <vector>

#include "harness/inputs.hh"
#include "harness/measure.hh"
#include "serve/protocol.hh"

namespace perfbench {

/**
 * One elagd in embedded mode (no shards) with two simulation jobs,
 * listening on a Unix socket. The constructor returns once the
 * socket accepts connections; the destructor drains the daemon with
 * SIGTERM and reaps it. The daemon is killed if this process dies.
 */
class Elagd
{
  public:
    Elagd(const std::string &binary, const std::string &socket,
          const std::string &log);
    ~Elagd();

    Elagd(const Elagd &) = delete;
    Elagd &operator=(const Elagd &) = delete;

    pid_t pid() const { return pid_; }

    /** Answer of a control verb (`stats`, `metrics`) on a new link. */
    std::string control(const std::string &verb) const;

    /**
     * Drain and reap the daemon. @return true when it exited 0
     * within the grace period (it is killed otherwise).
     */
    bool stop();

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** One request of an open-loop session, as it went. */
struct CallRecord
{
    /** Seconds from the session start: due, sent, answered. */
    double dueS = 0, sentS = 0, doneS = 0;
    bool ok = false;
    /** FNV-1a hash of the result document (see sourceHash). */
    std::string resultHash;
    /** Full result text, kept for `generate` answers only. */
    std::string result;
    std::string errorType;
    /**
     * CPU seconds of referenceWorkSeconds(), run by the sender after
     * the answer arrived when its next request is not due for a while;
     * 0 when it was not run.
     */
    double referenceS = 0;

    double latencyS() const { return doneS - dueS; }
    double serviceS() const { return doneS - sentS; }
    double lateS() const { return sentS - dueS; }
};

/**
 * Replay @p schedule open-loop against @p socket over @p connections
 * connections, one sender thread each taking every
 * connections-th request. Each request is sent at its due time, or
 * as soon as its connection is free when that is later; latency
 * counts from the due time, so a stall is charged to every request
 * it delays. Between requests the sender runs the reference work
 * (see CallRecord::referenceS).
 */
std::vector<CallRecord>
runOpenLoop(const std::string &socket,
            const std::vector<ScheduledRequest> &schedule,
            unsigned connections);

/** Counts read from a `stats` document. */
struct ServerCounts
{
    uint64_t cacheHits = 0, cacheMisses = 0;
    uint64_t rejectedOverload = 0, completed = 0;
};

/** Parse the counters the benchmark uses out of a stats document. */
ServerCounts parseStats(const std::string &stats_doc);

} // namespace perfbench

#endif // PERFBENCH_SERVE_SESSION_HH
