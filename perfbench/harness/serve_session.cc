#include "harness/serve_session.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>
#include <thread>

#include "serve/client.hh"
#include "support/json.hh"
#include "workloads/synthetic/generator.hh"

namespace perfbench {

using elag::serve::Client;
using elag::serve::Request;
using elag::serve::Response;

namespace {

/** Wait up to @p timeout_s for @p pid to exit; reaps it. */
bool
waitExit(pid_t pid, double timeout_s, int &status)
{
    auto start = Clock::now();
    for (;;) {
        pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return true;
        if (r < 0)
            return false;
        if (seconds(start, Clock::now()) > timeout_s)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/**
 * Block until @p due: sleep to within kSpinWindow of it, then spin.
 * A sleeping thread wakes late by up to milliseconds on a loaded
 * host; spinning the last stretch keeps that lateness out of the
 * latencies, which count from the due time.
 */
void
waitUntil(Clock::time_point due)
{
    constexpr auto kSpinWindow = std::chrono::milliseconds(1);
    if (Clock::now() < due - kSpinWindow)
        std::this_thread::sleep_until(due - kSpinWindow);
    while (Clock::now() < due) {
    }
}

/**
 * Least time before a connection's next due request for the sender
 * to run the reference work (which takes about two milliseconds).
 */
constexpr double kReferenceSlackS = 0.01;

} // namespace

Elagd::Elagd(const std::string &binary, const std::string &socket,
             const std::string &log)
    : socket_(socket)
{
    unlink(socket_.c_str());
    std::vector<std::string> args = {binary, "--socket=" + socket_,
                                     "--jobs=2", "--quiet"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int logFd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logFd < 0)
        throw std::runtime_error("cannot open elagd log '" + log + "'");
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
        close(logFd);
        throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
        // Only async-signal-safe calls between fork and exec.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        dup2(logFd, STDOUT_FILENO);
        dup2(logFd, STDERR_FILENO);
        close(logFd);
        execv(argv[0], argv.data());
        _exit(127);
    }
    close(logFd);

    auto start = Clock::now();
    for (;;) {
        try {
            Client probe = Client::connectTo(socket_);
            (void)probe;
            return;
        } catch (const std::exception &) {
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("elagd exited at start-up; see " +
                                     log);
        }
        if (seconds(start, Clock::now()) > 30) {
            stop();
            throw std::runtime_error("elagd did not open its socket");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

Elagd::~Elagd()
{
    stop();
}

bool
Elagd::stop()
{
    if (pid_ < 0)
        return true;
    kill(pid_, SIGTERM);
    int status = 0;
    bool clean = waitExit(pid_, 20, status) && WIFEXITED(status) &&
                 WEXITSTATUS(status) == 0;
    if (!clean && waitpid(pid_, &status, WNOHANG) == 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    unlink(socket_.c_str());
    return clean;
}

std::string
Elagd::control(const std::string &verb) const
{
    Client client = Client::connectTo(socket_);
    Request r;
    r.verb = verb;
    Response resp = client.call(r);
    if (!resp.ok)
        throw std::runtime_error("elagd refused '" + verb +
                                 "': " + resp.errorMessage);
    return resp.result;
}

std::vector<CallRecord>
runOpenLoop(const std::string &socket,
            const std::vector<ScheduledRequest> &schedule,
            unsigned connections)
{
    std::vector<CallRecord> records(schedule.size());
    // Connect before the clock starts: the schedule measures
    // requests, not connection set-up.
    std::vector<std::unique_ptr<Client>> clients;
    for (unsigned c = 0; c < connections; ++c)
        clients.push_back(
            std::make_unique<Client>(Client::connectTo(socket)));
    const auto start = Clock::now() + std::chrono::milliseconds(5);

    auto sender = [&](unsigned c) {
        for (size_t i = c; i < schedule.size(); i += connections) {
            const ScheduledRequest &s = schedule[i];
            CallRecord &rec = records[i];
            rec.dueS = s.dueS;
            waitUntil(start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(s.dueS)));
            Request request = s.request;
            request.id = i;
            rec.sentS = seconds(start, Clock::now());
            try {
                if (!clients[c])
                    clients[c] = std::make_unique<Client>(
                        Client::connectTo(socket));
                Response resp = clients[c]->call(request);
                rec.ok = resp.ok;
                rec.errorType = resp.errorType;
                rec.resultHash =
                    elag::workloads::synthetic::sourceHash(resp.result);
                if (request.verb == "generate")
                    rec.result = std::move(resp.result);
            } catch (const std::exception &) {
                // Transport failure: the request failed; reconnect
                // for the next one.
                rec.ok = false;
                rec.errorType = "transport";
                clients[c].reset();
            }
            rec.doneS = seconds(start, Clock::now());
            // The reference work must never delay a request: run it
            // only when the connection's next request is well ahead.
            size_t next = i + connections;
            if (next < schedule.size() &&
                schedule[next].dueS - rec.doneS > kReferenceSlackS)
                rec.referenceS = referenceWorkSeconds();
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c)
        threads.emplace_back(sender, c);
    for (std::thread &t : threads)
        t.join();
    return records;
}

ServerCounts
parseStats(const std::string &doc)
{
    using elag::jsonExtractRaw;
    using elag::jsonExtractUint;
    std::string cache, queue;
    ServerCounts counts;
    if (!jsonExtractRaw(doc, "run_cache", cache) ||
        !jsonExtractRaw(doc, "queue", queue) ||
        !jsonExtractUint(cache, "hits", counts.cacheHits) ||
        !jsonExtractUint(cache, "misses", counts.cacheMisses) ||
        !jsonExtractUint(queue, "rejected_overload",
                         counts.rejectedOverload) ||
        !jsonExtractUint(queue, "completed", counts.completed))
        throw std::runtime_error("unexpected elagd stats document");
    return counts;
}

} // namespace perfbench
