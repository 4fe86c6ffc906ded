/**
 * @file
 * Tests for the serving subsystem: framing, the request/response
 * protocol, and an in-process elagd end to end — concurrent clients,
 * byte-identity with direct simulation, admission control under
 * overload, deadlines, and graceful drain.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "pipeline/telemetry.hh"
#include "serve/client.hh"
#include "serve/framing.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/socket.hh"
#include "sim/run_cache.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

using namespace elag;
using namespace elag::serve;

namespace {

/** A connected AF_UNIX socket pair wrapped in RAII fds. */
struct Pair
{
    Fd a, b;
    Pair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a.reset(fds[0]);
        b.reset(fds[1]);
    }
};

/** Fresh socket path per server so tests never collide. */
std::string
testSocketPath()
{
    static std::atomic<int> counter{0};
    return formatString("/tmp/elag-serve-test-%d-%d.sock",
                        static_cast<int>(::getpid()),
                        counter.fetch_add(1));
}

const char *kTinyProgram =
    "int main() { print(5); return 0; }";

const char *kArrayProgram = R"(
    int arr[64];
    int main() {
        int t = 0;
        for (int i = 0; i < 64; i++) { arr[i] = i * 3; t += arr[i]; }
        print(t);
        return 0;
    }
)";

/** Long enough to be visibly in flight, bounded by max_inst. */
const char *kSlowProgram = R"(
    int main() {
        int t = 0;
        for (int i = 0; i < 100000000; i++) t += i;
        print(t);
        return 0;
    }
)";

Request
simulateRequest(const std::string &source,
                uint64_t max_inst = 1'000'000)
{
    Request request;
    request.verb = "simulate";
    request.source = source;
    request.maxInst = max_inst;
    return request;
}

/** Poll a uint member of the stats document until it matches. */
bool
awaitStat(Client &client, const std::string &key, uint64_t want,
          int timeout_ms = 5000)
{
    Request stats;
    stats.verb = "stats";
    for (int i = 0; i < timeout_ms; ++i) {
        Response response = client.call(stats);
        EXPECT_TRUE(response.ok);
        uint64_t got = 0;
        if (jsonExtractUint(response.result, key, got) &&
            got == want) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

} // namespace

TEST(Framing, RoundTripsPayloads)
{
    Pair p;
    std::vector<std::string> payloads = {
        "x", "{\"verb\": \"health\"}", std::string(100'000, 'a')};
    for (const std::string &sent : payloads)
        ASSERT_TRUE(writeFrame(p.a.get(), sent));
    for (const std::string &sent : payloads) {
        std::string got;
        ASSERT_EQ(readFrame(p.b.get(), got), FrameStatus::Ok);
        EXPECT_EQ(got, sent);
    }
}

TEST(Framing, CleanEofBetweenFrames)
{
    Pair p;
    ASSERT_TRUE(writeFrame(p.a.get(), "hello"));
    p.a.reset();
    std::string got;
    EXPECT_EQ(readFrame(p.b.get(), got), FrameStatus::Ok);
    EXPECT_EQ(readFrame(p.b.get(), got), FrameStatus::Eof);
}

TEST(Framing, TruncatedHeaderAndPayload)
{
    {
        Pair p;
        // Half a length header, then EOF.
        const char partial[2] = {0, 0};
        ASSERT_TRUE(writeFull(p.a.get(), partial, sizeof(partial)));
        p.a.reset();
        std::string got;
        EXPECT_EQ(readFrame(p.b.get(), got), FrameStatus::Truncated);
    }
    {
        Pair p;
        // Header promising 100 bytes, only 3 delivered.
        const unsigned char header[4] = {0, 0, 0, 100};
        ASSERT_TRUE(writeFull(p.a.get(), header, sizeof(header)));
        ASSERT_TRUE(writeFull(p.a.get(), "abc", 3));
        p.a.reset();
        std::string got;
        EXPECT_EQ(readFrame(p.b.get(), got), FrameStatus::Truncated);
    }
}

TEST(Framing, OversizedRejectedBeforePayload)
{
    Pair p;
    ASSERT_TRUE(writeFrame(p.a.get(), std::string(2048, 'z')));
    std::string got;
    EXPECT_EQ(readFrame(p.b.get(), got, 1024),
              FrameStatus::Oversized);
}

TEST(Framing, GarbageHeaderReadsAsOversized)
{
    Pair p;
    // Random high bytes decode as a multi-hundred-MB length, which
    // the default cap rejects without allocating.
    const unsigned char garbage[8] = {0xde, 0xad, 0xbe, 0xef,
                                      0x01, 0x02, 0x03, 0x04};
    ASSERT_TRUE(writeFull(p.a.get(), garbage, sizeof(garbage)));
    std::string got;
    EXPECT_EQ(readFrame(p.b.get(), got), FrameStatus::Oversized);
}

TEST(Protocol, RequestRoundTrip)
{
    Request request;
    request.verb = "simulate";
    request.id = 42;
    request.file = "loop.c";
    request.machine = "baseline";
    request.selection = "ev";
    request.table = 128;
    request.regs = 8;
    request.noOpt = true;
    request.maxInst = 123456;
    request.deadlineMs = 2500;
    request.source = "int main() { return 0; }";

    Request parsed;
    std::string error;
    ASSERT_TRUE(parseRequest(buildRequestDoc(request), parsed, error))
        << error;
    EXPECT_EQ(parsed.verb, request.verb);
    EXPECT_EQ(parsed.id, request.id);
    EXPECT_EQ(parsed.file, request.file);
    EXPECT_EQ(parsed.machine, request.machine);
    EXPECT_EQ(parsed.selection, request.selection);
    EXPECT_EQ(parsed.table, request.table);
    EXPECT_EQ(parsed.regs, request.regs);
    EXPECT_EQ(parsed.noOpt, request.noOpt);
    EXPECT_EQ(parsed.noClassify, request.noClassify);
    EXPECT_EQ(parsed.maxInst, request.maxInst);
    EXPECT_EQ(parsed.deadlineMs, request.deadlineMs);
    EXPECT_EQ(parsed.source, request.source);
}

TEST(Protocol, SourceCannotSpoofScalarMembers)
{
    // Protocol-looking text inside the shipped program must not leak
    // into scalar fields: they are only read before `source`.
    Request request;
    request.verb = "compile";
    request.id = 7;
    request.source =
        "int main() { return 0; } "
        "// \"verb\": \"simulate\", \"id\": 999, \"max_inst\": 1";

    Request parsed;
    std::string error;
    ASSERT_TRUE(parseRequest(buildRequestDoc(request), parsed, error));
    EXPECT_EQ(parsed.verb, "compile");
    EXPECT_EQ(parsed.id, 7u);
    EXPECT_EQ(parsed.maxInst, 500'000'000u);
    EXPECT_EQ(parsed.source, request.source);
}

TEST(Protocol, RejectsMalformedRequests)
{
    Request parsed;
    std::string error;
    EXPECT_FALSE(parseRequest("not json at all {", parsed, error));
    EXPECT_FALSE(parseRequest("[1, 2, 3]", parsed, error));
    EXPECT_FALSE(parseRequest("{\"id\": 3}", parsed, error));
    EXPECT_FALSE(parsed.verb.empty() && error.empty());
}

/** Unknown machine and policy names, as request members. */
const char *const kBadNameMembers[] = {
    "\"machine\": \"basline\"",
    "\"machine\": \"Proposed\"",
    "\"selection\": \"bogus\"",
};

TEST(Protocol, RejectsUnknownMachineAndSelectionNames)
{
    for (const char *member : kBadNameMembers) {
        Request parsed;
        std::string error;
        std::string doc = std::string("{\"verb\": \"simulate\", ") +
                          member + ", \"source\": \"int main() {}\"}";
        EXPECT_FALSE(parseRequest(doc, parsed, error)) << member;
        EXPECT_NE(error.find("unknown"), std::string::npos) << error;
    }
    // Known names still parse, table/regs sizes included.
    Request parsed;
    std::string error;
    EXPECT_TRUE(parseRequest(
        "{\"verb\": \"simulate\", \"machine\": \"baseline\", "
        "\"selection\": \"all-early\", \"regs\": 4}",
        parsed, error))
        << error;
}

TEST(Serve, UnknownMachineAndSelectionNamesAreBadRequests)
{
    setQuiet(true);
    parallel::ThreadPool pool(2);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    Client client = Client::connectTo(config.socketPath);
    Request basline = simulateRequest(kTinyProgram);
    basline.machine = "basline";
    Request capitalized = simulateRequest(kTinyProgram);
    capitalized.machine = "Proposed";
    Request bogus = simulateRequest(kTinyProgram);
    bogus.selection = "bogus";
    for (const Request &request : {basline, capitalized, bogus}) {
        Response response = client.call(request);
        EXPECT_FALSE(response.ok) << request.machine;
        EXPECT_EQ(response.errorType, errtype::BadRequest)
            << response.errorMessage;
    }
    // The connection stays usable for a well-formed request.
    EXPECT_TRUE(client.call(simulateRequest(kTinyProgram)).ok);

    server.beginDrain();
    server.wait();
}

TEST(Protocol, ResponseEnvelopesRoundTrip)
{
    Request request;
    request.verb = "simulate";
    request.id = 9;

    Response ok;
    std::string error;
    ASSERT_TRUE(parseResponse(okResponse(request, "{\n  \"a\": 1\n}"),
                              ok, error));
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.id, 9u);
    EXPECT_EQ(ok.verb, "simulate");
    EXPECT_EQ(ok.result, "{\n  \"a\": 1\n}");

    Response err;
    ASSERT_TRUE(parseResponse(
        errorResponse(request, errtype::Overloaded, "queue full"),
        err, error));
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.errorType, errtype::Overloaded);
    EXPECT_EQ(err.errorMessage, "queue full");
}

TEST(Serve, EndToEndMatchesDirectSimulation)
{
    setQuiet(true);
    sim::RunCache::instance().clear();

    parallel::ThreadPool pool(4);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    const uint64_t max_inst = 1'000'000;

    // The expected document, computed without the server.
    auto prog = sim::compile(kArrayProgram);
    auto base = sim::runTimed(
        prog, pipeline::MachineConfig::baseline(), max_inst);
    pipeline::LoadTelemetry telemetry;
    auto timed =
        sim::runTimed(prog, pipeline::MachineConfig::proposed(),
                      max_inst, {&telemetry});
    std::string expected = sim::statsReportJson(
        "<request>", "proposed", "", prog, base, timed, telemetry);

    // Concurrent clients, each its own connection; every response
    // must be byte-identical to the direct run.
    std::vector<std::thread> clients;
    std::atomic<int> matched{0};
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&] {
            Client client = Client::connectTo(config.socketPath);
            for (int i = 0; i < 3; ++i) {
                Response response =
                    client.call(simulateRequest(kArrayProgram,
                                                max_inst));
                EXPECT_TRUE(response.ok)
                    << response.errorType << ": "
                    << response.errorMessage;
                EXPECT_EQ(response.result, expected);
                if (response.ok && response.result == expected)
                    matched.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(matched.load(), 12);

    // Repeated identical workloads must have hit the run cache.
    auto cache_stats = sim::RunCache::instance().stats();
    EXPECT_GT(cache_stats.hits, 0u);

    server.beginDrain();
    server.wait();
}

TEST(Serve, CompileClassifyHealthAndUnknownVerbs)
{
    setQuiet(true);
    parallel::ThreadPool pool(2);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    Client client = Client::connectTo(config.socketPath);

    Request health;
    health.verb = "health";
    Response response = client.call(health);
    ASSERT_TRUE(response.ok);
    std::string status;
    ASSERT_TRUE(jsonExtractString(response.result, "status", status));
    EXPECT_EQ(status, "ok");

    Request compile;
    compile.verb = "compile";
    compile.source = kTinyProgram;
    response = client.call(compile);
    ASSERT_TRUE(response.ok);
    uint64_t instructions = 0;
    EXPECT_TRUE(jsonExtractUint(response.result, "instructions",
                                instructions));
    EXPECT_GT(instructions, 0u);

    Request classify;
    classify.verb = "classify";
    classify.source = kArrayProgram;
    response = client.call(classify);
    ASSERT_TRUE(response.ok);
    EXPECT_NE(response.result.find("\"loads\""), std::string::npos);

    Request bogus;
    bogus.verb = "transmogrify";
    response = client.call(bogus);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.errorType, errtype::UnknownVerb);

    // A work verb without source is a fatal (bad program) error.
    Request empty;
    empty.verb = "simulate";
    response = client.call(empty);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.errorType, errtype::Fatal);

    server.beginDrain();
    server.wait();
}

TEST(Serve, OverloadRejectsAtFullQueueDepth)
{
    setQuiet(true);
    sim::RunCache::instance().clear();

    // One worker, depth one: a third concurrent request must be
    // turned away deterministically.
    parallel::ThreadPool pool(1);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    config.queueDepth = 1;
    Server server(config);
    server.start();

    Client control = Client::connectTo(config.socketPath);

    // Distinct max_inst values keep the slow runs out of each
    // other's cache entries.
    std::thread first([&] {
        Client client = Client::connectTo(config.socketPath);
        Response response =
            client.call(simulateRequest(kSlowProgram, 40'000'000));
        EXPECT_TRUE(response.ok);
    });
    ASSERT_TRUE(awaitStat(control, "executing", 1));

    std::thread second([&] {
        Client client = Client::connectTo(config.socketPath);
        Response response =
            client.call(simulateRequest(kSlowProgram, 40'000'001));
        EXPECT_TRUE(response.ok);
    });
    ASSERT_TRUE(awaitStat(control, "backlog", 1));

    // Queue full: admission control rejects, a control verb still
    // answers (it just did, via awaitStat).
    Client third = Client::connectTo(config.socketPath);
    Response rejected =
        third.call(simulateRequest(kSlowProgram, 40'000'002));
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.errorType, errtype::Overloaded);

    first.join();
    second.join();

    Request stats;
    stats.verb = "stats";
    Response response = control.call(stats);
    ASSERT_TRUE(response.ok);
    uint64_t overloaded = 0;
    ASSERT_TRUE(jsonExtractUint(response.result, "rejected_overload",
                                overloaded));
    EXPECT_EQ(overloaded, 1u);

    server.beginDrain();
    server.wait();
}

TEST(Serve, DeadlineTimesOutLongSimulations)
{
    setQuiet(true);
    sim::RunCache::instance().clear();

    parallel::ThreadPool pool(1);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    Client client = Client::connectTo(config.socketPath);
    Request request = simulateRequest(kSlowProgram, 400'000'000);
    request.deadlineMs = 1;
    Response response = client.call(request);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.errorType, errtype::Timeout);

    server.beginDrain();
    server.wait();
}

TEST(Serve, DrainVerbStopsServiceAndFinishesInFlight)
{
    setQuiet(true);
    parallel::ThreadPool pool(2);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    Client client = Client::connectTo(config.socketPath);
    Request drain;
    drain.verb = "drain";
    Response response = client.call(drain);
    ASSERT_TRUE(response.ok);
    EXPECT_TRUE(server.draining());

    // The server EOFs this connection after the drain response, so
    // the next call observes the hangup.
    Request health;
    health.verb = "health";
    EXPECT_THROW(client.call(health), FatalError);

    server.wait();
    // The socket file is gone after a full drain.
    EXPECT_NE(::unlink(config.socketPath.c_str()), 0);
}

TEST(Serve, SigtermDrainsGracefully)
{
    setQuiet(true);
    parallel::ThreadPool pool(2);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();
    server.installSignalHandlers();

    Client client = Client::connectTo(config.socketPath);
    Request health;
    health.verb = "health";
    ASSERT_TRUE(client.call(health).ok);

    ::raise(SIGTERM);
    server.wait();
    Server::restoreSignalHandlers();
    EXPECT_TRUE(server.draining());
}

TEST(Serve, LoadGenClosedLoopAggregates)
{
    setQuiet(true);
    sim::RunCache::instance().clear();

    parallel::ThreadPool pool(4);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    LoadGenConfig loadgen;
    loadgen.socketPath = config.socketPath;
    loadgen.clients = 4;
    loadgen.requests = 4;
    loadgen.request = simulateRequest(kTinyProgram);
    LoadGenReport report = runLoadGen(loadgen);

    EXPECT_EQ(report.attempted, 16u);
    EXPECT_EQ(report.succeeded, 16u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.transportErrors, 0u);
    EXPECT_GT(report.throughputRps, 0.0);
    EXPECT_LE(report.p50Us, report.p95Us);
    EXPECT_LE(report.p95Us, report.p99Us);
    EXPECT_GE(report.minUs, 1u);

    // Same workload 16 times: the run cache must have been hit.
    EXPECT_GT(sim::RunCache::instance().stats().hits, 0u);

    server.beginDrain();
    server.wait();
}

TEST(Protocol, TraceAndFormatMembersRoundTrip)
{
    Request request;
    request.verb = "metrics";
    request.id = 11;
    request.trace = "deadbeefcafef00d";
    request.format = "prometheus";

    Request parsed;
    std::string error;
    ASSERT_TRUE(parseRequest(buildRequestDoc(request), parsed, error))
        << error;
    EXPECT_EQ(parsed.trace, request.trace);
    EXPECT_EQ(parsed.format, request.format);

    // Both members are optional; absent means empty.
    Request bare;
    ASSERT_TRUE(parseRequest("{\"verb\": \"health\"}", bare, error));
    EXPECT_EQ(bare.trace, "");
    EXPECT_EQ(bare.format, "");
}

TEST(Serve, MetricsVerbServesBothFormats)
{
    setQuiet(true);
    parallel::ThreadPool pool(2);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    Client client = Client::connectTo(config.socketPath);

    // Drive at least one simulate through so serve counters exist.
    ASSERT_TRUE(client.call(simulateRequest(kTinyProgram)).ok);

    Request metrics;
    metrics.verb = "metrics";
    Response response = client.call(metrics);
    ASSERT_TRUE(response.ok);
    EXPECT_TRUE(jsonValid(response.result)) << response.result;
    EXPECT_NE(response.result.find("elag_serve_requests_total"),
              std::string::npos);

    metrics.format = "prometheus";
    response = client.call(metrics);
    ASSERT_TRUE(response.ok);
    std::string body;
    ASSERT_TRUE(jsonExtractString(response.result, "body", body));
    EXPECT_EQ(obs::validatePrometheus(body), "") << body;
    EXPECT_NE(body.find("# TYPE elag_serve_requests_total counter"),
              std::string::npos);

    metrics.format = "xml";
    response = client.call(metrics);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.errorType, errtype::BadRequest);

    server.beginDrain();
    server.wait();
}

TEST(Serve, StatsCarriesUptimeAndBuildInfo)
{
    setQuiet(true);
    parallel::ThreadPool pool(1);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    Client client = Client::connectTo(config.socketPath);
    Request stats;
    stats.verb = "stats";
    Response response = client.call(stats);
    ASSERT_TRUE(response.ok);

    uint64_t uptime = 123456;
    EXPECT_TRUE(jsonExtractUint(response.result, "uptime_seconds",
                                uptime));
    EXPECT_LT(uptime, 3600u); // fresh server: seconds, not garbage
    std::string build;
    ASSERT_TRUE(jsonExtractRaw(response.result, "build", build));
    std::string version;
    EXPECT_TRUE(jsonExtractString(build, "version", version));
    EXPECT_FALSE(version.empty());

    server.beginDrain();
    server.wait();
}

#ifndef ELAG_NO_SPANS

TEST(Serve, TraceIdPropagatesClientToServerSpans)
{
    setQuiet(true);
    sim::RunCache::instance().clear();

    // Client and server live in one process here, so both record
    // into the process tracer; a real deployment writes two files
    // joined on the same trace_id argument.
    obs::SpanTracer &tracer = obs::SpanTracer::process();
    tracer.reset();
    tracer.enable("/dev/null");

    parallel::ThreadPool pool(2);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    Server server(config);
    server.start();

    std::string traceId = obs::newTraceId();
    {
        Client client = Client::connectTo(config.socketPath);
        Request request = simulateRequest(kTinyProgram);
        request.trace = traceId;
        ASSERT_TRUE(client.call(request).ok);
    }
    server.beginDrain();
    server.wait();

    std::string doc = tracer.json();
    tracer.reset();
    ASSERT_TRUE(jsonValid(doc)) << doc;

    // The shared trace_id shows up on the client-side request span
    // and on the server-side request + simulate spans.
    std::string needle = "\"trace_id\":\"" + traceId + "\"";
    size_t hits = 0;
    for (size_t p = doc.find(needle); p != std::string::npos;
         p = doc.find(needle, p + 1)) {
        ++hits;
    }
    EXPECT_GE(hits, 3u) << doc;
    EXPECT_NE(doc.find("\"cat\":\"client\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"serve\""), std::string::npos);
}

#endif // ELAG_NO_SPANS

TEST(Serve, OversizedRequestGetsTypedErrorThenClose)
{
    setQuiet(true);
    parallel::ThreadPool pool(1);
    ServerConfig config;
    config.socketPath = testSocketPath();
    config.pool = &pool;
    config.maxFrameBytes = 4096;
    Server server(config);
    server.start();

    Fd conn = connectUnix(config.socketPath);
    ASSERT_TRUE(writeFrame(conn.get(), std::string(8192, 'x')));
    std::string payload;
    ASSERT_EQ(readFrame(conn.get(), payload), FrameStatus::Ok);
    Response response;
    std::string error;
    ASSERT_TRUE(parseResponse(payload, response, error));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.errorType, errtype::BadRequest);
    // The stream cannot be resynchronized, so the server hangs up.
    // The unread payload can surface as ECONNRESET instead of a
    // clean EOF, depending on close/read ordering.
    FrameStatus status = readFrame(conn.get(), payload);
    EXPECT_TRUE(status == FrameStatus::Eof ||
                status == FrameStatus::IoError)
        << name(status);

    server.beginDrain();
    server.wait();
}
