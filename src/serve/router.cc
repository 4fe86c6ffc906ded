#include "serve/router.hh"

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "serve/routing.hh"
#include "sim/run_cache.hh"
#include "sim/simulator.hh"
#include "sim/stats_run.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "workloads/synthetic/generator.hh"

namespace elag {
namespace serve {

namespace {

sim::CompiledProgram
compileRequest(const Request &request)
{
    if (request.source.empty())
        fatal("verb '%s' requires a 'source' member",
              request.verb.c_str());
    sim::CompileOptions copts;
    if (request.noOpt)
        copts.opt = opt::OptConfig::noneEnabled();
    copts.runClassifier = !request.noClassify;
    return sim::compile(request.source, copts);
}

/** Generate-memo hit/miss counters, registered on first use. */
obs::Counter &
generateMemoCounter(bool hit)
{
    static obs::Counter &hits = obs::Registry::process().counter(
        "elag_serve_generate_memo_total",
        "Generate-verb memo lookups, by outcome.",
        {{"outcome", "hit"}});
    static obs::Counter &misses = obs::Registry::process().counter(
        "elag_serve_generate_memo_total",
        "Generate-verb memo lookups, by outcome.",
        {{"outcome", "miss"}});
    return hit ? hits : misses;
}

} // anonymous namespace

pipeline::MachineConfig
Router::machineFor(const Request &request)
{
    pipeline::MachineConfig cfg;
    std::string error;
    if (!sim::parseMachine(request.machine, request.selection,
                           request.table, request.regs, cfg, error))
        fatal("%s", error.c_str());
    return cfg;
}

std::string
Router::execute(const Request &request) const
{
    // The durable tier answers before anything is compiled: simulate
    // and generate results are pure functions of the request content,
    // so a persisted document (stored post-render) is the byte-exact
    // answer, at the cost of one disk read.
    uint64_t persist_key = 0;
    bool cacheable = request.verb == "simulate" ||
                     request.verb == "generate";
    if (cfg.persist && cacheable) {
        persist_key = persistKey(request);
        std::string doc;
        if (cfg.persist->lookup(persist_key, doc))
            return doc;
    }

    if (request.verb == "generate")
        return generate(request, persist_key);

    sim::CompiledProgram prog = compileRequest(request);

    if (request.verb == "compile") {
        JsonWriter w;
        w.beginObject();
        sim::writeProgramBlock(w, request.file, prog);
        w.endObject();
        return w.str();
    }

    if (request.verb == "classify") {
        JsonWriter w;
        w.beginObject();
        sim::writeProgramBlock(w, request.file, prog);
        w.key("loads").beginArray();
        for (const auto &entry : prog.specOf.entries()) {
            w.beginObject();
            w.field("load_id", entry.first);
            w.field("spec", sim::specName(entry.second));
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

    if (request.verb == "simulate") {
        obs::Span span("simulate", "serve");
        if (!request.trace.empty())
            span.arg("trace_id", request.trace);
        sim::Watchdog watchdog;
        watchdog.maxWallMs = request.deadlineMs
                                 ? request.deadlineMs
                                 : cfg.defaultDeadlineMs;
        std::string doc;
        if (!cfg.checkpointDir.empty()) {
            // Durable snapshots keyed by the same content hash as the
            // persistent tier, so the retried request a supervisor
            // re-routes after a worker death resumes from the
            // snapshot its predecessor left behind. Bypasses the
            // RunCache: the stats run owns its telemetry end to end.
            sim::StatsJob job;
            job.machine = machineFor(request);
            job.maxInstructions = request.maxInst;
            job.watchdog = watchdog;
            job.checkpoint.emplace();
            job.checkpoint->path = formatString(
                "%s/req-%016llx.ckpt", cfg.checkpointDir.c_str(),
                static_cast<unsigned long long>(persistKey(request)));
            job.checkpoint->everyRetires = cfg.checkpointEvery;
            sim::StatsOutcome out = sim::runStats(prog, job);
            doc = sim::statsReportJson(request.file, request.machine,
                                       request.selection, prog,
                                       out.base, out.timed,
                                       out.telemetry);
        } else {
            auto &cache = sim::RunCache::instance();
            // The stats run's structure, served through the cache: a
            // clean baseline run plus the configured machine observed
            // by load telemetry, both shareable across requests.
            sim::TimedResult base =
                cache.run(prog, pipeline::MachineConfig::baseline(),
                          request.maxInst, watchdog);
            sim::RunCache::Report report = cache.runReport(
                prog, machineFor(request), request.maxInst, watchdog);
            doc = sim::statsReportJson(request.file, request.machine,
                                       request.selection, prog, base,
                                       report.timed,
                                       report.telemetry);
        }
        if (cfg.persist)
            cfg.persist->append(persist_key, doc);
        return doc;
    }

    fatal("unhandled work verb '%s'", request.verb.c_str());
}

std::string
Router::generate(const Request &request, uint64_t persist_key) const
{
    if (request.spec.empty())
        fatal("verb 'generate' requires a 'spec' member");
    if (persist_key == 0)
        persist_key = persistKey(request);

    {
        std::lock_guard<std::mutex> lock(genMu);
        auto it = genMemo.find(persist_key);
        if (it != genMemo.end()) {
            generateMemoCounter(true).inc();
            return it->second;
        }
    }
    generateMemoCounter(false).inc();

    workloads::synthetic::ScenarioSpec spec;
    std::string error;
    if (!workloads::synthetic::parseScenarioSpec(request.spec, spec,
                                                 error))
        fatal("bad scenario spec: %s", error.c_str());

    obs::Span span("generate", "serve");
    if (!request.trace.empty())
        span.arg("trace_id", request.trace);
    workloads::synthetic::GeneratedScenario gen =
        workloads::synthetic::generateScenario(spec);

    JsonWriter w(0);
    w.beginObject();
    w.field("name", gen.name);
    w.field("family", workloads::synthetic::name(spec.family));
    w.field("content_hash", gen.contentHash);
    w.key("spec").rawValue(spec.toJson());
    w.field("source", gen.source);
    w.endObject();
    std::string doc = w.str();

    {
        std::lock_guard<std::mutex> lock(genMu);
        // Bound the memo: generated documents are small, but the
        // spec space is unbounded.
        if (genMemo.size() >= 256)
            genMemo.erase(genMemo.begin());
        genMemo.emplace(persist_key, doc);
    }
    if (cfg.persist)
        cfg.persist->append(persist_key, doc);
    return doc;
}

} // namespace serve
} // namespace elag
