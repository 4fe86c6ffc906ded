#include "serve/protocol.hh"

#include <algorithm>
#include <cstdint>

#include "sim/stats_run.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace elag {
namespace serve {

bool
isWorkVerb(const std::string &verb)
{
    return verb == "compile" || verb == "classify" ||
           verb == "simulate" || verb == "generate";
}

bool
isControlVerb(const std::string &verb)
{
    return verb == "stats" || verb == "health" ||
           verb == "metrics" || verb == "drain";
}

namespace {

/** Position of `"key"` followed by ws + ':', or npos. */
size_t
keyPosition(const std::string &doc, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    size_t pos = doc.find(needle);
    while (pos != std::string::npos) {
        size_t p = pos + needle.size();
        while (p < doc.size() &&
               (doc[p] == ' ' || doc[p] == '\t' || doc[p] == '\n' ||
                doc[p] == '\r')) {
            ++p;
        }
        if (p < doc.size() && doc[p] == ':')
            return pos;
        pos = doc.find(needle, pos + 1);
    }
    return std::string::npos;
}

/** Optional uint member: absent keeps the default, present must parse. */
bool
optionalUint(const std::string &prefix, const std::string &key,
             uint64_t &out, std::string &error)
{
    if (keyPosition(prefix, key) == std::string::npos)
        return true;
    if (!jsonExtractUint(prefix, key, out)) {
        error = "member '" + key +
                "' must be an unsigned integer";
        return false;
    }
    return true;
}

bool
optionalUint32(const std::string &prefix, const std::string &key,
               uint32_t &out, std::string &error)
{
    uint64_t wide = out;
    if (!optionalUint(prefix, key, wide, error))
        return false;
    if (wide > UINT32_MAX) {
        error = "member '" + key + "' exceeds 32 bits";
        return false;
    }
    out = static_cast<uint32_t>(wide);
    return true;
}

bool
optionalString(const std::string &prefix, const std::string &key,
               std::string &out, std::string &error)
{
    if (keyPosition(prefix, key) == std::string::npos)
        return true;
    if (!jsonExtractString(prefix, key, out)) {
        error = "member '" + key + "' must be a string";
        return false;
    }
    return true;
}

bool
optionalBool(const std::string &prefix, const std::string &key,
             bool &out, std::string &error)
{
    if (keyPosition(prefix, key) == std::string::npos)
        return true;
    std::string raw;
    if (!jsonExtractRaw(prefix, key, raw) ||
        (raw != "true" && raw != "false")) {
        error = "member '" + key + "' must be a boolean";
        return false;
    }
    out = raw == "true";
    return true;
}

} // anonymous namespace

bool
parseRequest(const std::string &doc, Request &request,
             std::string &error)
{
    if (!jsonValid(doc)) {
        error = "request is not valid JSON";
        return false;
    }
    size_t first = doc.find_first_not_of(" \t\r\n");
    if (first == std::string::npos || doc[first] != '{') {
        error = "request must be a JSON object";
        return false;
    }

    // Scalars are read from the prefix before the source/spec
    // members, so protocol-looking text inside the shipped payload
    // cannot shadow them.
    size_t src_pos = keyPosition(doc, "source");
    size_t spec_pos = keyPosition(doc, "spec");
    size_t payload_pos = std::min(src_pos, spec_pos);
    std::string prefix = doc.substr(
        0, payload_pos == std::string::npos ? doc.size()
                                            : payload_pos);

    if (!optionalString(prefix, "verb", request.verb, error) ||
        !optionalUint(prefix, "id", request.id, error) ||
        !optionalString(prefix, "file", request.file, error) ||
        !optionalString(prefix, "machine", request.machine, error) ||
        !optionalString(prefix, "selection", request.selection,
                        error) ||
        !optionalUint32(prefix, "table", request.table, error) ||
        !optionalUint32(prefix, "regs", request.regs, error) ||
        !optionalBool(prefix, "no_opt", request.noOpt, error) ||
        !optionalBool(prefix, "no_classify", request.noClassify,
                      error) ||
        !optionalUint(prefix, "max_inst", request.maxInst, error) ||
        !optionalUint(prefix, "deadline_ms", request.deadlineMs,
                      error) ||
        !optionalString(prefix, "trace", request.trace, error) ||
        !optionalString(prefix, "format", request.format, error)) {
        return false;
    }
    if (request.verb.empty()) {
        error = "missing required member 'verb'";
        return false;
    }
    // Unknown machine or policy names are rejected here, at the edge,
    // by the same parser elagc's flags go through.
    pipeline::MachineConfig machine;
    if (!sim::parseMachine(request.machine, request.selection,
                           request.table, request.regs, machine, error))
        return false;
    if (src_pos != std::string::npos &&
        !jsonExtractString(doc.substr(src_pos), "source",
                           request.source)) {
        error = "member 'source' must be a string";
        return false;
    }
    if (spec_pos != std::string::npos &&
        !jsonExtractString(doc.substr(spec_pos), "spec",
                           request.spec)) {
        error = "member 'spec' must be a string";
        return false;
    }
    return true;
}

std::string
buildRequestDoc(const Request &request)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("verb", request.verb);
    w.field("id", request.id);
    w.field("file", request.file);
    w.field("machine", request.machine);
    if (!request.selection.empty())
        w.field("selection", request.selection);
    if (request.table)
        w.field("table", request.table);
    if (request.regs)
        w.field("regs", request.regs);
    if (request.noOpt)
        w.field("no_opt", true);
    if (request.noClassify)
        w.field("no_classify", true);
    w.field("max_inst", request.maxInst);
    if (request.deadlineMs)
        w.field("deadline_ms", request.deadlineMs);
    if (!request.trace.empty())
        w.field("trace", request.trace);
    if (!request.format.empty())
        w.field("format", request.format);
    // Scalar members above must precede the payloads; see
    // parseRequest.
    if (!request.spec.empty())
        w.field("spec", request.spec);
    if (!request.source.empty())
        w.field("source", request.source);
    w.endObject();
    return w.str();
}

std::string
okResponse(const Request &request, const std::string &result_json)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("ok", true);
    w.field("id", request.id);
    w.field("verb", request.verb);
    w.key("result").rawValue(result_json);
    w.endObject();
    return w.str();
}

std::string
errorResponse(const Request &request, const std::string &type,
              const std::string &message)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("ok", false);
    w.field("id", request.id);
    w.field("verb", request.verb);
    w.key("error").beginObject();
    w.field("type", type);
    w.field("message", message);
    w.endObject();
    w.endObject();
    return w.str();
}

bool
parseResponse(const std::string &doc, Response &response,
              std::string &error)
{
    if (!jsonValid(doc)) {
        error = "response is not valid JSON";
        return false;
    }
    // Envelope fields precede the (arbitrarily large) result member.
    size_t result_pos = keyPosition(doc, "result");
    std::string prefix = doc.substr(
        0, result_pos == std::string::npos ? doc.size() : result_pos);

    std::string ok_raw;
    if (!jsonExtractRaw(prefix, "ok", ok_raw) ||
        (ok_raw != "true" && ok_raw != "false")) {
        error = "missing or non-boolean 'ok' member";
        return false;
    }
    response.ok = ok_raw == "true";
    jsonExtractUint(prefix, "id", response.id);
    jsonExtractString(prefix, "verb", response.verb);

    if (response.ok) {
        if (result_pos == std::string::npos ||
            !jsonExtractRaw(doc.substr(result_pos), "result",
                            response.result)) {
            error = "ok response without a 'result' member";
            return false;
        }
        return true;
    }
    std::string error_block;
    if (!jsonExtractRaw(doc, "error", error_block)) {
        error = "error response without an 'error' member";
        return false;
    }
    jsonExtractString(error_block, "type", response.errorType);
    jsonExtractString(error_block, "message", response.errorMessage);
    if (response.errorType.empty()) {
        error = "error block without a 'type' member";
        return false;
    }
    return true;
}

} // namespace serve
} // namespace elag
