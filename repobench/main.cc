/**
 * @file
 * repobench workload binary: runs one workload once and prints one
 * JSON line with the host stamp, the attempted/failed counts, the
 * end-to-end metrics and the per-layer metrics. run.py builds this
 * binary, calls it, and turns its output into the benchmark's result
 * line.
 *
 * Usage: repobench --workload kv-serve|kv-defrag|cache-churn
 *                  --seed N --seconds S [--trace-file PATH]
 * With --trace-file the measured phase runs with telemetry tracing on
 * and the trace is written to PATH as Chrome trace-event JSON.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace
{

using namespace repobench;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "model name", 10) == 0) {
            const char *colon = std::strchr(line, ':');
            if (colon != nullptr) {
                model = colon + 1;
                while (!model.empty() &&
                       (model.front() == ' ' || model.front() == '\t'))
                    model.erase(model.begin());
                while (!model.empty() &&
                       (model.back() == '\n' || model.back() == ' '))
                    model.pop_back();
            }
            break;
        }
    }
    std::fclose(f);
    return model;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); i++) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + value +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload kv-serve|kv-defrag|cache-churn "
                 "--seed N --seconds S [--trace-file PATH]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::atof(value);
        else if (flag == "--trace-file")
            opt.traceFile = value;
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || opt.seconds <= 0 || opt.seconds > 120)
        return usage(argv[0]);

    Result r;
    if (opt.workload == "kv-serve")
        r = runKvServe(opt);
    else if (opt.workload == "kv-defrag")
        r = runKvDefrag(opt);
    else if (opt.workload == "cache-churn")
        r = runCacheChurn(opt);
    else
        return usage(argv[0]);

    if (!opt.traceFile.empty() &&
        !alaska::telemetry::dumpTrace(opt.traceFile.c_str())) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     opt.traceFile.c_str());
        return 1;
    }

    std::string failures = "[";
    for (size_t i = 0; i < r.failures.size(); i++)
        failures += (i ? ", " : "") + jsonString(r.failures[i]);
    failures += "]";
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
        "\"host\": {\"nproc\": %ld, \"cpu_model\": %s, \"compiler\": %s, "
        "\"cxx_flags\": %s, \"build_type\": %s, \"telemetry_level\": %d}, "
        "\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, "
        "\"e2e\": %s, \"layers\": %s}\n",
        jsonString(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed), opt.seconds,
        sysconf(_SC_NPROCESSORS_ONLN), jsonString(cpuModel()).c_str(),
        jsonString(REPOBENCH_COMPILER).c_str(),
        jsonString(REPOBENCH_CXX_FLAGS).c_str(),
        jsonString(REPOBENCH_BUILD_TYPE).c_str(), ALASKA_TELEMETRY_LEVEL,
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed), failures.c_str(),
        metricsJson(r.e2e).c_str(), metricsJson(r.layers).c_str());
    return 0;
}
