/**
 * @file
 * tracequery - declarative streaming queries over event traces, in
 * the spirit of the TDL/POET companions of the SIMPLE package.
 *
 * Usage:
 *   tracequery [options] "<query>" <trace.smtr>...
 *   tracequery [options] "<query>" --scenario <name>|all
 *   tracequery [options] "<query>" --follow <socket|fifo>
 *   tracequery --list-scenarios
 *
 * --scenario takes any name --list-scenarios prints (the golden and
 * the scaled scenarios); `all` runs the golden set.
 *
 * Options:
 *   --format text|csv|json   output format (default text)
 *   --json                   shorthand for --format json
 *   --trace-end TIME         close open states at TIME (saved traces)
 *   --jobs N                 worker threads (0 = all cores; default 1)
 *   --phase                  scenario mode: evaluate only the
 *                            measurement phase, the range the
 *                            runner's servant utilization covers
 *   --reconnect[=N]          follow mode: when the daemon dies,
 *                            reattach and keep following (at most N
 *                            consecutive failed attempts; no N =
 *                            retry until interrupted)
 *
 * With --format json each trace file's results are wrapped in an
 * object whose "trace" header block carries the file path and the
 * .smtr v2 run seed, so a result is always traceable to the exact
 * run that produced it.
 *
 * --follow attaches to a live stream instead of a file: a tracemond
 * Unix-domain socket (tracequery subscribes to every tenant) or a
 * FIFO carrying the live wire framing directly. Events feed the
 * incremental engine as they arrive; fixed-window count/utilization
 * queries print each window's rows the moment the window is final,
 * and when the stream ends the authoritative batch-identical table
 * is printed (under "== final" in text mode).
 *
 * Query syntax (see src/query/query.hh):
 *   filter stream=servant.* token=evWork* | window 10ms | utilization
 *
 * Saved trace files are read in a single streaming pass and never
 * loaded whole; each record shard (one by default) keeps its closed
 * state intervals or buffered matching events until the merge, so
 * peak memory grows with the shard size for `states`, `utilization`,
 * windowed `count`, `latency` and `rtt` (src/query/folds.hh). With
 * --jobs N a single file is split into N record shards evaluated
 * concurrently (bit-exact with one shard), several files are
 * evaluated concurrently (output stays in argument order), and
 * `--scenario all` runs the scenario simulations concurrently. Exit status: 0 ok, 1
 * unreadable/invalid input or failed run, 2 usage or query parse
 * error.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "live/tokens.hh"
#include "live/wire.hh"
#include "parallel/pool.hh"
#include "partracer/events.hh"
#include "query/engine.hh"
#include "query/incremental.hh"
#include "query/sharded.hh"
#include "sim/logging.hh"
#include "validate/concurrent.hh"
#include "validate/scenarios.hh"

using namespace supmon;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] \"<query>\" <trace.smtr>...\n"
        "       %s [options] \"<query>\" --scenario <name>|all\n"
        "       %s [options] \"<query>\" --follow <socket|fifo>\n"
        "       %s --list-scenarios\n"
        "options: --format text|csv|json  --json  --trace-end TIME\n"
        "         --jobs N  --phase  --reconnect[=N]\n"
        "query:   filter stream=PAT token=PAT from=T to=T param=N |\n"
        "         window SIZE [slide STEP] |\n"
        "         count|states|utilization [state=S]|latency "
        "[bins=N] [max=T]|rtt begin=PAT end=PAT\n",
        argv0, argv0, argv0, argv0);
    return 2;
}

int
queryFiles(const std::vector<std::string> &paths,
           const query::Query &parsed, query::OutputFormat format,
           sim::Tick trace_end, unsigned jobs)
{
    const trace::EventDictionary dict = par::rayTracerDictionary();
    // One file: shard it across the workers. Several files: one
    // worker per file (the coarser, cheaper split), rendered output
    // buffered per file and printed in argument order so the result
    // is byte-identical to a serial run.
    const unsigned perFileJobs = paths.size() > 1 ? 1 : jobs;
    std::vector<std::string> rendered(paths.size());
    std::vector<std::string> errors(paths.size());
    parallel::forEachIndex(
        jobs, paths.size(), [&](std::size_t i) {
            query::Table table;
            std::uint64_t seed = 0;
            if (!query::runQueryFileSharded(paths[i], dict, parsed,
                                            perFileJobs, table,
                                            errors[i], trace_end,
                                            &seed))
                return;
            if (format == query::OutputFormat::Json) {
                // Header block: tie the rows to the run that
                // produced them (the .smtr v2 reproducibility seed).
                rendered[i] = sim::strprintf(
                    "{\n\"trace\": {\"path\": \"%s\", "
                    "\"seed\": %llu},\n\"rows\": %s}\n",
                    paths[i].c_str(),
                    static_cast<unsigned long long>(seed),
                    table.toJson().c_str());
            } else {
                rendered[i] = table.render(format);
            }
        });
    int status = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (!errors[i].empty()) {
            std::fprintf(stderr, "%s\n", errors[i].c_str());
            status = 1;
            continue;
        }
        if (paths.size() > 1 &&
            format == query::OutputFormat::Text)
            std::printf("== %s\n", paths[i].c_str());
        std::printf("%s", rendered[i].c_str());
    }
    return status;
}

/** Strip the header line of a rendered text/CSV partial so repeated
 *  window emissions read as one continuous table. */
std::string
withoutHeaderLine(const std::string &rendered)
{
    const std::size_t eol = rendered.find('\n');
    return eol == std::string::npos ? rendered
                                    : rendered.substr(eol + 1);
}

/** Attach to a live stream: a tracemond socket (subscribe to every
 *  tenant) or a FIFO/file carrying the wire framing directly. */
int
attachStream(const std::string &path)
{
    struct stat st;
    int fd = -1;
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) {
        fd = live::connectUnix(path);
        if (fd >= 0) {
            std::vector<unsigned char> sub;
            live::encodeSubscribe(sub, "*");
            if (!live::writeFully(fd, sub.data(), sub.size())) {
                ::close(fd);
                fd = -1;
            }
        }
    } else {
        fd = ::open(path.c_str(), O_RDONLY);
    }
    return fd;
}

int
followStream(const std::string &path, const query::Query &parsed,
             query::OutputFormat format, sim::Tick trace_end,
             bool reconnect, unsigned reconnectLimit)
{
    trace::EventDictionary dict = par::rayTracerDictionary();
    // Shed-accounting markers are first-class events: queries can
    // count them like any other token.
    live::addLiveTokens(dict);

    bool printedPartial = false;
    const auto onRows = [&](const query::Table &partial) {
        std::string rendered = partial.render(format);
        if (printedPartial && format != query::OutputFormat::Json)
            rendered = withoutHeaderLine(rendered);
        std::printf("%s", rendered.c_str());
        std::fflush(stdout);
        printedPartial = true;
    };
    query::IncrementalEngine engine(parsed, dict, onRows, trace_end);

    // Follow until the stream goes idle: every announced tenant has
    // said Bye (or the transport reached end of stream). With
    // --reconnect, a dead daemon is not the end: reattach (the
    // engine's state survives the gap) until the stream completes or
    // the consecutive-failure budget runs out.
    std::uint64_t openTenants = 0;
    bool sawTenant = false;
    bool done = false;
    unsigned failures = 0;
    std::string lastError;
    for (;;) {
        const int fd = attachStream(path);
        if (fd < 0) {
            lastError = sim::strprintf("cannot attach to %s: %s",
                                       path.c_str(),
                                       std::strerror(errno));
            if (!reconnect ||
                (reconnectLimit > 0 && ++failures > reconnectLimit))
                break;
            ::usleep(100 * 1000);
            continue;
        }

        live::FrameReader reader(fd);
        live::Frame frame;
        bool gotFrame = false;
        while (!done && reader.next(frame)) {
            gotFrame = true;
            switch (frame.type) {
              case live::FrameType::Hello:
                ++openTenants;
                sawTenant = true;
                break;
              case live::FrameType::Events:
                engine.onBatch(frame.events.data(),
                               frame.events.size());
                break;
              case live::FrameType::Bye:
                if (openTenants > 0)
                    --openTenants;
                done = sawTenant && openTenants == 0;
                break;
              default:
                break;
            }
        }
        ::close(fd);
        lastError = reader.error();
        if (done)
            break;
        if (gotFrame)
            failures = 0;
        if (!reconnect ||
            (reconnectLimit > 0 && ++failures > reconnectLimit))
            break;
        // A subscriber cannot tell a finished stream from a dead
        // daemon; brief pacing keeps the retry loop polite.
        ::usleep(100 * 1000);
    }
    if (!done && !lastError.empty())
        std::fprintf(stderr, "%s\n", lastError.c_str());

    const query::Table table = engine.finish();
    if (format == query::OutputFormat::Text && printedPartial)
        std::printf("== final\n");
    std::printf("%s", table.render(format).c_str());
    return done || lastError.empty() ? 0 : 1;
}

int
queryScenarios(const std::string &which, const query::Query &parsed,
               query::OutputFormat format, bool phase_only,
               unsigned jobs)
{
    std::vector<const validate::Scenario *> selected;
    if (which == "all") {
        for (const auto &s : validate::goldenScenarios())
            selected.push_back(&s);
    } else if (const auto *s = validate::findScenario(which)) {
        selected.push_back(s);
    } else {
        std::fprintf(stderr,
                     "unknown scenario '%s' (try --list-scenarios)\n",
                     which.c_str());
        return 2;
    }

    // The simulations dominate the wall clock; run them on the pool
    // (results land in scenario order, so output order is unchanged).
    const std::vector<par::RunResult> results =
        validate::runScenariosConcurrent(selected, jobs);
    for (std::size_t idx = 0; idx < selected.size(); ++idx) {
        const auto *scenario = selected[idx];
        const auto &result = results[idx];
        if (!result.completed) {
            std::fprintf(stderr, "%s: run did not complete\n",
                         scenario->name.c_str());
            return 1;
        }
        if (selected.size() > 1 &&
            format == query::OutputFormat::Text)
            std::printf("== %s\n", scenario->name.c_str());
        // The phase is evaluated exactly as the runner measures it.
        const query::Table table =
            phase_only ? query::runPhaseQuery(
                             result.events, result.dictionary, parsed,
                             result.phaseBegin, result.phaseEnd)
                       : query::runQuery(result.events,
                                         result.dictionary, parsed);
        std::printf("%s", table.render(format).c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    std::string queryText;
    std::vector<std::string> files;
    std::string scenario;
    std::string follow;
    query::OutputFormat format = query::OutputFormat::Text;
    sim::Tick trace_end = 0;
    unsigned jobs = 1;
    bool phase_only = false;
    bool list = false;
    bool haveQuery = false;
    bool reconnect = false;
    unsigned reconnectLimit = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--format" && i + 1 < argc) {
            if (!query::parseOutputFormat(argv[++i], format)) {
                std::fprintf(stderr, "unknown format '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--trace-end" && i + 1 < argc) {
            if (!query::parseTime(argv[++i], trace_end)) {
                std::fprintf(stderr, "bad time '%s'\n", argv[i]);
                return 2;
            }
        } else if (arg == "--jobs" && i + 1 < argc) {
            const int n = std::atoi(argv[++i]);
            if (n < 0 || n > 1024) {
                std::fprintf(stderr, "bad job count '%s'\n",
                             argv[i]);
                return 2;
            }
            jobs = n == 0 ? parallel::defaultJobs()
                          : static_cast<unsigned>(n);
        } else if (arg == "--scenario" && i + 1 < argc) {
            scenario = argv[++i];
        } else if (arg == "--follow" && i + 1 < argc) {
            follow = argv[++i];
        } else if (arg == "--reconnect") {
            reconnect = true;
        } else if (arg.rfind("--reconnect=", 0) == 0) {
            reconnect = true;
            const int n = std::atoi(arg.c_str() + 12);
            if (n < 1) {
                std::fprintf(stderr, "bad reconnect limit '%s'\n",
                             arg.c_str());
                return 2;
            }
            reconnectLimit = static_cast<unsigned>(n);
        } else if (arg == "--json") {
            format = query::OutputFormat::Json;
        } else if (arg == "--phase") {
            phase_only = true;
        } else if (arg == "--list-scenarios") {
            list = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (!haveQuery) {
            queryText = arg;
            haveQuery = true;
        } else {
            files.push_back(arg);
        }
    }

    if (list) {
        for (const auto &s : validate::goldenScenarios())
            std::printf("%-16s %s\n", s.name.c_str(),
                        s.description.c_str());
        for (const auto &s : validate::scaledScenarios())
            std::printf("%-16s %s\n", s.name.c_str(),
                        s.description.c_str());
        return 0;
    }
    if (!haveQuery)
        return usage(argv[0]);

    const query::ParseResult parsed = query::parseQuery(queryText);
    if (!parsed.ok) {
        std::fprintf(stderr, "query error: %s\n",
                     parsed.error.c_str());
        return 2;
    }

    if (!follow.empty())
        return followStream(follow, parsed.query, format, trace_end,
                            reconnect, reconnectLimit);
    if (!scenario.empty())
        return queryScenarios(scenario, parsed.query, format,
                              phase_only, jobs);
    if (files.empty())
        return usage(argv[0]);
    return queryFiles(files, parsed.query, format, trace_end, jobs);
}
