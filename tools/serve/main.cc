/**
 * @file
 * softwatt-serve: the crash-tolerant simulation daemon.
 *
 * Usage:
 *   softwatt-serve serve_socket=/tmp/sw.sock serve_state=/tmp/swstate
 *                  [serve_jobs=N] [serve_queue_max=N]
 *                  [serve_warm_s=T] [serve_wall_timeout_s=T]
 *                  [durability=buffered|full]
 *
 * The first SIGINT/SIGTERM/SIGHUP drains (no new admissions,
 * in-flight and queued jobs finish); a second cancels queued jobs and
 * hard-stops in-flight ones at their next sample window. A SIGKILL'd
 * daemon restarts into the same serve_state= directory and re-answers
 * finished jobs byte-identically from its journal. With
 * serve_warm_s= set, each job autosaves to
 * serve_state/ckpt/<run fingerprint>.ckpt; a job cancelled or killed
 * mid-flight leaves that file, and the next submission of the same
 * spec resumes from it.
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "serve/server.hh"
#include "sim/logging.hh"
#include "sim/signals.hh"

using namespace softwatt;

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;

    serve::ServeOptions options =
        serve::ServeOptions::fromConfig(cli.config);
    std::vector<std::string> unused = cli.config.unusedKeys();
    if (!unused.empty()) {
        msg report;
        report << "unknown key(s):";
        for (const std::string &key : unused)
            report << " " << key;
        fatal(report);
    }

    serve::ServeServer server(std::move(options));
    std::string error;
    if (!server.start(error)) {
        std::cerr << "softwatt-serve: " << error << "\n";
        return 1;
    }

    CancelToken stop;
    SignalGuard guard(stop);
    server.serveUntil(stop);
    return 0;
}
