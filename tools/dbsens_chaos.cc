/**
 * @file
 * Chaos driver: run many seeded random workload x fault episodes,
 * audit each one, and on violation minimize the episode into a
 * replayable repro file (see src/chaos/chaos.h).
 *
 * Usage:
 *   dbsens_chaos [--episodes N] [--seed S] [--small] [--out DIR]
 *                [--inject-corruption] [--replay FILE]
 *
 * The summary line ends with a digest folding every episode's state
 * digest in order: equal digests mean the whole sweep replayed
 * bit-identically (CI pins it for `--episodes 20 --small`).
 *
 * Exit status: 0 when every episode matched expectations (clean runs
 * audit clean; with --inject-corruption every corrupted episode is
 * caught, minimized, and replays bit-identically), 1 otherwise, 2 on
 * usage or file errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "chaos/chaos.h"
#include "core/digest.h"

using namespace dbsens;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--episodes N] [--seed S] [--small] [--out DIR]\n"
        "          [--inject-corruption] [--replay FILE]\n"
        "  --episodes N          episodes to run (default 50)\n"
        "  --seed S              base episode seed (default 1)\n"
        "  --small               small scale factors / short windows\n"
        "  --out DIR             repro output directory (default "
        "chaos_out)\n"
        "  --inject-corruption   add a CorruptRow test-hook event to\n"
        "                        every episode; the auditors must "
        "catch it\n"
        "  --replay FILE         replay a repro file and verify it\n"
        "                        reproduces bit-identically\n",
        argv0);
}

int
replayFile(const std::string &path)
{
    std::string err;
    const Json repro = Json::readFile(path, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "dbsens_chaos: %s\n", err.c_str());
        return 2;
    }
    std::string detail;
    const bool ok = verify::replayRepro(repro, &detail);
    std::printf("%s: %s\n", ok ? "REPLAYED" : "REPLAY FAILED",
                detail.c_str());
    return ok ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t episodes = 50;
    uint64_t seed = 1;
    bool small = false;
    bool inject = false;
    std::string out = "chaos_out";
    std::string replayPath;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "dbsens_chaos: %s needs a value\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--episodes")
            episodes = std::strtoull(value(), nullptr, 10);
        else if (a == "--seed")
            seed = std::strtoull(value(), nullptr, 10);
        else if (a == "--small")
            small = true;
        else if (a == "--inject-corruption")
            inject = true;
        else if (a == "--out")
            out = value();
        else if (a == "--replay")
            replayPath = value();
        else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "dbsens_chaos: unknown flag %s\n",
                         a.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (!replayPath.empty())
        return replayFile(replayPath);

    ::mkdir(out.c_str(), 0755); // best-effort; writeFile reports errors

    int caught = 0, clean = 0, failures = 0;
    verify::AuditReport totals;
    uint64_t sweepDigest = kFnvBasis;
    for (uint64_t i = 0; i < episodes; ++i) {
        const uint64_t ep_seed = seed + i;
        verify::ChaosEpisode ep = verify::randomEpisode(ep_seed, small);
        if (inject) {
            FaultEvent ev;
            ev.at = ep.warmup + ep.duration - milliseconds(2);
            ev.kind = FaultEvent::Kind::CorruptRow;
            ev.value = double(ep_seed % 997);
            ep.script.push_back(ev);
        }

        const verify::EpisodeOutcome outc = verify::runEpisode(ep);
        totals.merge(outc.report);
        sweepDigest = fnv1a(outc.stateDigest.data(),
                            outc.stateDigest.size(), sweepDigest);
        char fleetTag[24] = "";
        if (ep.cluster)
            std::snprintf(fleetTag, sizeof fleetTag, " fleet(x%d)",
                          ep.clusterCrashes);
        std::printf("episode %3llu seed %llu %-5s sf %d %s%s script %zu "
                    "crashes %llu deadlocks %llu timeouts %llu digest "
                    "%s: %s\n",
                    (unsigned long long)i, (unsigned long long)ep_seed,
                    ep.workload.c_str(), ep.scaleFactor,
                    ep.detector ? "detector" : "timeout ", fleetTag,
                    ep.script.size(),
                    (unsigned long long)outc.result.crashes,
                    (unsigned long long)outc.result.deadlockAborts,
                    (unsigned long long)outc.result.lockTimeouts,
                    outc.stateDigest.c_str(),
                    outc.ok() ? "ok" : "VIOLATION");

        if (outc.ok()) {
            ++clean;
            if (inject) {
                std::fprintf(stderr,
                             "episode %llu: injected corruption went "
                             "UNDETECTED\n",
                             (unsigned long long)i);
                ++failures;
            }
            continue;
        }

        ++caught;
        for (const verify::Violation &v : outc.report.violations)
            std::printf("  %s: %s\n", v.auditor.c_str(),
                        v.detail.c_str());
        if (!inject)
            ++failures; // a violation on a clean seed is a real bug

        // Minimize, write a repro file, and prove it replays.
        int attempts = 0;
        verify::ChaosEpisode min = verify::minimizeEpisode(ep, &attempts);
        verify::EpisodeOutcome minOut = verify::runEpisode(min);
        if (minOut.ok()) {
            // Defensive: never emit a passing repro.
            min = ep;
            minOut = outc;
        }
        const Json repro = verify::reproJson(min, minOut);
        const std::string path =
            out + "/chaos_repro_" + std::to_string(ep_seed) + ".json";
        if (!repro.writeFile(path)) {
            std::fprintf(stderr, "  cannot write %s\n", path.c_str());
            ++failures;
            continue;
        }
        std::printf("  minimized in %d runs: script %zu -> %zu events, "
                    "window %lld -> %lld ms; wrote %s\n",
                    attempts, ep.script.size(), min.script.size(),
                    (long long)((ep.warmup + ep.duration) / 1000000),
                    (long long)((min.warmup + min.duration) / 1000000),
                    path.c_str());
        std::string detail;
        if (verify::replayRepro(repro, &detail)) {
            std::printf("  replay check: %s\n", detail.c_str());
        } else {
            std::fprintf(stderr, "  replay check FAILED: %s\n",
                         detail.c_str());
            ++failures;
        }
    }

    std::printf("chaos: %d/%llu episodes clean, %d violations "
                "(%s), %llu btrees / %llu pages / %llu index entries "
                "audited, %llu history records replayed, digest %s\n",
                clean, (unsigned long long)episodes, caught,
                inject ? "corruption injected" : "expected 0",
                (unsigned long long)totals.btreesChecked,
                (unsigned long long)totals.pagesChecked,
                (unsigned long long)totals.indexEntriesChecked,
                (unsigned long long)totals.historyRecordsReplayed,
                digestHex(sweepDigest).c_str());
    return failures ? 1 : 0;
}
