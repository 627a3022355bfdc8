/**
 * @file
 * Offline helper for the machine-readable bench reports, built only on
 * the in-tree Json class (no external deps):
 *
 *   report_tool merge <out.json> <in1.json> [in2.json ...]
 *       Collect per-bench `--json` reports into one document keyed by
 *       each report's "bench" name (run_benches.sh report mode).
 *
 *   report_tool check <report.json> <golden.json>
 *       Validate a report against a committed key-presence golden: the
 *       golden mirrors the report's shape, and every key present in
 *       the golden must exist in the report with the same JSON type.
 *       Values are never compared — golden leaves only pin the type —
 *       so the check is robust to timing noise but catches dropped
 *       fields, renames, and type regressions (CI).
 *
 *   report_tool diff <new.json> <baseline.json>
 *               [--rtol R] [--atol A] [--key prefix=R ...]
 *               [--ignore substr ...]
 *       Value-level regression diff: every number present in the
 *       baseline must match the new report within atol + rtol *
 *       max(|a|,|b|); strings and bools must match exactly; a key
 *       missing from the new report or an array length change is a
 *       regression. Keys only in the new report are listed but not
 *       fatal (new features add keys; regenerate the baseline to
 *       adopt them). --key gives a per-subtree rtol override
 *       (longest matching dotted-path prefix wins); --ignore skips
 *       paths containing the substring (digests, host-dependent
 *       fields). Exit is nonzero when any regression was found, so
 *       CI can gate on it and upload the printed diff as an
 *       artifact.
 *
 *   report_tool digest <report.json>
 *       Print the FNV-1a digest (core/digest.h) of the report's
 *       compact `results` dump as 16 hex digits. Results hold only
 *       simulated values, so the digest is host-independent;
 *       run_benches.sh pins one per --small bench.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/digest.h"
#include "core/json.h"

namespace {

using dbsens::Json;

/** Json::readFile, printing its error; false on failure. */
bool
loadJson(const std::string &path, Json *out)
{
    std::string err;
    *out = Json::readFile(path, &err);
    if (!err.empty())
        std::fprintf(stderr, "report_tool: %s\n", err.c_str());
    return err.empty();
}

const char *
typeName(const Json &j)
{
    switch (j.type()) {
      case Json::Type::Null: return "null";
      case Json::Type::Bool: return "bool";
      case Json::Type::Number: return "number";
      case Json::Type::String: return "string";
      case Json::Type::Array: return "array";
      case Json::Type::Object: return "object";
    }
    return "?";
}

/**
 * Every key in `golden` must exist in `doc` with the same type;
 * recurse into objects. For arrays the golden's first element (if
 * any) is checked against every element of the report's array.
 */
int
checkShape(const Json &doc, const Json &golden, const std::string &path)
{
    int errors = 0;
    if (golden.type() != doc.type()) {
        std::fprintf(stderr, "MISMATCH %s: expected %s, got %s\n",
                     path.empty() ? "(root)" : path.c_str(),
                     typeName(golden), typeName(doc));
        return 1;
    }
    if (golden.type() == Json::Type::Object) {
        for (const auto &m : golden.members()) {
            const std::string sub =
                path.empty() ? m.first : path + "." + m.first;
            if (!doc.contains(m.first)) {
                std::fprintf(stderr, "MISSING %s\n", sub.c_str());
                ++errors;
                continue;
            }
            errors += checkShape(doc.at(m.first), m.second, sub);
        }
    } else if (golden.type() == Json::Type::Array &&
               golden.items().size() > 0) {
        if (doc.items().empty()) {
            std::fprintf(stderr, "EMPTY ARRAY %s (golden expects "
                         "elements)\n",
                         path.c_str());
            return errors + 1;
        }
        for (size_t i = 0; i < doc.items().size(); ++i)
            errors += checkShape(doc.at(i), golden.at(0),
                                 path + "[" + std::to_string(i) + "]");
    }
    return errors;
}

// ------------------------------------------------------ value diff

struct DiffOptions
{
    double rtol = 0.05;
    double atol = 1e-9;
    /** Dotted-path-prefix rtol overrides; longest prefix wins. */
    std::vector<std::pair<std::string, double>> keyRtol;
    /** Paths containing any of these substrings are skipped. */
    std::vector<std::string> ignore;
};

struct DiffStats
{
    int regressions = 0;
    int added = 0;
    int compared = 0;
};

bool
ignored(const DiffOptions &opt, const std::string &path)
{
    for (const std::string &s : opt.ignore)
        if (path.find(s) != std::string::npos)
            return true;
    return false;
}

double
rtolFor(const DiffOptions &opt, const std::string &path)
{
    double best = opt.rtol;
    size_t best_len = 0;
    for (const auto &kv : opt.keyRtol)
        if (path.compare(0, kv.first.size(), kv.first) == 0 &&
            kv.first.size() >= best_len) {
            best = kv.second;
            best_len = kv.first.size();
        }
    return best;
}

void
diffValues(const Json &doc, const Json &base, const std::string &path,
           const DiffOptions &opt, DiffStats *st)
{
    const char *p = path.empty() ? "(root)" : path.c_str();
    if (ignored(opt, path))
        return;
    if (doc.type() != base.type()) {
        std::printf("TYPE %s: baseline %s, new %s\n", p,
                    typeName(base), typeName(doc));
        ++st->regressions;
        return;
    }
    switch (base.type()) {
      case Json::Type::Number: {
        ++st->compared;
        const double a = doc.asDouble(), b = base.asDouble();
        const double mag = std::max(std::fabs(a), std::fabs(b));
        const double tol = opt.atol + rtolFor(opt, path) * mag;
        if (std::fabs(a - b) > tol) {
            std::printf("VALUE %s: baseline %g, new %g "
                        "(|delta| %g > tol %g)\n",
                        p, b, a, std::fabs(a - b), tol);
            ++st->regressions;
        }
        break;
      }
      case Json::Type::Bool:
        ++st->compared;
        if (doc.asBool() != base.asBool()) {
            std::printf("VALUE %s: baseline %s, new %s\n", p,
                        base.asBool() ? "true" : "false",
                        doc.asBool() ? "true" : "false");
            ++st->regressions;
        }
        break;
      case Json::Type::String:
        ++st->compared;
        if (doc.asString() != base.asString()) {
            std::printf("VALUE %s: baseline \"%s\", new \"%s\"\n", p,
                        base.asString().c_str(),
                        doc.asString().c_str());
            ++st->regressions;
        }
        break;
      case Json::Type::Array:
        if (doc.size() != base.size()) {
            std::printf("LENGTH %s: baseline %zu element(s), new "
                        "%zu\n",
                        p, base.size(), doc.size());
            ++st->regressions;
            break;
        }
        for (size_t i = 0; i < base.size(); ++i)
            diffValues(doc.at(i), base.at(i),
                       path + "[" + std::to_string(i) + "]", opt, st);
        break;
      case Json::Type::Object: {
        for (const auto &m : base.members()) {
            const std::string sub =
                path.empty() ? m.first : path + "." + m.first;
            if (!doc.contains(m.first)) {
                if (!ignored(opt, sub)) {
                    std::printf("MISSING %s\n", sub.c_str());
                    ++st->regressions;
                }
                continue;
            }
            diffValues(doc.at(m.first), m.second, sub, opt, st);
        }
        for (const auto &m : doc.members())
            if (!base.contains(m.first)) {
                const std::string sub =
                    path.empty() ? m.first : path + "." + m.first;
                if (!ignored(opt, sub)) {
                    std::printf("ADDED %s (not in baseline; "
                                "regenerate to adopt)\n",
                                sub.c_str());
                    ++st->added;
                }
            }
        break;
      }
      case Json::Type::Null:
        break;
    }
}

int
cmdDiff(int argc, char **argv)
{
    std::vector<const char *> paths;
    DiffOptions opt;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--rtol" && i + 1 < argc)
            opt.rtol = std::atof(argv[++i]);
        else if (arg == "--atol" && i + 1 < argc)
            opt.atol = std::atof(argv[++i]);
        else if (arg == "--ignore" && i + 1 < argc)
            opt.ignore.push_back(argv[++i]);
        else if (arg == "--key" && i + 1 < argc) {
            const std::string kv = argv[++i];
            const size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                std::fprintf(stderr, "report_tool: --key wants "
                             "prefix=rtol, got '%s'\n", kv.c_str());
                return 2;
            }
            opt.keyRtol.push_back(
                {kv.substr(0, eq), std::atof(kv.c_str() + eq + 1)});
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "report_tool: unknown diff option "
                         "'%s'\n", arg.c_str());
            return 2;
        } else
            paths.push_back(argv[i]);
    }
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "usage: report_tool diff <new.json> "
                     "<baseline.json> [--rtol R] [--atol A] "
                     "[--key prefix=R ...] [--ignore substr ...]\n");
        return 2;
    }
    Json doc, base;
    if (!loadJson(paths[0], &doc) || !loadJson(paths[1], &base))
        return 1;
    DiffStats st;
    diffValues(doc, base, "", opt, &st);
    std::printf("compared %d leaf value(s): %d regression(s), %d "
                "added key(s)\n",
                st.compared, st.regressions, st.added);
    if (st.regressions) {
        std::fprintf(stderr, "report_tool: %s regressed vs baseline "
                     "%s\n", paths[0], paths[1]);
        return 1;
    }
    std::printf("%s matches baseline %s\n", paths[0], paths[1]);
    return 0;
}

int
cmdMerge(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: report_tool merge <out.json> <in...>\n");
        return 2;
    }
    Json merged = Json::object();
    for (int i = 1; i < argc; ++i) {
        Json doc;
        if (!loadJson(argv[i], &doc))
            return 1;
        std::string key = doc.contains("bench")
                              ? doc.at("bench").asString()
                              : std::string(argv[i]);
        merged[key] = std::move(doc);
    }
    if (!merged.writeFile(argv[0], 2)) {
        std::fprintf(stderr, "report_tool: cannot write %s\n", argv[0]);
        return 1;
    }
    std::printf("merged %d report(s) into %s\n", argc - 1, argv[0]);
    return 0;
}

int
cmdCheck(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: report_tool check <report.json> "
                     "<golden.json>\n");
        return 2;
    }
    Json doc, golden;
    if (!loadJson(argv[0], &doc) || !loadJson(argv[1], &golden))
        return 1;
    const int errors = checkShape(doc, golden, "");
    if (errors) {
        std::fprintf(stderr, "report_tool: %s: %d schema error(s) vs "
                     "%s\n",
                     argv[0], errors, argv[1]);
        return 1;
    }
    std::printf("%s matches golden %s\n", argv[0], argv[1]);
    return 0;
}

int
cmdDigest(int argc, char **argv)
{
    if (argc != 1) {
        std::fprintf(stderr, "usage: report_tool digest <report.json>\n");
        return 2;
    }
    Json doc;
    if (!loadJson(argv[0], &doc))
        return 1;
    if (!doc.contains("results")) {
        std::fprintf(stderr, "report_tool: %s has no results\n", argv[0]);
        return 1;
    }
    const std::string dump = doc.at("results").dump();
    std::printf("%s\n",
                dbsens::digestHex(dbsens::fnv1a(dump.data(), dump.size()))
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: report_tool <merge|check|diff|digest> ...\n");
        return 2;
    }
    if (std::strcmp(argv[1], "merge") == 0)
        return cmdMerge(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "check") == 0)
        return cmdCheck(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "diff") == 0)
        return cmdDiff(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "digest") == 0)
        return cmdDigest(argc - 2, argv + 2);
    std::fprintf(stderr, "report_tool: unknown command '%s'\n",
                 argv[1]);
    return 2;
}
