/**
 * @file
 * Helpers shared by the golden-digest suites (SimGolden, ProfileGolden):
 * render a result's fields as JSON text through util/json (numbers
 * round-trip exactly), reduce the text to an FNV-1a 64 digest, and read
 * a checked-in golden file as a set of whole lines.
 */

#ifndef MIPP_TESTS_GOLDEN_HH
#define MIPP_TESTS_GOLDEN_HH

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "uarch/activity.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace mipp::golden {

/** A JSON object built one `"name":number` field at a time. */
class JsonFields
{
  public:
    void
    add(const std::string &name, double v)
    {
        key(name);
        s_ += json::number(v);
    }

    void
    add(const std::string &name, const std::vector<double> &v)
    {
        key(name);
        s_ += '[';
        for (size_t i = 0; i < v.size(); ++i)
            s_ += (i ? "," : "") + json::number(v[i]);
        s_ += ']';
    }

    /** Every counter of @p a, each named @p prefix + its field name. */
    void
    add(const std::string &prefix, const ActivityCounts &a)
    {
        add(prefix + "cycles", a.cycles);
        add(prefix + "uops", a.uops);
        add(prefix + "instructions", a.instructions);
        for (size_t t = 0; t < a.fuOps.size(); ++t)
            add(prefix + "fuOps" + std::to_string(t), a.fuOps[t]);
        add(prefix + "robWrites", a.robWrites);
        add(prefix + "robReads", a.robReads);
        add(prefix + "iqWrites", a.iqWrites);
        add(prefix + "iqWakeups", a.iqWakeups);
        add(prefix + "rfReads", a.rfReads);
        add(prefix + "rfWrites", a.rfWrites);
        add(prefix + "bpLookups", a.bpLookups);
        add(prefix + "l1iAccesses", a.l1iAccesses);
        add(prefix + "l1dAccesses", a.l1dAccesses);
        add(prefix + "l2Accesses", a.l2Accesses);
        add(prefix + "l3Accesses", a.l3Accesses);
        add(prefix + "dramAccesses", a.dramAccesses);
    }

    std::string str() const { return s_ + '}'; }

  private:
    void
    key(const std::string &name)
    {
        if (s_.size() > 1)
            s_ += ',';
        s_ += json::quote(name);
        s_ += ':';
    }

    std::string s_ = "{";
};

/** FNV-1a 64 of @p s as 16 lowercase hex digits. */
inline std::string
digest(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
    return hex;
}

/** Every line of the golden file at @p path. */
inline std::set<std::string>
readLines(const char *path)
{
    std::set<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        lines.insert(line);
    return lines;
}

/** The suite's workload names, one golden test each. */
inline std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &s : workloadSuite())
        names.push_back(s.name);
    return names;
}

} // namespace mipp::golden

#endif // MIPP_TESTS_GOLDEN_HH
