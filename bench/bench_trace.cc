/**
 * Ingest formats: `.mtf` encoding throughput (items/s = uops/s),
 * MtfWriter encoding into a memory buffer; and a profile upload's two
 * parses on serve's load path, parseProfile of one 40k-uop suite
 * profile and json::parse of the same profile quoted in a
 * `load-profile` request line (bytes/s = input bytes). Opening,
 * decoding and profiling a trace are timed by the pipeline benchmark's
 * ingest workload, and whole uploads by its serve workload
 * (perfbench/).
 */
#include <benchmark/benchmark.h>

#include <sstream>

#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace {

using namespace mipp;

constexpr size_t kUops = 2000000;

const Trace &
sharedTrace()
{
    static Trace t =
        generateWorkload(suiteWorkload("balanced_mix"), kUops);
    return t;
}

void
BM_MtfEncode(benchmark::State &state)
{
    int64_t bytes = 0;
    for (auto _ : state) {
        std::ostringstream os;
        MtfWriter w(os);
        for (const MicroOp &op : sharedTrace())
            w.append(op);
        Status st = w.finish();
        benchmark::DoNotOptimize(st.isOk());
        bytes = os.tellp();
    }
    state.SetItemsProcessed(state.iterations() * sharedTrace().size());
    state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_MtfEncode)->Unit(benchmark::kMillisecond);

/** The serve workload's cold-upload size: one suite profile of 40k
 *  uops, as writeProfile emits it. */
const std::string &
uploadProfile()
{
    static const std::string text = [] {
        Profile p = profileTrace(
            generateWorkload(suiteWorkload("mix_mid"), 40000),
            {.name = "mix_mid"});
        std::ostringstream os;
        writeProfile(p, os);
        return os.str();
    }();
    return text;
}

void
BM_ProfileParse(benchmark::State &state)
{
    const std::string &text = uploadProfile();
    for (auto _ : state) {
        Profile p;
        Status st = parseProfile(text, p);
        benchmark::DoNotOptimize(st.isOk());
        benchmark::DoNotOptimize(p.memOps.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ProfileParse)->Unit(benchmark::kMicrosecond);

void
BM_JsonParseUpload(benchmark::State &state)
{
    const std::string line =
        std::string(R"({"op":"load-profile","name":"mix_mid","data":)") +
        json::quote(uploadProfile()) + "}";
    for (auto _ : state) {
        json::Value doc;
        Status st = json::parse(line, doc);
        benchmark::DoNotOptimize(st.isOk());
        benchmark::DoNotOptimize(doc["data"].str().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_JsonParseUpload)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
