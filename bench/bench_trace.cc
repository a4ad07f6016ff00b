/**
 * `.mtf` encoding throughput (items/s = uops/s): MtfWriter encoding
 * into a memory buffer. Opening, decoding and profiling a trace are
 * timed by the pipeline benchmark's ingest workload (perfbench/).
 */
#include <benchmark/benchmark.h>

#include <sstream>

#include "trace/mtf.hh"
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

} // namespace

BENCHMARK_MAIN();
