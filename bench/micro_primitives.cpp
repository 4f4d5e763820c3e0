// Microbenchmarks (google-benchmark) of the cryptographic and encoding
// primitives whose relative costs drive every figure in the paper:
// AES-CTR vs DPE vs Paillier is exactly the Encrypt-bar story of
// Figs. 2-3, and quantization/popcount costs drive server-side training.
// The inverted-index pair times what the server does per search (postings
// scoring) and per indexed object, at the benchmark's search scale.
#include <benchmark/benchmark.h>

#include <numbers>
#include <sstream>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "crypto/ctr.hpp"
#include "crypto/hmac.hpp"
#include "crypto/paillier.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "dpe/dense_dpe.hpp"
#include "dpe/sparse_dpe.hpp"
#include "features/surf.hpp"
#include "index/bovw.hpp"
#include "index/inverted_index.hpp"
#include "index/kmeans.hpp"
#include "index/scoring.hpp"
#include "index/space.hpp"
#include "sim/dataset.hpp"
#include "util/rng.hpp"

namespace {

using namespace mie;

void BM_Sha256(benchmark::State& state) {
    const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_HmacSha1(benchmark::State& state) {
    const Bytes key(20, 0x0b);
    const Bytes data(64, 0xcd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Hmac<crypto::Sha1>::mac(key, data));
    }
}
BENCHMARK(BM_HmacSha1);

void BM_AesCtr(benchmark::State& state) {
    const crypto::AesCtr ctr(Bytes(16, 0x42));
    const Bytes nonce(16, 7);
    Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
    for (auto _ : state) {
        ctr.transform(nonce, std::span(data));
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(4096);

void BM_DenseDpeEncode(benchmark::State& state) {
    const auto key = dpe::DenseDpe::keygen(
        to_bytes("bm"), 64, static_cast<std::size_t>(state.range(0)),
        std::sqrt(2.0 / std::numbers::pi));
    const dpe::DenseDpe dense(key);
    SplitMix64 rng(1);
    features::FeatureVec v(64);
    for (auto& x : v) x = static_cast<float>(rng.next_double());
    for (auto _ : state) {
        benchmark::DoNotOptimize(dense.encode(v));
    }
}
BENCHMARK(BM_DenseDpeEncode)->Arg(64)->Arg(256);

void BM_SparseDpeEncode(benchmark::State& state) {
    const dpe::SparseDpe sparse(dpe::SparseDpe::keygen(to_bytes("bm")));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sparse.encode("multimodal"));
    }
}
BENCHMARK(BM_SparseDpeEncode);

void BM_BitCodeHamming(benchmark::State& state) {
    dpe::BitCode a(4096), b(4096);
    for (std::size_t i = 0; i < 4096; i += 3) a.set(i, true);
    for (std::size_t i = 0; i < 4096; i += 5) b.set(i, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.hamming_distance(b));
    }
}
BENCHMARK(BM_BitCodeHamming);

void BM_PaillierEncrypt(benchmark::State& state) {
    crypto::CtrDrbg drbg(to_bytes("bm-paillier"));
    const auto scheme = crypto::Paillier::generate(
        drbg, static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheme.encrypt(crypto::BigUint(42), drbg));
    }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(256)->Arg(384)->Arg(512);

void BM_PaillierDecrypt(benchmark::State& state) {
    crypto::CtrDrbg drbg(to_bytes("bm-paillier-dec"));
    const auto scheme = crypto::Paillier::generate(
        drbg, static_cast<std::size_t>(state.range(0)));
    const auto c = scheme.encrypt(crypto::BigUint(42), drbg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheme.decrypt(c));
    }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(256)->Arg(384);

void BM_PaillierAdd(benchmark::State& state) {
    crypto::CtrDrbg drbg(to_bytes("bm-paillier-add"));
    const auto scheme = crypto::Paillier::generate(drbg, 384);
    const auto a = scheme.encrypt(crypto::BigUint(1), drbg);
    const auto b = scheme.encrypt(crypto::BigUint(2), drbg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheme.add(a, b));
    }
}
BENCHMARK(BM_PaillierAdd);

void BM_SurfExtract(benchmark::State& state) {
    const sim::FlickrLikeGenerator gen(
        sim::FlickrLikeParams{.image_size = 64, .seed = 3});
    const auto object = gen.make(0);
    const features::SurfExtractor surf;
    for (auto _ : state) {
        benchmark::DoNotOptimize(surf.extract(object.image));
    }
}
BENCHMARK(BM_SurfExtract);

void BM_KMeansHammingIteration(benchmark::State& state) {
    SplitMix64 rng(5);
    std::vector<dpe::BitCode> points;
    for (int i = 0; i < 500; ++i) {
        dpe::BitCode code(64);
        for (std::size_t b = 0; b < 64; ++b) {
            code.set(b, rng.next_double() < 0.5);
        }
        points.push_back(code);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            index::kmeans<index::HammingSpace>(points, 10, 1, 7));
    }
}
BENCHMARK(BM_KMeansHammingIteration);

// Visual-word corpus at the scale of the perfbench search workload: 800
// objects, the 289 leaves of a 17x2 vocabulary tree, about 420
// descriptors per object. Word draws are skewed (squared uniform) so a
// few words are common, as in a real bag of visual words.
constexpr std::size_t kIndexObjects = 800;
constexpr double kIndexWords = 289;
constexpr std::size_t kDescriptorsPerObject = 420;

std::vector<index::Term> descriptor_words(SplitMix64& rng) {
    std::vector<index::Term> words;
    words.reserve(kDescriptorsPerObject);
    for (std::size_t i = 0; i < kDescriptorsPerObject; ++i) {
        const double u = rng.next_double();
        words.push_back(index::visual_word_term(
            static_cast<std::uint32_t>(u * u * kIndexWords)));
    }
    return words;
}

index::InvertedIndex visual_word_index(SplitMix64& rng) {
    index::InvertedIndex idx;
    for (std::size_t doc = 0; doc < kIndexObjects; ++doc) {
        for (const auto& word : descriptor_words(rng)) idx.add(word, doc, 1);
    }
    return idx;
}

void BM_RankTfIdf(benchmark::State& state) {
    SplitMix64 rng(13);
    const index::InvertedIndex idx = visual_word_index(rng);
    index::QueryHistogram query;
    for (const auto& word : descriptor_words(rng)) ++query[word];
    index::RankCounters counters;
    index::rank_tfidf(idx, query, kIndexObjects, 40, &counters);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            index::rank_tfidf(idx, query, kIndexObjects, 40));
    }
    state.counters["postings_scored"] =
        static_cast<double>(counters.postings_scored);
}
BENCHMARK(BM_RankTfIdf)->Unit(benchmark::kMicrosecond);

// One object's descriptors added to the full index, one add() per
// descriptor as the server indexes them; the removal that keeps the
// index at 800 objects is not timed.
void BM_IndexAddDocument(benchmark::State& state) {
    SplitMix64 rng(13);
    index::InvertedIndex idx = visual_word_index(rng);
    const std::vector<index::Term> words = descriptor_words(rng);
    for (auto _ : state) {
        for (const auto& word : words) idx.add(word, kIndexObjects, 1);
        state.PauseTiming();
        idx.remove_document(kIndexObjects);
        state.ResumeTiming();
    }
}
BENCHMARK(BM_IndexAddDocument)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): runs the suite through a
// JSONReporter captured in memory, then wraps the raw report in the
// repo-wide `schema_version` envelope and honors `--json PATH` like every
// other bench. The `--json` flag is stripped before benchmark::Initialize
// so google-benchmark's flag parser never sees it.
int main(int argc, char** argv) {
    std::vector<char*> bench_args;
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
            ++i;
            continue;
        }
        bench_args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data())) {
        return 1;
    }

    std::ostringstream raw;
    benchmark::JSONReporter reporter;
    reporter.SetOutputStream(&raw);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const std::string json = mie::bench::json_header("micro_primitives") +
                             ",\"google_benchmark\":" + raw.str() + "}";
    mie::bench::emit_json(argc, argv, json);
    return 0;
}
