// Group-commit dedup soak: randomized duplicate/interleaved envelope
// streams from 32 clients.
//
// 32 MieClients each record their enveloped mutation stream (create,
// updates, remove) against a private scratch server. The streams are
// then merged into one submission order by a seeded random interleave
// (per-client order preserved — envelope seqs are monotonic per client)
// and duplicates of already-submitted envelopes are injected at random
// later positions, exactly what at-least-once delivery produces under
// retries. Everything is pushed through a GroupCommitter in front of one
// DurableServer, so originals and their duplicates land in emergent,
// arbitrary batch groupings.
//
// Pinned contract: every duplicate's response is byte-identical to the
// original's (replay cache, even when both sit in the same batch), the
// server counts exactly one suppressed replay per duplicate, no
// completion carries an error, and the final state equals a shadow
// DedupHandler(MieServer) fed only the originals.
#include <gtest/gtest.h>

#include <unistd.h>

#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mie/client.hpp"
#include "mie/durable_server.hpp"
#include "mie/keys.hpp"
#include "mie/server.hpp"
#include "net/envelope.hpp"
#include "reactor/group_commit.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"
#include "util/rng.hpp"

namespace mie::reactor {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kNumClients = 32;

/// Feeds a private scratch server and keeps a copy of every enveloped
/// (i.e. mutating) request the client sent.
class MutationRecorder final : public net::Transport {
public:
    MutationRecorder(net::RequestHandler& scratch, std::vector<Bytes>& out)
        : scratch_(scratch), out_(out) {}

    Bytes call(BytesView request) override {
        if (!request.empty() && request[0] == net::kEnvelopeMagic) {
            out_.emplace_back(request.begin(), request.end());
        }
        return scratch_.handle(request);
    }

private:
    net::RequestHandler& scratch_;
    std::vector<Bytes>& out_;
};

struct Submission {
    Bytes request;
    /// Index of the original submission this duplicates, or npos.
    std::size_t original = static_cast<std::size_t>(-1);

    bool is_duplicate() const {
        return original != static_cast<std::size_t>(-1);
    }
};

/// Records each client's mutation stream against its own scratch server.
std::vector<std::vector<Bytes>> record_streams() {
    std::vector<std::vector<Bytes>> streams(kNumClients);
    for (std::size_t c = 0; c < kNumClients; ++c) {
        MieServer scratch;
        MutationRecorder recorder(scratch, streams[c]);
        const std::string repo = "gc-repo-" + std::to_string(c);
        MieClient client(recorder, repo,
                         RepositoryKey::generate(to_bytes("gc-key-" + repo),
                                                 64, 64, 0.7978845608),
                         to_bytes("gc-user-" + std::to_string(c)));
        sim::FlickrLikeGenerator generator(sim::FlickrLikeParams{
            .num_classes = 2, .image_size = 32,
            .seed = 100 + static_cast<std::uint64_t>(c)});
        client.create_repository();
        client.update(generator.make(0));
        client.update(generator.make(1));
        client.remove(0);
        EXPECT_GE(streams[c].size(), 4u) << "client " << c;
    }
    return streams;
}

/// Seeded random merge preserving per-client order, with duplicates of
/// already-emitted envelopes woven in between originals.
std::vector<Submission> plan_submissions(
    const std::vector<std::vector<Bytes>>& streams, std::uint64_t seed,
    std::size_t* num_duplicates) {
    SplitMix64 rng(seed);
    std::vector<std::size_t> cursor(streams.size(), 0);
    std::size_t remaining = 0;
    for (const auto& stream : streams) remaining += stream.size();

    std::vector<Submission> plan;
    std::vector<std::size_t> originals;  // plan indexes of originals
    *num_duplicates = 0;
    while (remaining > 0) {
        // Duplicate injection: before the next original, sometimes
        // replay a random envelope that was already submitted.
        if (!originals.empty() && rng.next_double() < 0.3) {
            const std::size_t victim =
                originals[rng.next_below(originals.size())];
            plan.push_back(Submission{plan[victim].request, victim});
            ++*num_duplicates;
        }
        std::size_t c = rng.next_below(streams.size());
        while (cursor[c] >= streams[c].size()) c = (c + 1) % streams.size();
        originals.push_back(plan.size());
        plan.push_back(Submission{streams[c][cursor[c]],
                                  static_cast<std::size_t>(-1)});
        ++cursor[c];
        --remaining;
    }
    return plan;
}

void run_soak_round(const fs::path& dir, std::uint64_t seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto streams = record_streams();
    std::size_t num_duplicates = 0;
    const auto plan = plan_submissions(streams, seed, &num_duplicates);
    ASSERT_GT(num_duplicates, 0u);

    store::PosixVfs& vfs = store::PosixVfs::instance();
    DurableServer durable(vfs, dir / std::to_string(seed));

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t completed = 0;
    std::vector<Bytes> responses(plan.size());
    std::vector<std::exception_ptr> errors(plan.size());
    {
        GroupCommitter committer(durable, GroupCommitOptions{.max_batch = 16});
        for (std::size_t i = 0; i < plan.size(); ++i) {
            committer.submit(
                plan[i].request,
                [&, i](Bytes response, std::exception_ptr error) {
                    const std::lock_guard<std::mutex> lock(mutex);
                    responses[i] = std::move(response);
                    errors[i] = error;
                    ++completed;
                    cv.notify_one();
                });
        }
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return completed == plan.size(); });
        const auto stats = committer.stats();
        EXPECT_EQ(stats.submitted, plan.size());
        EXPECT_EQ(stats.errors, 0u);
    }

    // Every submission succeeded; every duplicate got its original's
    // bytes back, answered from the replay cache without re-applying.
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(errors[i], nullptr) << "submission " << i;
        if (plan[i].is_duplicate()) {
            EXPECT_EQ(responses[i], responses[plan[i].original])
                << "duplicate " << i << " of " << plan[i].original;
        }
    }
    EXPECT_EQ(durable.durability().replays_suppressed, num_duplicates);

    // Final state: exactly the originals, applied once each, in
    // submission order.
    MieServer shadow;
    net::DedupHandler shadow_dedup(shadow);
    for (const Submission& submission : plan) {
        if (!submission.is_duplicate()) shadow_dedup.handle(submission.request);
    }
    EXPECT_EQ(durable.server().export_mapped_snapshot(),
              shadow.export_mapped_snapshot());
    EXPECT_EQ(shadow_dedup.replays_suppressed(), 0u);
}

TEST(GroupCommitSoakTest, DuplicatedInterleavedEnvelopesFrom32Clients) {
    const fs::path dir =
        fs::temp_directory_path() /
        ("mie_gc_soak_" + std::to_string(::getpid()));
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
        run_soak_round(dir, seed);
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace mie::reactor
