// Group-commit queue: the funnel between the event loop and the durable
// batch handler.
//
// Mutating requests from any number of connections are enqueued here; a
// single committer thread repeatedly swallows everything pending (capped
// at max_batch) and hands it to a BatchRequestHandler in one call. A
// durable handler (mie::DurableServer::handle_batch) appends the whole
// batch to the WAL and pays ONE fsync for all of it, so the per-request
// durability cost shrinks by the batch size under load while each
// request is still acknowledged only after its bytes are power-loss
// durable (log-before-ack, unchanged).
//
// Completions run on the committer thread after the batch commits; the
// reactor's completion lambda hands the response back to the event loop.
// Batch size is emergent: under light load batches are size 1 (latency
// identical to the serial path); under load the queue fills while the
// previous fsync runs and the next batch amortizes it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "net/batch.hpp"
#include "util/bytes.hpp"

namespace mie::reactor {

struct GroupCommitOptions {
    /// Cap on requests per commit. Bounds both the latency a request
    /// can be held back by its batch-mates and the WAL burst size.
    std::size_t max_batch = 256;
};

class GroupCommitter {
public:
    /// Invoked exactly once per submitted request, on the committer
    /// thread, after the request's batch is durable (error == nullptr)
    /// or failed (error carries the exception; response is empty).
    using Completion =
        std::function<void(Bytes response, std::exception_ptr error)>;

    using Options = GroupCommitOptions;

    /// Starts the committer thread. `handler` must outlive this object.
    explicit GroupCommitter(net::BatchRequestHandler& handler,
                            Options options = {});

    /// stop()s, draining pending requests first.
    ~GroupCommitter();

    GroupCommitter(const GroupCommitter&) = delete;
    GroupCommitter& operator=(const GroupCommitter&) = delete;

    /// Enqueues one mutating request. After stop(), `done` runs inline
    /// with an error instead.
    void submit(Bytes request, Completion done);

    /// Drains every pending request (each gets its completion), then
    /// stops the committer thread. Idempotent.
    void stop();

    /// A batch is counted before its completions run, so a caller that
    /// has seen its outcome also sees it here.
    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t batches = 0;    ///< handle_batch calls issued
        std::uint64_t max_batch = 0;  ///< largest batch committed
        std::uint64_t errors = 0;     ///< completions that carried an error
    };
    Stats stats() const;

private:
    struct Item {
        Bytes request;
        Completion done;
    };

    void run();

    net::BatchRequestHandler& handler_;
    Options options_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    // mielint: guarded_by(mutex_)
    std::deque<Item> queue_;
    // mielint: guarded_by(mutex_)
    bool stopping_ = false;
    // mielint: guarded_by(mutex_)
    Stats stats_;
    std::thread thread_;
};

}  // namespace mie::reactor
