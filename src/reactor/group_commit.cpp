#include "reactor/group_commit.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mie::reactor {

GroupCommitter::GroupCommitter(net::BatchRequestHandler& handler,
                               Options options)
    : handler_(handler), options_(options) {
    if (options_.max_batch == 0) options_.max_batch = 1;
    thread_ = std::thread([this] { run(); });
}

GroupCommitter::~GroupCommitter() { stop(); }

void GroupCommitter::submit(Bytes request, Completion done) {
    {
        const std::scoped_lock lock(mutex_);
        if (!stopping_) {
            ++stats_.submitted;
            queue_.push_back(Item{std::move(request), std::move(done)});
            cv_.notify_one();
            return;
        }
        ++stats_.submitted;
        ++stats_.completed;
        ++stats_.errors;
    }
    // Stopped: fail inline (outside the lock — the completion may call
    // back into code that takes other locks).
    done({}, std::make_exception_ptr(
                 std::runtime_error("GroupCommitter: stopped")));
}

void GroupCommitter::stop() {
    {
        const std::scoped_lock lock(mutex_);
        stopping_ = true;
        cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
}

GroupCommitter::Stats GroupCommitter::stats() const {
    const std::scoped_lock lock(mutex_);
    return stats_;
}

void GroupCommitter::run() {
    for (;;) {
        std::vector<Item> batch;
        {
            std::unique_lock lock(mutex_);
            cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping and fully drained
            const std::size_t take =
                std::min(queue_.size(), options_.max_batch);
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            ++stats_.batches;
            stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch,
                                                       batch.size());
        }

        std::vector<Bytes> requests;
        requests.reserve(batch.size());
        for (Item& item : batch) requests.push_back(std::move(item.request));

        std::vector<net::BatchRequestHandler::Result> results;
        std::exception_ptr batch_error;
        try {
            results = handler_.handle_batch(requests);
            if (results.size() != requests.size()) {
                throw std::logic_error(
                    "GroupCommitter: handler returned wrong result count");
            }
        } catch (...) {
            batch_error = std::current_exception();
        }

        std::uint64_t errors = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch_error || results[i].error) ++errors;
        }
        // Count before completing: a client that has seen its outcome
        // (a reply, or its connection dropped) must also see it counted.
        {
            const std::scoped_lock lock(mutex_);
            stats_.completed += batch.size();
            stats_.errors += errors;
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch_error) {
                batch[i].done({}, batch_error);
            } else if (results[i].error) {
                batch[i].done({}, results[i].error);
            } else {
                batch[i].done(std::move(results[i].response), nullptr);
            }
        }
    }
}

}  // namespace mie::reactor
