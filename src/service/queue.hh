/**
 * @file
 * Bounded blocking queue: the per-worker request queue of the ECC
 * service (DESIGN.md §14).
 *
 * A fixed ring under one mutex, for any number of producers and one
 * consumer. A push onto a full ring is refused instead of blocking,
 * which is the backpressure signal EccService::trySubmit reports to
 * callers; a push after close() is refused too. popBatch sleeps on a
 * condition variable until a value is queued or the queue is closed,
 * so an idle consumer costs nothing and wakes on the push that feeds
 * it. Push, pop and close take the same lock: a push either lands
 * before close() and is popped, or is refused.
 */

#ifndef JAAVR_SERVICE_QUEUE_HH
#define JAAVR_SERVICE_QUEUE_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace jaavr
{

enum class PushResult
{
    Ok,
    Full,   ///< backpressure: the ring holds capacity() values
    Closed, ///< close() was called
};

template <typename T>
class BoundedBlockingQueue
{
  public:
    /** @param capacity slots, exactly. */
    explicit BoundedBlockingQueue(size_t capacity) : ring(capacity) {}

    BoundedBlockingQueue(const BoundedBlockingQueue &) = delete;
    BoundedBlockingQueue &operator=(const BoundedBlockingQueue &) = delete;

    PushResult
    push(const T &v)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            if (closed)
                return PushResult::Closed;
            if (count == ring.size())
                return PushResult::Full;
            ring[(head + count) % ring.size()] = v;
            count++;
        }
        // No waiter (a busy consumer) makes this a check, not a
        // syscall.
        nonEmpty.notify_one();
        return PushResult::Ok;
    }

    /**
     * Wait until a value is queued or the queue is closed, then
     * replace @p out with up to @p max values in FIFO order. False,
     * with @p out empty, once the queue is closed and empty.
     */
    bool
    popBatch(std::vector<T> &out, size_t max)
    {
        out.clear();
        std::unique_lock<std::mutex> lk(mu);
        nonEmpty.wait(lk, [this] { return count > 0 || closed; });
        size_t n = std::min(max, count);
        for (size_t i = 0; i < n; i++) {
            out.push_back(ring[head]);
            head = (head + 1) % ring.size();
        }
        count -= n;
        return n > 0;
    }

    /** Refuse every later push; popBatch still returns what is left. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            closed = true;
        }
        nonEmpty.notify_all();
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu);
        return count;
    }

    size_t capacity() const { return ring.size(); }

  private:
    mutable std::mutex mu;
    std::condition_variable nonEmpty;
    std::vector<T> ring;
    size_t head = 0;  ///< slot of the oldest value
    size_t count = 0; ///< values queued
    bool closed = false;
};

} // namespace jaavr

#endif // JAAVR_SERVICE_QUEUE_HH
