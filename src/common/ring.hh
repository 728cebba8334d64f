/**
 * @file
 * Growable circular FIFO: the NIs' per-vnet injection queues.
 *
 * `std::deque` allocates and frees 512-byte chunks as a queue's head
 * crosses chunk boundaries, which shows up as steady-state malloc
 * traffic once a mesh has hundreds of NIs injecting every cycle.
 * RingBuf keeps one power-of-two buffer that only grows (doubling,
 * never shrinking), so a warmed-up queue performs push/pop with two
 * index updates and no allocator calls.
 *
 * The interface is the subset of std::deque the NIs and the
 * checkpoint codec use: front/push_back/pop_front, size inspection,
 * clear(), and forward iteration in FIFO order.
 */

#ifndef CONSIM_COMMON_RING_HH
#define CONSIM_COMMON_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace consim
{

/** Growable power-of-two circular FIFO. */
template <typename T>
class RingBuf
{
  public:
    RingBuf() = default;

    bool empty() const { return n_ == 0; }
    std::size_t size() const { return n_; }
    /** @return slots allocated: 0, then 8, doubling on each growth. */
    std::size_t capacity() const { return buf_.size(); }

    T &
    front()
    {
        CONSIM_ASSERT(n_ != 0, "RingBuf::front on empty ring");
        return buf_[head_];
    }

    const T &
    front() const
    {
        CONSIM_ASSERT(n_ != 0, "RingBuf::front on empty ring");
        return buf_[head_];
    }

    /** @return element @p i positions behind the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    /** Append a copy of @p v: one copy, straight into the slot. */
    void
    push_back(const T &v)
    {
        if (n_ == buf_.size())
            grow();
        buf_[(head_ + n_) & mask_] = v;
        ++n_;
    }

    void
    pop_front()
    {
        CONSIM_ASSERT(n_ != 0, "RingBuf::pop_front on empty ring");
        head_ = (head_ + 1) & mask_;
        // An emptied ring restarts at slot 0, so a queue that seldom
        // holds more than one element keeps reusing one warm slot.
        if (--n_ == 0)
            head_ = 0;
    }

    /** Drop every element; capacity is retained. */
    void
    clear()
    {
        head_ = 0;
        n_ = 0;
    }

    class const_iterator
    {
      public:
        const_iterator(const RingBuf *r, std::size_t i)
            : r_(r), i_(i)
        {
        }
        const T &operator*() const { return (*r_)[i_]; }
        const T *operator->() const { return &(*r_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        const RingBuf *r_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, n_}; }

  private:
    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? 8 : buf_.size() * 2);
        for (std::size_t i = 0; i < n_; ++i)
            next[i] = std::move((*this)[i]);
        buf_ = std::move(next);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t n_ = 0;
    std::size_t mask_ = 0; ///< buf_.size() - 1 (0 when unallocated)
};

} // namespace consim

#endif // CONSIM_COMMON_RING_HH
