/**
 * @file
 * Lightweight statistics package: named scalar counters, running
 * averages, and fixed-bucket histograms, registered into a
 * hierarchical Group tree. Modelled loosely on the gem5 stats
 * package but much smaller.
 *
 * Groups nest: every component embeds a Group, the System roots them
 * all under "sys", and a stat's full name is the dot-joined path of
 * its ancestors (e.g. "sys.tile03.l1.misses"). The whole tree
 * supports bulk reset, text dumps, JSON export (common/json.hh), and
 * typed path lookup — RunResult extraction reads the registry rather
 * than reaching into component structs. A snapshot saves and restores
 * the raw state of every stat through the checkpoint layer's field
 * list (core/checkpoint.cc), the one friend of these classes.
 */

#ifndef CONSIM_COMMON_STATS_HH
#define CONSIM_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace consim
{

struct CkptAccess;

namespace stats
{

/** A named monotonically increasing scalar. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    friend struct consim::CkptAccess;

    std::uint64_t value_ = 0;
};

/** Sum + count, reporting a mean. */
class Average
{
  public:
    Average() = default;

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }

    /** @return mean of all samples, or 0 when empty. */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    friend struct consim::CkptAccess;

    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Fixed-width-bucket histogram with overflow bucket. */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each bucket (must be > 0)
     * @param num_buckets  number of regular buckets; samples at or
     *                     beyond bucket_width*num_buckets land in the
     *                     overflow bucket.
     */
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
        : width_(bucket_width), buckets_(num_buckets + 1, 0)
    {
        CONSIM_ASSERT(bucket_width > 0,
                      "histogram bucket width must be positive");
    }

    void
    sample(std::uint64_t v)
    {
        std::size_t idx = static_cast<std::size_t>(v / width_);
        if (idx >= buckets_.size() - 1)
            idx = buckets_.size() - 1;
        ++buckets_[idx];
        sum_ += v;
        ++count_;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t max() const { return max_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    /** @return sample count in bucket i (last bucket = overflow). */
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }

    /**
     * @return value below which the given fraction of samples fall,
     * resolved to bucket upper edges (the overflow bucket reports
     * the tracked max()); 0 when empty.
     */
    std::uint64_t percentile(double p) const;

    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        sum_ = 0;
        count_ = 0;
        max_ = 0;
    }

  private:
    /** A snapshot holds the raw state; the shape is config. */
    friend struct consim::CkptAccess;

    std::uint64_t width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * A node of the hierarchical statistics registry. Components embed a
 * Group, register their stats in their constructor, and the owner of
 * the component tree links the Groups into one tree (System roots
 * everything at "sys"). Registration stores pointers, so a Group
 * must not outlive its members (embed them side by side), and parent
 * Groups must not be destroyed before their children are done being
 * queried (a destroyed Group detaches itself from both sides).
 */
class Group
{
  public:
    /**
     * @param name   node name; full names dot-join ancestors
     * @param parent optional parent to attach to immediately
     */
    explicit Group(std::string name, Group *parent = nullptr);
    ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** A registered stat, typed by its kind. */
    using Stat = std::variant<Counter *, Average *, Histogram *>;

    /** Register a stat; duplicate names in one Group are a bug. */
    void add(const std::string &stat_name, Stat s);

    /**
     * Attach @p child under this Group. A child already attached
     * elsewhere is re-parented (components can be wired into a fresh
     * System's tree); name collisions with stats or other children
     * are a bug.
     */
    void addChild(Group *child);

    const std::string &name() const { return name_; }
    Group *parent() const { return parent_; }
    const std::vector<Group *> &children() const { return children_; }

    /** @return dot-joined path from the root, e.g. "sys.tile03.l1". */
    std::string fullName() const;

    /** Reset every stat in this subtree. */
    void resetAll();

    /**
     * Write "full.dotted.name value" lines for the whole subtree
     * (preorder, names from this Group's own): a counter's value, an
     * average's .mean and .count, a histogram's .mean, .max and
     * .count.
     */
    void dump(std::ostream &os) const;

    /**
     * JSON export: nested objects mirroring the Group tree; counters
     * become integers, averages {mean,count} objects, histograms
     * {mean,max,count,p50,p95} summaries.
     */
    json::Value toJson() const;

    // --- typed path lookup (paths relative to this Group, i.e.
    //     excluding its own name: root.findCounter("tile03.l1.misses")) ---
    const Group *findGroup(std::string_view path) const;
    const Counter *findCounter(std::string_view path) const;
    const Average *findAverage(std::string_view path) const;
    const Histogram *findHistogram(std::string_view path) const;

  private:
    /** Stats are kept in name order and children in registration
     *  order; a snapshot's text follows both. */
    friend struct consim::CkptAccess;

    void dump(std::ostream &os, const std::string &path) const;
    template <typename T>
    const T *findStat(std::string_view path) const;

    std::string name_;
    Group *parent_ = nullptr;
    std::vector<Group *> children_;
    std::map<std::string, Stat, std::less<>> stats_;
};

} // namespace stats

/** Zero-padded component name, e.g. indexedName("tile", 3) = "tile03". */
std::string indexedName(const char *prefix, int index, int width = 2);

} // namespace consim

#endif // CONSIM_COMMON_STATS_HH
