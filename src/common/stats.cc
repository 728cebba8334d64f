#include "common/stats.hh"

#include <algorithm>

namespace consim
{

namespace stats
{

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    const auto target =
        static_cast<std::uint64_t>(p * static_cast<double>(count_));
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        // Empty buckets can't satisfy the target: without this,
        // p=0 would report bucket 0's edge even when no sample
        // landed there.
        if (buckets_[i] == 0)
            continue;
        running += buckets_[i];
        if (running >= target) {
            // The overflow bucket has no meaningful upper edge;
            // report the largest sample actually seen.
            if (i + 1 == buckets_.size())
                return max_;
            return (i + 1) * width_;
        }
    }
    return max_;
}

// ---------------------------------------------------------------------
// Group
// ---------------------------------------------------------------------

Group::Group(std::string name, Group *parent) : name_(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

Group::~Group()
{
    if (parent_) {
        auto &siblings = parent_->children_;
        siblings.erase(
            std::remove(siblings.begin(), siblings.end(), this),
            siblings.end());
    }
    for (Group *c : children_)
        c->parent_ = nullptr;
}

void
Group::add(const std::string &stat_name, Stat s)
{
    CONSIM_ASSERT(std::visit([](const auto *p) { return p != nullptr; }, s),
                  "null stat registered in ", name_);
    for (const Group *c : children_) {
        CONSIM_ASSERT(c->name_ != stat_name, "stat '", stat_name,
                      "' in ", name_, " collides with a child group");
    }
    const bool inserted = stats_.emplace(stat_name, s).second;
    CONSIM_ASSERT(inserted, "duplicate stat '", stat_name,
                  "' registered in group ", name_);
}

void
Group::addChild(Group *child)
{
    CONSIM_ASSERT(child != nullptr, "null child group under ", name_);
    CONSIM_ASSERT(child != this, "group ", name_, " can't own itself");
    CONSIM_ASSERT(stats_.find(child->name_) == stats_.end(),
                  "child group '", child->name_, "' in ", name_,
                  " collides with a stat");
    for (const Group *c : children_) {
        CONSIM_ASSERT(c->name_ != child->name_,
                      "duplicate child group '", child->name_,
                      "' under ", name_);
    }
    if (child->parent_) {
        auto &siblings = child->parent_->children_;
        siblings.erase(
            std::remove(siblings.begin(), siblings.end(), child),
            siblings.end());
    }
    child->parent_ = this;
    children_.push_back(child);
}

std::string
Group::fullName() const
{
    if (!parent_)
        return name_;
    return parent_->fullName() + "." + name_;
}

void
Group::resetAll()
{
    for (auto &[k, s] : stats_)
        std::visit([](auto *p) { p->reset(); }, s);
    for (Group *c : children_)
        c->resetAll();
}

namespace
{

// The text and JSON forms of each kind of stat.

void
dumpLines(std::ostream &os, const std::string &path, const Counter &c)
{
    os << path << " " << c.value() << "\n";
}

void
dumpLines(std::ostream &os, const std::string &path, const Average &a)
{
    os << path << ".mean " << a.mean() << "\n";
    os << path << ".count " << a.count() << "\n";
}

void
dumpLines(std::ostream &os, const std::string &path, const Histogram &h)
{
    os << path << ".mean " << h.mean() << "\n";
    os << path << ".max " << h.max() << "\n";
    os << path << ".count " << h.count() << "\n";
}

json::Value
summary(const Counter &c)
{
    return c.value();
}

json::Value
summary(const Average &a)
{
    json::Value v = json::Value::object();
    v.set("mean", a.mean());
    v.set("count", a.count());
    return v;
}

json::Value
summary(const Histogram &h)
{
    json::Value v = json::Value::object();
    v.set("mean", h.mean());
    v.set("max", h.max());
    v.set("count", h.count());
    v.set("p50", h.percentile(0.5));
    v.set("p95", h.percentile(0.95));
    return v;
}

} // namespace

void
Group::dump(std::ostream &os, const std::string &path) const
{
    for (const auto &[k, s] : stats_)
        std::visit([&](const auto *p) { dumpLines(os, path + "." + k, *p); },
                   s);
    for (const Group *c : children_)
        c->dump(os, path + "." + c->name_);
}

void
Group::dump(std::ostream &os) const
{
    dump(os, name_);
}

json::Value
Group::toJson() const
{
    json::Value node = json::Value::object();
    for (const auto &[k, s] : stats_)
        node.set(k, std::visit([](const auto *p) { return summary(*p); }, s));
    for (const Group *c : children_)
        node.set(c->name_, c->toJson());
    return node;
}

const Group *
Group::findGroup(std::string_view path) const
{
    const Group *g = this;
    while (!path.empty()) {
        const auto dot = path.find('.');
        const std::string_view head = path.substr(0, dot);
        const Group *next = nullptr;
        for (const Group *c : g->children_) {
            if (c->name_ == head) {
                next = c;
                break;
            }
        }
        if (!next)
            return nullptr;
        g = next;
        path = dot == std::string_view::npos ? std::string_view{}
                                             : path.substr(dot + 1);
    }
    return g;
}

template <typename T>
const T *
Group::findStat(std::string_view path) const
{
    const Group *g = this;
    std::string_view leaf = path;
    const auto dot = path.rfind('.');
    if (dot != std::string_view::npos) {
        g = findGroup(path.substr(0, dot));
        leaf = path.substr(dot + 1);
    }
    if (!g)
        return nullptr;
    const auto it = g->stats_.find(leaf);
    if (it == g->stats_.end())
        return nullptr;
    T *const *p = std::get_if<T *>(&it->second);
    return p ? *p : nullptr;
}

const Counter *
Group::findCounter(std::string_view path) const
{
    return findStat<Counter>(path);
}

const Average *
Group::findAverage(std::string_view path) const
{
    return findStat<Average>(path);
}

const Histogram *
Group::findHistogram(std::string_view path) const
{
    return findStat<Histogram>(path);
}

} // namespace stats

std::string
indexedName(const char *prefix, int index, int width)
{
    std::string digits = std::to_string(index);
    if (static_cast<int>(digits.size()) < width)
        digits.insert(0, width - digits.size(), '0');
    return prefix + digits;
}

} // namespace consim
