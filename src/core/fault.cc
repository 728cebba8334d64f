#include "core/fault.hh"

#include <sstream>

#include "common/parse.hh"

namespace consim
{

namespace
{

constexpr const char *catalog =
    "wedge:core=C,at=CYCLE | drop:nth=N | "
    "memburst:at=CYCLE,len=CYCLES,extra=CYCLES";

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg + " (valid: " + std::string(catalog) + ")";
    return false;
}

/**
 * Parse "key=value" pairs after the kind keyword. Each kind accepts
 * exactly its own parameter set — a key from another kind's grammar
 * is an error, not a silent no-op — and every listed key is
 * mandatory.
 */
bool
parseParams(const std::vector<std::string> &kvs,
            const std::vector<std::string> &wanted, FaultEvent &e,
            std::string *err)
{
    std::vector<bool> seen(wanted.size(), false);
    const std::string kind = toString(e.kind);
    for (const std::string &kv : kvs) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            return fail(err, kind + ": expected key=value, got '" +
                                 kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        std::size_t which = wanted.size();
        for (std::size_t i = 0; i < wanted.size(); ++i) {
            if (wanted[i] == key) {
                which = i;
                break;
            }
        }
        if (which == wanted.size())
            return fail(err, kind + " does not take parameter '" +
                                 key + "'");
        if (seen[which])
            return fail(err, kind + ": duplicate parameter '" + key +
                                 "'");
        seen[which] = true;
        std::uint64_t v = 0;
        if (!parseU64(val, v))
            return fail(err, "bad number '" + val + "' for " + key);
        if (key == "core")
            e.core = static_cast<CoreId>(v);
        else if (key == "at")
            e.at = v;
        else if (key == "nth")
            e.nth = v;
        else if (key == "len")
            e.len = v;
        else if (key == "extra")
            e.extra = v;
    }
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        if (!seen[i])
            return fail(err, kind + ": missing parameter '" +
                                 wanted[i] + "'");
    }
    return true;
}

} // namespace

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::WedgeCore:
        return "wedge";
      case FaultKind::DropResponse:
        return "drop";
      case FaultKind::MemBurst:
        return "memburst";
    }
    return "?";
}

std::string
FaultEvent::spec() const
{
    std::ostringstream os;
    os << toString(kind);
    switch (kind) {
      case FaultKind::WedgeCore:
        os << ":core=" << core << ",at=" << at;
        break;
      case FaultKind::DropResponse:
        os << ":nth=" << nth;
        break;
      case FaultKind::MemBurst:
        os << ":at=" << at << ",len=" << len << ",extra=" << extra;
        break;
    }
    return os.str();
}

bool
FaultPlan::parse(const std::string &text, FaultPlan &out,
                 std::string *err)
{
    FaultPlan plan;
    for (const auto &ev : splitSpec(text, ';')) {
        const auto colon = ev.find(':');
        const std::string kind = ev.substr(0, colon);
        const std::vector<std::string> params =
            colon == std::string::npos
                ? std::vector<std::string>{}
                : splitSpec(ev.substr(colon + 1), ',');
        FaultEvent e;
        if (kind == "wedge") {
            e.kind = FaultKind::WedgeCore;
            if (!parseParams(params, {"core", "at"}, e, err))
                return false;
            if (e.core < 0)
                return fail(err, "wedge: bad core");
        } else if (kind == "drop") {
            e.kind = FaultKind::DropResponse;
            if (!parseParams(params, {"nth"}, e, err))
                return false;
            if (e.nth == 0)
                return fail(err, "drop: nth must be >= 1");
        } else if (kind == "memburst") {
            e.kind = FaultKind::MemBurst;
            if (!parseParams(params, {"at", "len", "extra"}, e, err))
                return false;
            if (e.len == 0 || e.extra == 0)
                return fail(err,
                            "memburst: len and extra must be >= 1");
        } else {
            return fail(err,
                        "unknown fault kind '" + kind + "'");
        }
        plan.events.push_back(e);
    }
    out = std::move(plan);
    return true;
}

std::string
FaultPlan::spec() const
{
    std::string s;
    for (const auto &e : events) {
        if (!s.empty())
            s += ';';
        s += e.spec();
    }
    return s;
}

json::Value
FaultPlan::toJson() const
{
    auto arr = json::Value::array();
    for (const auto &e : events) {
        auto v = json::Value::object();
        v.set("kind", toString(e.kind));
        switch (e.kind) {
          case FaultKind::WedgeCore:
            v.set("core", e.core);
            v.set("at", e.at);
            break;
          case FaultKind::DropResponse:
            v.set("nth", e.nth);
            break;
          case FaultKind::MemBurst:
            v.set("at", e.at);
            v.set("len", e.len);
            v.set("extra", e.extra);
            break;
        }
        arr.push(std::move(v));
    }
    return arr;
}

} // namespace consim
