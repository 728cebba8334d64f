#include "core/qos.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "core/checkpoint.hh"
#include "core/system.hh"

namespace consim
{

namespace
{

constexpr const char *grammar =
    "off | static:vm=V,ways=W[,vcs=N][,tokens=T][,refill=R] | "
    "dynamic:vm=V,ways=W[,vcs=N][,tokens=T][,refill=R][,epoch=E]";

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg + " (valid: " + grammar + ")";
    return false;
}

} // namespace

const char *
toString(QosMode m)
{
    switch (m) {
      case QosMode::Off:
        return "off";
      case QosMode::Static:
        return "static";
      case QosMode::Dynamic:
        return "dynamic";
    }
    return "?";
}

bool
QosConfig::parse(const std::string &text, QosConfig &out,
                 std::string *err)
{
    QosConfig q;
    const auto colon = text.find(':');
    std::string mode;
    for (const char c : text.substr(0, colon)) {
        if (!std::isspace(static_cast<unsigned char>(c)))
            mode.push_back(c);
    }
    if (mode == "off") {
        if (colon != std::string::npos)
            return fail(err, "qos mode 'off' takes no parameters");
        out = q;
        return true;
    }
    if (mode == "static") {
        q.mode = QosMode::Static;
    } else if (mode == "dynamic") {
        q.mode = QosMode::Dynamic;
    } else {
        return fail(err, "unknown qos mode '" + mode +
                             "' (off|static|dynamic)");
    }
    const std::vector<std::string> kvs =
        colon == std::string::npos
            ? std::vector<std::string>{}
            : splitSpec(text.substr(colon + 1), ',');
    bool have_vm = false, have_ways = false;
    for (const std::string &kv : kvs) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            return fail(err, "expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        std::uint64_t v = 0;
        if (!parseU64(val, v))
            return fail(err, "bad number '" + val + "' for " + key);
        if (key == "vm") {
            q.protectedVm = static_cast<VmId>(v);
            have_vm = true;
        } else if (key == "ways") {
            q.protectedWays = static_cast<int>(v);
            have_ways = true;
        } else if (key == "vcs") {
            q.reservedVcs = static_cast<int>(v);
        } else if (key == "tokens") {
            q.mcTokens = v;
        } else if (key == "refill") {
            q.mcRefillCycles = v;
        } else if (key == "epoch") {
            if (q.mode != QosMode::Dynamic)
                return fail(err, "epoch is only valid in dynamic mode");
            q.epochCycles = v;
        } else {
            return fail(err, "unknown qos parameter '" + key + "'");
        }
    }
    if (!have_vm)
        return fail(err, std::string(toString(q.mode)) +
                             ": vm is required");
    if (!have_ways)
        return fail(err, std::string(toString(q.mode)) +
                             ": ways is required");
    if (q.protectedWays < 1)
        return fail(err, "ways must be >= 1");
    if (q.reservedVcs < 0)
        return fail(err, "vcs must be >= 0");
    if (q.mcTokens < 1)
        return fail(err, "tokens must be >= 1");
    if (q.mcRefillCycles < 1)
        return fail(err, "refill must be >= 1");
    if (q.mode == QosMode::Dynamic && q.epochCycles < 1)
        return fail(err, "epoch must be >= 1");
    out = q;
    return true;
}

std::string
QosConfig::spec() const
{
    if (mode == QosMode::Off)
        return "off";
    std::ostringstream os;
    os << toString(mode) << ":vm=" << protectedVm
       << ",ways=" << protectedWays << ",vcs=" << reservedVcs
       << ",tokens=" << mcTokens << ",refill=" << mcRefillCycles;
    if (mode == QosMode::Dynamic)
        os << ",epoch=" << epochCycles;
    return os.str();
}

json::Value
QosConfig::toJson() const
{
    auto v = json::Value::object();
    v.set("mode", toString(mode));
    if (mode == QosMode::Off)
        return v;
    v.set("protected_vm", protectedVm);
    v.set("protected_ways", protectedWays);
    v.set("reserved_vcs", reservedVcs);
    v.set("mc_tokens", mcTokens);
    v.set("mc_refill_cycles", mcRefillCycles);
    if (mode == QosMode::Dynamic)
        v.set("epoch_cycles", epochCycles);
    return v;
}

void
QosController::configure(const QosConfig &qos, const MachineConfig &m,
                         int num_vms)
{
    if (qos.enabled()) {
        CONSIM_ASSERT(qos.protectedVm >= 0 && qos.protectedVm < num_vms,
                      "QoS protects VM ", qos.protectedVm,
                      " but the mix has ", num_vms, " VMs");
        CONSIM_ASSERT(qos.protectedWays >= 1 &&
                          qos.protectedWays < m.l2Assoc,
                      "QoS ways must leave the other VMs at least "
                      "one way (ways=", qos.protectedWays,
                      " assoc=", m.l2Assoc, ")");
        CONSIM_ASSERT(m.l2Assoc <= 64,
                      "QoS way masks support at most 64 ways");
        CONSIM_ASSERT(qos.reservedVcs >= 0 &&
                          qos.reservedVcs < m.vcsPerVnet,
                      "QoS must leave at least one shared VC per "
                      "vnet (vcs=", qos.reservedVcs,
                      " vcsPerVnet=", m.vcsPerVnet, ")");
    }
    cfg_ = qos;
    allWays_ = m.l2Assoc >= 64 ? ~0ull : ((1ull << m.l2Assoc) - 1);
    ways_ = qos.enabled() ? qos.protectedWays : 0;
    rebaseline();
}

void
QosController::repartition(System &sys)
{
    const MachineConfig &m = sys.config();
    // Miss-curve sample: how many LLC misses did the protected VM
    // take this epoch, and did the last way granted help?
    const std::uint64_t total =
        sys.vm(cfg_.protectedVm).vmStats().l2Misses.value();
    const std::uint64_t delta = total - lastMissTotal_;

    // Occupancy gate: granting another way is pointless (and unfair)
    // while the protected VM is not close to filling its current
    // allocation somewhere on chip.
    const OccupancySnapshot occ = sys.occupancySnapshot();
    double share = 0.0;
    for (GroupId g = 0; g < m.numGroups(); ++g)
        share = std::max(share, occ.share(g, cfg_.protectedVm));
    const double allocFrac =
        static_cast<double>(ways_) / static_cast<double>(m.l2Assoc);

    if (delta == 0 && ways_ > cfg_.protectedWays) {
        // The VM stopped missing: hand a way back (never below the
        // configured floor).
        --ways_;
    } else if (ways_ < m.l2Assoc - 1 && delta > 0 &&
               delta >= prevDelta_ && share >= 0.8 * allocFrac) {
        // Still missing at least as hard as last epoch and actually
        // using the space it has: grow the partition.
        ++ways_;
    }
    prevDelta_ = delta;
    lastMissTotal_ = total;
}

json::Value
QosController::saveState() const
{
    auto v = json::Value::object();
    v.set("dyn_ways", ways_);
    v.set("last_miss_total", lastMissTotal_);
    v.set("prev_delta", prevDelta_);
    return v;
}

void
QosController::restoreState(const json::Value &v)
{
    CONSIM_ASSERT(enabled(),
                  "checkpoint carries QoS runtime state but "
                  "the rebuilt machine has QoS off — "
                  "reinstall the QoS config before restore");
    const double ways = ckptField(v, "dyn_ways").number();
    // The way count sizes a shift in wayMask(), so it must stay
    // inside the range the repartitioner itself keeps it in.
    CONSIM_ASSERT(ways >= cfg_.protectedWays &&
                      ways < static_cast<double>(std::popcount(allWays_)),
                  "checkpoint: bad QoS way count ", ways);
    ways_ = static_cast<int>(ways);
    lastMissTotal_ = ckptField(v, "last_miss_total").asUint();
    prevDelta_ = ckptField(v, "prev_delta").asUint();
}

json::Value
QosController::diagJson() const
{
    auto q = json::Value::object();
    q.set("mode", toString(cfg_.mode));
    q.set("protected_vm", cfg_.protectedVm);
    q.set("dyn_ways", ways_);
    return q;
}

} // namespace consim
