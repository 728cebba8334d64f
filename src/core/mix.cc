#include "core/mix.hh"

#include <algorithm>

#include "common/logging.hh"

namespace consim
{

int
Mix::count(WorkloadKind k) const
{
    return static_cast<int>(std::count(vms.begin(), vms.end(), k));
}

namespace
{

Mix
make(std::string name, std::vector<WorkloadKind> vms)
{
    return Mix{std::move(name), std::move(vms), {}};
}

std::vector<Mix>
buildHeterogeneous()
{
    using K = WorkloadKind;
    return {
        make("Mix 1", {K::TpcW, K::TpcW, K::TpcW, K::TpcH}),
        make("Mix 2", {K::TpcW, K::TpcW, K::TpcH, K::TpcH}),
        make("Mix 3", {K::TpcW, K::TpcH, K::TpcH, K::TpcH}),
        make("Mix 4", {K::SpecJbb, K::SpecJbb, K::SpecJbb, K::TpcH}),
        make("Mix 5", {K::SpecJbb, K::SpecJbb, K::TpcH, K::TpcH}),
        make("Mix 6", {K::SpecJbb, K::TpcH, K::TpcH, K::TpcH}),
        make("Mix 7", {K::SpecJbb, K::SpecJbb, K::SpecJbb, K::TpcW}),
        make("Mix 8", {K::SpecJbb, K::SpecJbb, K::TpcW, K::TpcW}),
        make("Mix 9", {K::SpecJbb, K::TpcW, K::TpcW, K::TpcW}),
    };
}

std::vector<Mix>
buildHomogeneous()
{
    using K = WorkloadKind;
    return {
        make("Mix A", {K::TpcW, K::TpcW, K::TpcW, K::TpcW}),
        make("Mix B", {K::TpcH, K::TpcH, K::TpcH, K::TpcH}),
        make("Mix C", {K::SpecJbb, K::SpecJbb, K::SpecJbb, K::SpecJbb}),
        make("Mix D", {K::SpecWeb, K::SpecWeb, K::SpecWeb, K::SpecWeb}),
    };
}

} // namespace

const std::vector<Mix> &
Mix::heterogeneous()
{
    static const std::vector<Mix> mixes = buildHeterogeneous();
    return mixes;
}

const std::vector<Mix> &
Mix::homogeneous()
{
    static const std::vector<Mix> mixes = buildHomogeneous();
    return mixes;
}

const Mix &
Mix::byName(const std::string &name)
{
    for (const auto &m : heterogeneous()) {
        if (m.name == name)
            return m;
    }
    for (const auto &m : homogeneous()) {
        if (m.name == name)
            return m;
    }
    CONSIM_FATAL("unknown mix '", name, "'");
}

} // namespace consim
