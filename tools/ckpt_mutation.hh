/**
 * @file
 * Single-leaf snapshot mutations: the mutator behind the checkpoint
 * mutation slice (tests/test_checkpoint.cc) and `ckpt_mutate` (the
 * tools/ci.sh mutation stage).
 *
 * Mutant i of seed s edits one leaf (a scalar) of a `consim.ckpt.v5`
 * document, picked uniformly by a hash of (s, i) from the leaves
 * under the chosen sections, never inside machine.stats. Restore
 * checks the statistics record like any other (DESIGN §8), but
 * counting its leaves would move every pick: leaving them out keeps
 * the mutants, and so the tools/ci.sh mutation stage's table of
 * refused / exit 0 / failed later, the same from build to build and
 * comparable across changes.
 *
 * An integer becomes -1, 0, a bound + 1 (the chip's core, group or VM
 * count, the bound + 1 of a tile, group or VM field, or its own value
 * + 1) or 2^63; any leaf may instead become a value of another JSON
 * kind (true, 1, "x" or 1e300). An edit that would leave the value as
 * it was takes the next one in that list.
 */

#ifndef CONSIM_TOOLS_CKPT_MUTATION_HH
#define CONSIM_TOOLS_CKPT_MUTATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace consim
{

namespace mutation
{

/** One edited leaf: where it is, and what it became. */
struct Edit
{
    std::string path;
    std::string value;
};

class Mutator
{
  public:
    /** Mutate @p doc's leaves under its members @p sections. */
    Mutator(const json::Value &doc, std::vector<std::string> sections)
        : doc_(doc), sections_(std::move(sections))
    {
        const json::Value &m =
            *doc.find("context")->find("config")->find("machine");
        const std::uint64_t cores = m.find("mesh_x")->asUint() *
                                    m.find("mesh_y")->asUint();
        bounds_ = {cores, cores / m.find("sharing")->asUint(),
                   doc.find("context")->find("config")->find("workloads")
                       ->size()};
        for (const std::string &s : sections_)
            leaves_ += count(*doc.find(s), s == "machine");
    }

    /** @return mutant @p index of @p seed, with its edit in @p edit. */
    json::Value
    mutant(std::uint64_t seed, std::uint64_t index, Edit &edit) const
    {
        std::uint64_t h = mix(seed * 0x9e3779b97f4a7c15ull + index);
        std::uint64_t pick = h % leaves_;
        json::Value out = doc_;
        for (const std::string &s : sections_) {
            json::Value *leaf = find(*out.find(s), s == "machine", pick,
                                     edit.path = s);
            if (leaf == nullptr)
                continue;
            *leaf = replacement(*leaf, mix(h));
            edit.value = leaf->dump();
            return out;
        }
        return out;
    }

  private:
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    static bool
    nested(const json::Value &v)
    {
        return v.kind() == json::Value::Kind::Array ||
               v.kind() == json::Value::Kind::Object;
    }

    /** @return the leaves under @p v (skipping "stats" when
     *  @p machine). */
    static std::size_t
    count(const json::Value &v, bool machine)
    {
        if (!nested(v))
            return 1;
        std::size_t n = 0;
        if (v.kind() == json::Value::Kind::Array) {
            for (const json::Value &x : v.items())
                n += count(x, false);
        } else {
            for (const auto &[k, x] : v.members())
                if (!(machine && k == "stats"))
                    n += count(x, false);
        }
        return n;
    }

    /** @return leaf number @p pick under @p v (counting it down past
     *  the leaves skipped), its path appended to @p path; null when
     *  it lies past @p v. */
    static json::Value *
    find(json::Value &v, bool machine, std::uint64_t &pick,
         std::string &path)
    {
        if (!nested(v))
            return pick-- == 0 ? &v : nullptr;
        const std::size_t n = v.size();
        for (std::size_t i = 0; i < n; ++i) {
            const bool array = v.kind() == json::Value::Kind::Array;
            const std::string key = array ? "" : v.members()[i].first;
            if (machine && key == "stats")
                continue;
            json::Value &x = array ? v.at(i) : *v.find(key);
            const std::size_t below = count(x, false);
            if (pick >= below) {
                pick -= below;
                continue;
            }
            path += array ? "[" + std::to_string(i) + "]" : "." + key;
            return find(x, false, pick, path);
        }
        return nullptr;
    }

    /** @return what leaf @p v becomes under hash @p h: an integer
     *  takes one of its four integer edits four times in five. */
    json::Value
    replacement(const json::Value &v, std::uint64_t h) const
    {
        std::vector<json::Value> edits;
        const bool integer = v.kind() == json::Value::Kind::Uint ||
                             v.kind() == json::Value::Kind::Int;
        if (integer) {
            const std::uint64_t bound = h >> 32 & 3;
            edits = {json::Value(-1), json::Value(0),
                     bound < 3 ? json::Value(bounds_[bound])
                               : json::Value(v.asUint() + 1),
                     json::Value(std::uint64_t(1) << 63)};
        }
        const std::size_t kinds = edits.size();
        for (json::Value other : {json::Value(true), json::Value(1),
                                  json::Value("x"), json::Value(1e300)}) {
            if (other.kind() != v.kind() &&
                !(integer && other.kind() == json::Value::Kind::Int))
                edits.push_back(other);
        }
        const std::size_t others = edits.size() - kinds;
        const std::size_t slot = integer ? h % 5 : 4;
        const std::size_t first =
            slot < 4 ? slot : kinds + (h >> 8) % others;
        const std::string was = v.dump();
        for (std::size_t k = 0; k < edits.size(); ++k) {
            const json::Value &e = edits[(first + k) % edits.size()];
            if (e.dump() != was)
                return e;
        }
        return edits.front();
    }

    const json::Value &doc_;
    std::vector<std::string> sections_;
    std::vector<std::uint64_t> bounds_;
    std::size_t leaves_ = 0;
};

} // namespace mutation

} // namespace consim

#endif // CONSIM_TOOLS_CKPT_MUTATION_HH
