/**
 * @file
 * ckpt_mutate: write one single-leaf mutant of a snapshot.
 *
 *   ckpt_mutate SNAPSHOT SEED INDEX OUT
 *
 * Reads SNAPSHOT (a `consim.ckpt.v5` document), writes its mutant
 * INDEX of SEED (see ckpt_mutation.hh) to OUT, and prints the edited
 * leaf's path and new value; that line lost to a failed write exits
 * 1. The leaves are those of the context, of the machine section
 * outside its stats, and of the VM section. tools/ci.sh resumes each
 * mutant with `consim_run --resume OUT --check full`.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "ckpt_mutation.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "common/write_file.hh"
#include "core/report.hh"

using namespace consim;

int
main(int argc, char **argv)
{
    std::uint64_t seed = 0, index = 0;
    if (argc != 5 || !parseU64(argv[2], seed) || !parseU64(argv[3], index)) {
        std::cerr << "usage: ckpt_mutate SNAPSHOT SEED INDEX OUT\n";
        return 2;
    }
    std::ifstream in(argv[1]);
    std::ostringstream text;
    text << in.rdbuf();
    json::Value doc;
    std::string err;
    if (!in || !json::parse(text.str(), doc, &err)) {
        std::cerr << "ckpt_mutate: cannot read " << argv[1] << ": " << err
                  << "\n";
        return 1;
    }
    const mutation::Mutator mutator(doc, {"context", "machine", "vms"});
    mutation::Edit edit;
    const json::Value out = mutator.mutant(seed, index, edit);
    if (!writeFile(argv[4], out.dump())) {
        std::cerr << "ckpt_mutate: cannot write " << argv[4] << "\n";
        return 1;
    }
    std::cout << edit.path << " " << edit.value << "\n";
    checkStdout();
    return 0;
}
