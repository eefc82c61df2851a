// perfbench — the repository benchmark's workload runner.
//
//   perfbench gen-inputs --inputs <dir>
//   perfbench <stl_table|service_mix|distrib_fleet> --seed N --seconds S
//             --trace 0|1 --inputs <dir> --work <dir> [--gpustld <path>]
//             [--nproc N]
//
// perfbench/run.py builds this binary, generates the inputs once per
// checkout, empties the work dir and calls it; see perfbench/README.md.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen-inputs --inputs <dir>\n"
               "       perfbench <stl_table|service_mix|distrib_fleet> "
               "--seed N --seconds S --trace 0|1 --inputs <dir> --work "
               "<dir> [--gpustld <path>] [--nproc N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  RunArgs args;
  args.workload = argv[1];
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  args.nproc = cpus > 0 ? static_cast<int>(cpus) : 1;
  if (argc % 2 != 0) return Usage();  // every flag takes one value
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--inputs") args.inputs = value;
    else if (flag == "--work") args.work = value;
    else if (flag == "--gpustld") args.gpustld = value;
    else if (flag == "--nproc") args.nproc = std::stoi(value);
    else return Usage();
  }
  if (args.inputs.empty() || args.nproc < 1) return Usage();
  if (args.workload == "gen-inputs") return GenerateInputs(args.inputs);
  if (args.work.empty() || args.seconds <= 0) return Usage();
  if (args.workload == "stl_table") return RunStlTable(args);
  if (args.workload == "distrib_fleet") return RunDistribFleet(args);
  if (args.workload == "service_mix") {
    if (args.gpustld.empty()) return Usage();
    return RunServiceMix(args);
  }
  return Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
