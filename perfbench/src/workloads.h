// Entry points of the perfbench workloads. Each prints human-readable
// lines and, last, the result line (common.h Metrics::Print); each
// returns the process exit code.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// The paper's STL as one in-process StlCampaign.
int RunStlTable(const RunArgs& args);

/// The same STL through distrib::Coordinator and forked workers.
int RunDistribFleet(const RunArgs& args);

/// Open-loop and burst job traffic against a spawned gpustld over TCP.
int RunServiceMix(const RunArgs& args);

/// Writes the seed-independent ATPG-derived PTPs (tpgen.gptp,
/// sfu_imm.gptp) into `dir`.
int GenerateInputs(const std::string& dir);

}  // namespace perfbench
