// epp_verify — semantic verification for pipeline artifacts: structural
// lint first, then the EPP-SEM analyzers (interval-proven HYDRA curve
// sanity, LQN convergence pre-check, fallback-chain coverage) on
// everything that parsed cleanly. See src/lint/verify.hpp for the rule
// catalog.
//
//   epp_verify [--json] [flags] FILE...
//
// FILEs are `.epp` bundles, `.lqn` models, `.wkl` workload grids or
// `.fspec` fault specs (sniffed by extension, then content). Refutations
// carry concrete witnesses (the client count where a curve goes
// negative, the chain that dead-ends) in the fix-it hint.
//
// Exit code is the maximum severity found: 0 clean or notes only,
// 1 warnings, 2 errors. Usage errors exit 2.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/verify.hpp"
#include "util/cli.hpp"

namespace {

namespace cli = epp::util::cli;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--json] [flags] FILE...\n"
      "  FILEs: .epp bundles, .lqn models, .wkl workload grids,\n"
      "         .fspec fault specs\n"
      "  --json                  machine-readable findings on stdout\n"
      "  --no-fallback           analyze chains with fallback disabled\n"
      "  --no-stale              analyze chains with stale replay off\n"
      "  --breaker-threshold N   breaker failure threshold (0 disarms)\n"
      "  --max-clients-factor F  verified client range, x clients-at-max\n"
      "exit code: 0 clean/notes, 1 warnings, 2 errors\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  epp::lint::VerifyOptions options;
  std::vector<std::string> files;
  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-fallback") {
      options.resilience.fallback_enabled = false;
    } else if (arg == "--no-stale") {
      options.resilience.serve_stale = false;
    } else if (arg == "--breaker-threshold") {
      if (++i >= argc) return usage(argv[0]);
      options.resilience.breaker_failure_threshold =
          static_cast<int>(cli::parse_int(arg, argv[i], 0, 1'000'000));
    } else if (arg == "--max-clients-factor") {
      if (++i >= argc) return usage(argv[0]);
      options.max_clients_factor = cli::parse_positive_double(arg, argv[i]);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  } catch (const cli::UsageError& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return usage(argv[0]);
  }
  if (files.empty()) return usage(argv[0]);

  epp::lint::Diagnostics diagnostics;
  for (const std::string& file : files)
    epp::lint::verify_artifact_file(file, options, diagnostics);
  diagnostics.sort_by_location();

  if (json) {
    std::fputs(epp::lint::render_json(diagnostics).c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (diagnostics.empty()) {
    std::printf("verified: %zu artifact(s), no findings\n", files.size());
  } else {
    std::fputs(epp::lint::render_text(diagnostics).c_str(), stdout);
  }
  return epp::lint::exit_code(diagnostics);
}
