#include "xar/env_options.h"

#include <cstdlib>
#include <string>

#include "common/result.h"

namespace xar {
namespace {

// Annotates a parse failure with the environment variable it came from, so
// `XAR_MATCH_INDEX=clutser` reports the variable to fix, not just the typo.
template <typename T, typename Field>
Status ApplyParsed(const char* variable, Result<T> (*parse)(std::string_view),
                   Field* field) {
  const char* env = std::getenv(variable);
  if (env == nullptr) return Status::OK();
  Result<T> parsed = parse(env);
  if (!parsed.ok()) {
    return Status::InvalidArgument(std::string(variable) + ": " +
                                   parsed.status().message());
  }
  *field = parsed.value();
  return Status::OK();
}

}  // namespace

Status ApplyEnvOverrides(XarOptions* options) {
  Status status = ApplyParsed("XAR_ROUTING_BACKEND", RoutingBackendFromString,
                              &options->routing_backend);
  if (!status.ok()) return status;
  status = ApplyParsed("XAR_MATCH_INDEX", MatchIndexFromString,
                       &options->match_index);
  if (!status.ok()) return status;
  if (const char* env = std::getenv("XAR_PREPROCESS_THREADS")) {
    options->preprocess_threads =
        static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  return Status::OK();
}

}  // namespace xar
