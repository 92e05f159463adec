// The one file-sink used by every artifact exporter (flow CSVs,
// metrics.json, trace.json): open, delegate to a writer callback,
// fail loudly. Keeping a single path here means every exporter agrees
// on error behaviour and none reimplements the ofstream dance.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace qv::obs {

/// Write an artifact file via `write`. Throws std::runtime_error when
/// the file cannot be opened or the stream fails after writing.
void save_artifact(const std::string& path,
                   const std::function<void(std::ostream&)>& write);

/// Create the artifact directory `dir` and any missing parents. Every
/// experiment sweep calls this before its first cell runs, so a bad
/// --out fails before any work. Throws std::runtime_error naming `dir`
/// when it cannot be created, including when it names a regular file.
void create_artifact_dir(const std::string& dir);

}  // namespace qv::obs
