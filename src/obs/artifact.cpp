#include "obs/artifact.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace qv::obs {

void save_artifact(const std::string& path,
                   const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write artifact file: " + path);
  write(out);
  out.flush();
  if (!out) throw std::runtime_error("write failed for artifact: " + path);
}

void create_artifact_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // An existing non-directory at `dir` (or on its path) fails here too.
  if (ec) {
    throw std::runtime_error("cannot create artifact directory " + dir +
                             ": " + ec.message());
  }
}

}  // namespace qv::obs
