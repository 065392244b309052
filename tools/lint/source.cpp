#include "lint/source.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace fs = std::filesystem;

namespace lint {

namespace {

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

bool SourceFile::is_header() const {
  return has_suffix(rel, ".hpp") || has_suffix(rel, ".h");
}

std::vector<SourceFile> load_sources(const std::string& root) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && lintable(entry.path()))
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    SourceFile f;
    f.rel = fs::relative(path, root).generic_string();
    f.raw_lines = split_lines(text);
    f.stripped = strip_comments_and_strings(text);
    f.tokens = tokenize(f.stripped);
    files.push_back(std::move(f));
  }
  return files;
}

}  // namespace lint
