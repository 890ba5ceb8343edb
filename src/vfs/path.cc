#include "vfs/path.h"

namespace dufs::vfs {

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start < path.size()) {
    while (start < path.size() && path[start] == '/') ++start;
    std::size_t end = start;
    while (end < path.size() && path[end] != '/') ++end;
    if (end > start) parts.emplace_back(path.substr(start, end - start));
    start = end;
  }
  return parts;
}

std::string JoinPath(std::string_view parent, std::string_view child) {
  std::string out;
  if (!(parent.empty() || parent == "/")) out = parent;
  out.push_back('/');
  out.append(child);
  return out;
}

std::string NormalizePath(std::string_view path) {
  // Built in place: each kept component is appended, and ".." cuts the
  // string back to the previous slash.
  std::string out;
  out.reserve(path.size() + 1);
  std::size_t start = 0;
  while (start < path.size()) {
    while (start < path.size() && path[start] == '/') ++start;
    std::size_t end = start;
    while (end < path.size() && path[end] != '/') ++end;
    const std::string_view part = path.substr(start, end - start);
    start = end;
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      out.resize(out.empty() ? 0 : out.rfind('/'));  // clamp at root
      continue;
    }
    out.push_back('/');
    out.append(part);
  }
  if (out.empty()) out.push_back('/');
  return out;
}

Status ValidateVirtualPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return Status(StatusCode::kInvalidArgument, "path must be absolute");
  }
  if (path.size() > 1 && path.back() == '/') {
    return Status(StatusCode::kInvalidArgument, "trailing slash");
  }
  // Normal form: every component after a slash is non-empty and neither
  // "." nor "..".
  for (std::size_t start = 1; start < path.size();) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    const std::string_view part = path.substr(start, end - start);
    if (part.empty() || part == "." || part == "..") {
      return Status(StatusCode::kInvalidArgument, "path not normalized");
    }
    start = end + 1;
  }
  return Status::Ok();
}

std::string DirName(std::string_view path) {
  return std::string(DirView(path));
}

std::string_view DirView(std::string_view path) {
  if (path.size() <= 1) return "/";
  const auto pos = path.rfind('/');
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

std::string_view BaseName(std::string_view path) {
  const auto pos = path.rfind('/');
  if (pos == std::string_view::npos) return path;
  return path.substr(pos + 1);
}

bool IsWithin(std::string_view ancestor, std::string_view path) {
  if (ancestor == path) return true;
  if (ancestor == "/") return !path.empty() && path[0] == '/';
  return path.size() > ancestor.size() &&
         path.substr(0, ancestor.size()) == ancestor &&
         path[ancestor.size()] == '/';
}

}  // namespace dufs::vfs
