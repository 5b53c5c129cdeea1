#include "profile/store_layer.h"

#include <charconv>
#include <filesystem>
#include <iomanip>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.h"
#include "common/text.h"

namespace gpumas::profile {

namespace {

// The schema revision the codecs stamp into each file's header comment
// ("# gpumas <layer> cache v2").
constexpr uint64_t kStoreFormatVersion = 2;

std::string_view trim_view(std::string_view s) {
  const char* kWs = " \t\r\f\v";
  const size_t a = s.find_first_not_of(kWs);
  if (a == std::string_view::npos) return {};
  return s.substr(a, s.find_last_not_of(kWs) - a + 1);
}

// Whole-value parse: from_chars takes no sign for unsigned types and skips
// no whitespace, so "-5", "+5", " 5" and "10abc" all fail.
template <class T>
bool parse_whole(std::string_view v, T* out) {
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc() && end == v.data() + v.size();
}

[[noreturn]] void reject(std::string_view key, const std::string& what) {
  throw std::logic_error("field '" + std::string(key) + "': " + what);
}

}  // namespace

EntryFields::EntryFields(const std::vector<std::string>& lines) {
  fields_.reserve(lines.size());
  for (size_t i = 1; i < lines.size(); ++i) {  // lines[0] is the header
    const std::string_view line = lines[i];
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::logic_error("malformed line '" + lines[i] + "'");
    }
    const std::string_view key = trim_view(line.substr(0, eq));
    for (const Field& f : fields_) {
      if (f.key == key) reject(key, "repeated");
    }
    fields_.push_back(Field{key, trim_view(line.substr(eq + 1)), line});
  }
}

std::string_view EntryFields::take(const char* key) {
  for (Field& f : fields_) {
    if (f.key == key) {
      f.used = true;
      return f.value;
    }
  }
  reject(key, "missing");
}

uint64_t EntryFields::u64(const char* key) {
  const std::string_view v = take(key);
  uint64_t n = 0;
  if (!parse_whole(v, &n)) {
    reject(key, "not an unsigned integer: '" + std::string(v) + "'");
  }
  return n;
}

uint64_t EntryFields::u64_or(const char* key, uint64_t absent) {
  for (const Field& f : fields_) {
    if (f.key == key) return u64(key);
  }
  return absent;
}

int EntryFields::int_in(const char* key, int lo, int hi) {
  const uint64_t n = u64(key);
  if (n < static_cast<uint64_t>(lo) || n > static_cast<uint64_t>(hi)) {
    reject(key, std::to_string(n) + " is outside [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(n);
}

double EntryFields::real(const char* key) {
  const std::string_view v = take(key);
  double x = 0.0;
  if (!parse_whole(v, &x)) {
    reject(key, "not a number: '" + std::string(v) + "'");
  }
  return x;
}

std::string EntryFields::str(const char* key) { return std::string(take(key)); }

sim::SimMode EntryFields::accuracy() {
  // The on-disk rendering of an artifact's fidelity; anything else marks a
  // mangled store.
  const std::string_view v = take("accuracy");
  if (v == "detailed") return sim::SimMode::kDetailed;
  if (v == "sampled") return sim::SimMode::kSampled;
  reject("accuracy", "unknown fidelity '" + std::string(v) + "'");
}

std::string EntryFields::rest() {
  std::string out;
  for (Field& f : fields_) {
    if (f.used) continue;
    f.used = true;
    out += f.line;
    out += '\n';
  }
  return out;
}

void EntryFields::finish() const {
  for (const Field& f : fields_) {
    if (!f.used) reject(f.key, "unknown key");
  }
}

namespace {

// Whole-file rejection is reserved for schema mismatches. Files without a
// recognizable header (hand-written fixtures) pass.
void check_store_version(const std::string& comment, const std::string& file) {
  if (comment.rfind("# gpumas ", 0) != 0) return;
  const size_t vpos = comment.rfind(" v");
  if (vpos == std::string::npos) return;
  const auto version = text::parse_u64_strict(comment.substr(vpos + 2));
  if (!version || *version == kStoreFormatVersion) return;
  throw std::logic_error(file + ": schema version v" +
                         std::to_string(*version) + " is not the v" +
                         std::to_string(kStoreFormatVersion) +
                         " this build reads — whole file rejected");
}

}  // namespace

StoreScan scan_store_file(std::istream& in, const std::string& section,
                          const std::string& file) {
  StoreScan scan;
  std::string line;
  int line_no = 0;
  bool preamble = true;  // still before the first non-comment line
  bool open = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::string t = trim(line);
    if (t.empty()) continue;
    // '#' only opens a comment at the start of a line: kernel names are
    // free-form and may contain it.
    if (t.front() == '#') {
      if (preamble) {
        // Preamble comments carry the file's metadata: the schema-version
        // header and the lifecycle generation stamp. Comments of any other
        // shape are ignored.
        check_store_version(t, file);
        const std::string kGenPrefix = "# generation = ";
        if (t.rfind(kGenPrefix, 0) == 0) {
          scan.generation =
              text::parse_u64_strict(t.substr(kGenPrefix.size()))
                  .value_or(scan.generation);
        }
      }
      continue;
    }
    preamble = false;
    if (t == section) {
      scan.entries.push_back(StoreEntry{line_no, {std::move(t)}});
      open = true;
    } else if (open) {
      scan.entries.back().lines.push_back(std::move(t));
    } else {
      scan.stray.push_back(StoreEntry{line_no, {std::move(t)}});
    }
  }
  return scan;
}

void write_quarantine(const std::string& dir, const std::string& stem,
                      const std::string& report) {
  std::ostringstream name;
  name << dir << "/quarantine/" << stem << "-" << std::hex << std::setw(16)
       << std::setfill('0') << fnv1a(report) << ".txt";
  std::error_code ec;
  std::filesystem::create_directories(dir + "/quarantine", ec);
  try {
    common::atomic_write_file(name.str(), report);
  } catch (const std::exception&) {
    // Best-effort bookkeeping (see the declaration).
  }
}

}  // namespace gpumas::profile
