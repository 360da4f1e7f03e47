#include "util/parameter_input.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "util/logging.hpp"

namespace vibe {

namespace {

std::string
trim(const std::string& s)
{
    auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    auto b = std::find_if_not(s.begin(), s.end(), is_space);
    auto e = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
    return b < e ? std::string(b, e) : std::string();
}

/**
 * Knobs each recognized deck block accepts. A typo inside one of
 * these blocks (`<exec> pack_interor = true`) is fatal at parse time
 * instead of silently selecting the default; unrecognized block names
 * pass through untouched so applications can carry their own
 * sections. Keep in sync with the fromParams readers (MeshConfig,
 * DriverConfig, package configs) and documented in the README.
 */
const std::map<std::string, std::set<std::string>>&
knownKnobs()
{
    static const std::map<std::string, std::set<std::string>> table = {
        {"mesh",
         {"ndim", "nx1", "nx2", "nx3", "num_ghost", "periodic", "x1min",
          "x1max", "optimize_aux_memory", "use_memory_pool"}},
        {"meshblock", {"nx1", "nx2", "nx3"}},
        {"amr",
         {"num_levels", "derefine_gap", "refine_every", "lb_every",
          "lb_cost", "lb_imbalance_trigger"}},
        {"exec",
         {"num_threads", "pack_interior", "num_ranks", "fail_rank",
          "fail_cycle"}},
        {"driver",
         {"ncycles", "tlim", "fixed_dt", "checkpoint_every",
          "checkpoint_path", "checkpoint_async"}},
        {"comm", {"randomize_buffer_keys"}},
        {"job", {"package"}},
        {"obs", {"trace", "metrics"}},
        {"burgers",
         {"num_scalars", "cfl", "recon", "refine_tol", "derefine_tol",
          "ic"}},
        {"advection",
         {"vx", "vy", "vz", "cfl", "recon", "refine_tol",
          "derefine_tol", "ic"}},
        {"reaction",
         {"vx", "vy", "vz", "cfl", "recon", "refine_tol",
          "derefine_tol", "rate", "stiffness", "stiff_tol",
          "max_iters"}},
    };
    return table;
}

} // namespace

ParameterInput
ParameterInput::fromString(const std::string& text)
{
    ParameterInput pin;
    std::istringstream in(text);
    std::string line;
    std::string block;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '<') {
            if (line.back() != '>')
                fatal("input deck line ", lineno, ": malformed block header '",
                      line, "'");
            block = trim(line.substr(1, line.size() - 2));
            if (block.empty())
                fatal("input deck line ", lineno, ": empty block name");
            continue;
        }
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("input deck line ", lineno, ": expected 'key = value', got '",
                  line, "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("input deck line ", lineno, ": empty key");
        if (auto known = knownKnobs().find(block);
            known != knownKnobs().end() && !known->second.count(key)) {
            std::ostringstream valid;
            for (const auto& knob : known->second)
                valid << (valid.tellp() > 0 ? ", " : "") << knob;
            fatal("input deck line ", lineno, ": unknown parameter '",
                  key, "' in block <", block, "> (known knobs: ",
                  valid.str(), ")");
        }
        pin.set(block, key, value);
    }
    return pin;
}

ParameterInput
ParameterInput::fromFile(const std::string& path)
{
    // vibe-lint: allow(io-isolation) reading the user's input deck is
    // this function's whole purpose; it runs once at startup, far from
    // any hot path, and src/io is for simulation-state I/O.
    std::ifstream in(path);
    if (!in)
        fatal("cannot open input deck '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromString(buf.str());
}

void
ParameterInput::set(const std::string& block, const std::string& key,
                    const std::string& value)
{
    values_[makeKey(block, key)] = value;
}

bool
ParameterInput::has(const std::string& block, const std::string& key) const
{
    return find(block, key) != nullptr;
}

int
ParameterInput::getInt(const std::string& block, const std::string& key,
                       int default_value) const
{
    const std::string* v = find(block, key);
    if (!v)
        return default_value;
    try {
        std::size_t pos = 0;
        int result = std::stoi(*v, &pos);
        if (pos != v->size())
            throw std::invalid_argument("trailing characters");
        return result;
    } catch (const std::exception&) {
        fatal("parameter ", block, "/", key, " = '", *v,
              "' is not an integer");
    }
}

std::int64_t
ParameterInput::getInt64(const std::string& block, const std::string& key,
                         std::int64_t default_value) const
{
    const std::string* v = find(block, key);
    if (!v)
        return default_value;
    try {
        std::size_t pos = 0;
        std::int64_t result = std::stoll(*v, &pos);
        if (pos != v->size())
            throw std::invalid_argument("trailing characters");
        return result;
    } catch (const std::exception&) {
        fatal("parameter ", block, "/", key, " = '", *v,
              "' is not an integer");
    }
}

double
ParameterInput::getReal(const std::string& block, const std::string& key,
                        double default_value) const
{
    const std::string* v = find(block, key);
    if (!v)
        return default_value;
    try {
        std::size_t pos = 0;
        double result = std::stod(*v, &pos);
        if (pos != v->size())
            throw std::invalid_argument("trailing characters");
        return result;
    } catch (const std::exception&) {
        fatal("parameter ", block, "/", key, " = '", *v, "' is not a real");
    }
}

bool
ParameterInput::getBool(const std::string& block, const std::string& key,
                        bool default_value) const
{
    const std::string* v = find(block, key);
    if (!v)
        return default_value;
    std::string lower = *v;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "true" || lower == "1" || lower == "yes" || lower == "on")
        return true;
    if (lower == "false" || lower == "0" || lower == "no" || lower == "off")
        return false;
    fatal("parameter ", block, "/", key, " = '", *v, "' is not a boolean");
}

std::string
ParameterInput::getString(const std::string& block, const std::string& key,
                          const std::string& default_value) const
{
    const std::string* v = find(block, key);
    return v ? *v : default_value;
}

int
ParameterInput::requireInt(const std::string& block,
                           const std::string& key) const
{
    if (!has(block, key))
        fatal("required parameter ", block, "/", key, " is missing");
    return getInt(block, key, 0);
}

double
ParameterInput::requireReal(const std::string& block,
                            const std::string& key) const
{
    if (!has(block, key))
        fatal("required parameter ", block, "/", key, " is missing");
    return getReal(block, key, 0.0);
}

std::string
ParameterInput::makeKey(const std::string& block, const std::string& key)
{
    return block + "/" + key;
}

const std::string*
ParameterInput::find(const std::string& block, const std::string& key) const
{
    auto it = values_.find(makeKey(block, key));
    return it == values_.end() ? nullptr : &it->second;
}

} // namespace vibe
