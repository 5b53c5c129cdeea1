// GpuConfig serialization: load/save the device description as simple
// `key = value` text, so experiments can be parameterized without
// recompiling (the gpgpusim.config analogue for this simulator).
#pragma once

#include <string>
#include <vector>

#include "sim/gpu_config.h"
#include "sim/kernel.h"

namespace gpumas::sim {

// Renders the full configuration as key = value lines: every GpuConfig
// field, so a save/load round trip is lossless. This rendering is what
// profile::config_fingerprint hashes, so every field is part of every
// store key.
std::string config_to_string(const GpuConfig& cfg);

// Canonical key = value rendering of every KernelParams field that shapes
// the instruction and address streams. This is the identity of a kernel as
// the artifact store sees it (profile::kernel_fingerprint hashes it): two
// kernels that render identically are the same workload, whatever their
// variables were called.
std::string kernel_to_string(const KernelParams& kp);

// Canonical rendering of a co-run group: one `kernel/sms` line per member
// plus the execution mode ("static", or an SMRA parameter tag). Members
// must already be in canonical order (profile::canonicalize_group); the
// group-run cache hashes this rendering.
std::string group_to_string(const std::vector<uint64_t>& kernel_fps,
                            const std::vector<int>& partition,
                            const std::string& mode);

// Parses `key = value` lines. Defined behavior:
//  - '#' starts a comment; blank lines are skipped;
//  - leading/trailing whitespace around keys and values is ignored
//    (including CR, so CRLF files parse);
//  - a key appearing more than once is applied in order: the last
//    occurrence wins (matching "later file overrides earlier" layering);
//  - unknown keys, empty values and malformed values (a minus sign on an
//    unsigned field included) throw std::logic_error with the offending
//    line number and key;
//  - the result must pass sim::validate, or it throws naming the key.
// Keys not mentioned keep their current value in `cfg`.
void config_from_string(const std::string& text, GpuConfig& cfg);

// File variants.
void save_config(const std::string& path, const GpuConfig& cfg);
GpuConfig load_config(const std::string& path);

}  // namespace gpumas::sim
